import numpy as np
import pytest

from ktcy.field import GridSpec


@pytest.fixture
def grid8():
    return GridSpec(8, 8, 8)


@pytest.fixture
def grid16():
    return GridSpec(16, 16, 16)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def pde_calls(monkeypatch):
    """``pde_calls(name)`` returns a list that grows by one per call of
    ``ktcy.pde.<name>``, in every ktcy module that imports it by name."""
    import sys

    import ktcy.pde as pde_module

    def count(name):
        calls, original = [], getattr(pde_module, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname.startswith("ktcy") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
        return calls

    return count


@pytest.fixture
def fft_calls(monkeypatch):
    """A Counter of the FFT transforms called during the test, keyed by backend
    and name: ``numpy.fft.rfftn`` or ``scipy.fft.rfftn``."""
    from collections import Counter

    import scipy.fft

    calls = Counter()
    for backend, module in (("numpy.fft", np.fft), ("scipy.fft", scipy.fft)):
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            original = getattr(module, name)

            def counting(*args, _key=f"{backend}.{name}", _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    return calls


def _separable(grid, a: float, b: float):
    """sep(a, b) on an odd unit grid and its discrete solution.

    sep(a, b) = renormalize(F1(x) + F2(y, t)) with F1 = a sin 2 pi x and
    F2 = b sin 2 pi y cos 2 pi t + 0.3 b cos 4 pi t; the renormalizing
    constant goes into F2, which is then the datum's x = 0 plane.  With
    m1 the mean of e^F1, u = a(x) + b(y, t) for

        a_xx = e^F1 / m1 - 1,    b_yy + b_tt + b_t = m1 e^F2 - 1

    has u_xy = u_xt = 0, Q = e^F1 / m1 and P = m1 e^F2, so ma_lhs(u) =
    e^F: one 1-D and one 2-D spectral inverse, with numpy alone, give the
    discrete solution.  Returns (F, u).
    """
    from ktcy.field import ScalarField
    from ktcy.pde import renormalize

    assert grid.periods == (1.0, 1.0, 1.0) and all(n % 2 for n in grid.shape)
    tau = 2.0 * np.pi
    x, y, t = (grid.coordinates(axis) for axis in "xyt")
    f1 = a * np.sin(tau * x)
    f2 = b * np.sin(tau * y)[:, None] * np.cos(tau * t) + 0.3 * b * np.cos(2.0 * tau * t)
    F = renormalize(ScalarField(grid, f1[:, None, None] + f2))
    f2 = F.values[0]  # sin 0 = 0: the x = 0 plane is F2
    m1 = float(np.mean(np.exp(f1)))
    kx, ky, kt = (tau * np.fft.fftfreq(n, d=1.0 / n) for n in grid.shape)
    symbol_x, symbol_yt = -kx**2, -ky[:, None] ** 2 - kt**2 + 1j * kt
    symbol_x[0] = symbol_yt[0, 0] = 1.0  # the zero modes, set to 0 below
    spec_x = np.fft.fft(np.exp(f1) / m1 - 1.0) / symbol_x
    spec_yt = np.fft.fft2(m1 * np.exp(f2) - 1.0) / symbol_yt
    spec_x[0] = spec_yt[0, 0] = 0.0
    ax, byt = np.fft.ifft(spec_x).real, np.fft.ifft2(spec_yt).real
    return F, ScalarField(grid, ax[:, None, None] + byt)


@pytest.fixture
def separable():
    """``separable(grid, a, b)`` builds sep(a, b) and its discrete solution
    (see :func:`_separable`)."""
    return _separable
