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
