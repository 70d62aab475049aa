"""Periodic scalar fields on a rectangular box torus with spectral calculus.

Fields live on a uniform grid over [0, L_x) x [0, L_y) x [0, L_t) and are
differentiated, integrated and interpolated through real FFTs.  All other
modules build on the operations here.

This is the one module that calls the FFT backends, lays out spectra and
knows which transform lengths are fast.  The other modules transform through
:func:`_spectrum` and :func:`_from_spectrum` against the symbols of the
cached :func:`operator_symbols` table, the preconditioner's inverse symbol
among them, and the solver picks its coarse grid sizes with :func:`_is_fast_odd_length`.
:func:`resample` copies the kept modes of one ``rfftn`` into the target
grid's half layout and takes one ``irfftn``.  :func:`interpolant_modes` and
:func:`synthesize` hold the interpolant by signed mode, with the same
Nyquist split, for :func:`evaluate` and the rotated pullback.
The grid-frame linearization and the estimate audit take their derivatives
as arrays from :func:`_derivatives`, which transforms a field once per axis
and gives each axis's first and second derivatives, u_xy and u_xt from u_x:
bitwise the values of the :func:`derivative` calls they stand for.
The two transforms keep the precision of their input: float64 values go
through ``numpy.fft``, and float32 values, with their complex64 spectra,
through ``scipy.fft``, which transforms single precision natively.
``scipy.fft`` is imported on the first single-precision transform, so
importing the package does not load it.  :func:`_single` casts a symbol
to single precision.

Axis convention: values are indexed ``[i, j, k]`` for the point
``(i*L_x/n_x, j*L_y/n_y, k*L_t/n_t)``.  The text dump format stores x
fastest, then y, then t.

:func:`write_field` writes exactly the bytes of C's ``%.17g``, with LF line
ends, through a numpy kernel, :func:`_format_17g`, in chunks of at most
``_CHUNK`` values.  It scales each value by a cached table of powers of ten
in double-double arithmetic (Dekker's exact product) and takes the 17
digits from a table of four-digit groups.  A value near a rounding tie
that the scaling cannot settle, or of magnitude outside [1e-270, 1e270],
falls back to Python's ``%.17g``.  The tables are built on first use with
integer arithmetic, so importing the package imports no module for them.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

AXES = ("x", "y", "t")
_AXIS_INDEX = {"x": 0, "y": 1, "t": 2}
_SINGLE_TINY = float(np.finfo(np.float32).tiny)  # smallest normal float32


class GridMismatchError(ValueError):
    """Raised when two fields on different grids are combined."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on a box with periods (L_x, L_y, L_t)."""

    n_x: int
    n_y: int
    n_t: int
    L_x: float = 1.0
    L_y: float = 1.0
    L_t: float = 1.0

    def __post_init__(self):
        for name in ("n_x", "n_y", "n_t"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < (4 if n % 2 == 0 else 5):
                raise ValueError(
                    f"{name} must be an even integer >= 4 or an odd integer >= 5, got {n!r}"
                )
            object.__setattr__(self, name, int(n))
        for name in ("L_x", "L_y", "L_t"):
            L = float(getattr(self, name))
            if not (L > 0.0 and math.isfinite(L)):
                raise ValueError(f"{name} must be a positive finite real, got {L!r}")
            object.__setattr__(self, name, L)
        # the second-order derivative factors (2 pi m / L)^2, largest at
        # m = n // 2; the symbols of operator_symbols sum the three axes'
        # factors, and a rotated frame's groups stay below twice that sum
        k = [2.0 * math.pi * (n // 2) / L for n, L in zip(self.shape, self.periods)]
        factors = [k_ax * k_ax for k_ax in k]  # inf, not OverflowError, past the range
        if not math.isfinite(2.0 * sum(factors)):
            ax = max(range(3), key=factors.__getitem__)
            raise ValueError(
                f"L_{AXES[ax]} = {self.periods[ax]!r} is too small for n_{AXES[ax]} = "
                f"{self.shape[ax]}: the derivative factor (2 pi (n // 2) / L)^2 = "
                f"{factors[ax]:.3e}, summed over the axes, overflows float64"
            )
        if not 0.0 < self.volume() < math.inf:
            raise ValueError(
                f"the box volume L_x L_y L_t of periods {self.periods} is {self.volume()!r}: "
                "it must be a positive finite float"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_x, self.n_y, self.n_t)

    @property
    def periods(self) -> tuple[float, float, float]:
        return (self.L_x, self.L_y, self.L_t)

    def volume(self) -> float:
        return self.L_x * self.L_y * self.L_t

    def coordinates(self, axis: str) -> np.ndarray:
        """Sample coordinates along one axis."""
        n, L = self.shape[_AXIS_INDEX[axis]], self.periods[_AXIS_INDEX[axis]]
        return np.arange(n) * (L / n)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full (X, Y, T) coordinate arrays of shape ``self.shape``."""
        return np.meshgrid(
            self.coordinates("x"),
            self.coordinates("y"),
            self.coordinates("t"),
            indexing="ij",
        )


class ScalarField:
    """Real samples of a periodic function on a :class:`GridSpec`.

    Instances are immutable; arithmetic returns new fields.  Two fields
    combine only if their grids are exactly equal (no silent resampling).
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values: np.ndarray):
        # one conversion and copy; C order, so that sums over the array do
        # not depend on the layout of the source
        values = np.array(values, dtype=np.float64, order="C")
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
            raise ValueError(f"non-finite value at grid index {bad}")
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def with_values(self, values: np.ndarray) -> "ScalarField":
        """Sibling field on the same grid."""
        return ScalarField(self.grid, values)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.grid != self.grid:
                raise GridMismatchError(
                    f"grids differ: {self.grid} vs {other.grid}"
                )
            return other.values
        return float(other)

    def __add__(self, other):
        return self.with_values(self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.with_values(self.values - self._coerce(other))

    def __rsub__(self, other):
        return self.with_values(self._coerce(other) - self.values)

    def __mul__(self, other):
        return self.with_values(self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.with_values(self.values / self._coerce(other))

    def __neg__(self):
        return self.with_values(-self.values)

    def __repr__(self):
        return (
            f"ScalarField(grid={self.grid.shape}, periods={self.grid.periods}, "
            f"sup={np.max(np.abs(self.values)):.3e})"
        )


def sample(f, grid: GridSpec) -> ScalarField:
    """Sample a periodic function f(x, y, t) on the grid.

    ``f`` must accept numpy coordinate arrays (vectorized evaluation).
    Non-finite sample values are rejected with the offending index.
    """
    X, Y, T = grid.meshgrid()
    values = np.broadcast_to(np.asarray(f(X, Y, T), dtype=np.float64), grid.shape)
    return ScalarField(grid, values)


def _factor(n: int, L: float, order: int, half: bool = True) -> np.ndarray:
    """Fourier factor (2 pi i m / L)^order of an order-1 or order-2 derivative.

    The modes m are those of an rfft (``half``) or of a full fft of length
    n.  On an even grid the Nyquist mode of the odd order is zeroed; an odd
    grid has no Nyquist mode.
    """
    m = np.fft.rfftfreq(n, d=1.0 / n) if half else np.fft.fftfreq(n, d=1.0 / n)
    k = 2.0 * np.pi * m / L
    if order == 1:
        fac = 1j * k
        if n % 2 == 0:
            fac[n // 2] = 0.0  # Nyquist
    else:
        fac = -(k * k)
    return fac


def derivative(u: ScalarField, axis: str, order: int) -> ScalarField:
    """Fourier-spectral partial derivative along one axis.

    Exact for trigonometric polynomials resolved by the grid.  On even grids
    the Nyquist mode of odd-order derivatives is zeroed so derivative fields
    stay real and the discrete operator is skew.
    """
    if axis not in _AXIS_INDEX:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    (values,) = _along(u.values, u.grid, _AXIS_INDEX[axis], (order,))
    return u.with_values(values)


def _along(values: np.ndarray, grid: GridSpec, ax: int, orders: tuple) -> list:
    """Derivatives of grid values along axis ``ax``, one per order in
    ``orders``, from one ``rfft`` and one ``irfft`` per order."""
    n = grid.shape[ax]
    shape = [1, 1, 1]
    shape[ax] = n // 2 + 1
    spec = np.fft.rfft(values, axis=ax)
    return [
        np.fft.irfft(spec * _factor(n, grid.periods[ax], order).reshape(shape), n=n, axis=ax)
        for order in orders
    ]


class _Derivatives(NamedTuple):
    """Spectral derivatives of a field as arrays; see :func:`_derivatives`."""

    x: np.ndarray
    y: np.ndarray | None  # None when the gradient was not asked for
    t: np.ndarray
    xx: np.ndarray | None  # these five are None when the second order was not
    yy: np.ndarray | None
    tt: np.ndarray | None
    xy: np.ndarray | None
    xt: np.ndarray | None


def _derivatives(u: ScalarField, gradient: bool = True, second: bool = True) -> _Derivatives:
    """The derivatives of u that the linearization and the estimate audit read.

    One ``rfft`` of u per axis gives that axis's first and second
    derivatives, and u_xy and u_xt are taken from u_x, so every array is
    bitwise the values of the :func:`derivative` call it stands for (u_xy of
    ``derivative(derivative(u, "x", 1), "y", 1)``).  ``gradient`` asks for
    u_y, and ``second`` for u_xx, u_yy, u_tt, u_xy and u_xt; u_x and u_t
    come either way.  Forward + inverse transforms: 5 + 8 for both, 5 + 7
    for the second order alone and 3 + 3 for the gradient alone.
    """
    grid, values = u.grid, u.values
    if not second:
        ux, uy, ut = (_along(values, grid, ax, (1,))[0] for ax in range(3))
        return _Derivatives(ux, uy, ut, None, None, None, None, None)
    ux, uxx = _along(values, grid, 0, (1, 2))
    if gradient:
        uy, uyy = _along(values, grid, 1, (1, 2))
    else:
        uy, (uyy,) = None, _along(values, grid, 1, (2,))
    ut, utt = _along(values, grid, 2, (1, 2))
    (uxy,) = _along(ux, grid, 1, (1,))
    (uxt,) = _along(ux, grid, 2, (1,))
    return _Derivatives(ux, uy, ut, uxx, uyy, utt, uxy, uxt)


class OperatorSymbols(NamedTuple):
    """Fourier symbols of the linearized operator's derivative groups, and
    the inverse symbol of its flat case.

    Broadcastable over the ``np.fft.rfftn`` layout and built from the
    factors of :func:`derivative`; the mixed symbols are products of the
    Nyquist-zeroed first-order factors, so they match composed transforms.
    In a rotated frame (see :func:`operator_symbols`) the fields hold the
    same groups for the directions d_p and d_q in place of d_x and d_y.
    ``flat_inverse`` is 1 / (xx + yy_tt_t), the inverse of the linearization
    L0 = d_xx + d_yy + d_tt + d_t at u = 0, with its zero mode pinned to 0:
    L0 is nonsingular on mean-zero functions.  A mode whose flat symbol is
    below the smallest normal float32 is pinned to 0 too, so that the
    inverse holds in float32.  Only the zero mode is, unless a period
    exceeds about 5.8e19 (:func:`_underflowing_axes`).
    """

    xx: np.ndarray       # d_xx, or d_pp
    yy_tt_t: np.ndarray  # d_yy + d_tt + d_t, or d_qq + d_tt + d_t
    xy: np.ndarray       # d_x d_y, or d_p d_q
    xt: np.ndarray       # d_x d_t, or d_p d_t
    flat_inverse: np.ndarray  # L0^{-1}, in the full layout


@functools.lru_cache(maxsize=8)
def operator_symbols(grid: GridSpec, angle: tuple | None = None) -> OperatorSymbols:
    """The cached :class:`OperatorSymbols` table of a grid (read-only).

    ``angle`` is a pair (c, s) = (cos theta, sin theta).  It gives the table
    in the rotated frame d_p = c d_x - s d_y, d_q = s d_x + c d_y, in which
    the rotated problem is the base equation: with c2 = c^2 and s2 = s^2,

        pp = c2 xx + s2 yy - 2 c s xy,   qq = s2 xx + c2 yy + 2 c s xy,
        pq = c s (xx - yy) + (c2 - s2) xy,   pt = c xt - s yt.

    With no angle the table is that of the grid's own axes; (1, 0) gives the
    same values, broadcast to the full layout.
    """
    x1, x2 = (_factor(grid.n_x, grid.L_x, o, half=False)[:, None, None] for o in (1, 2))
    y1, y2 = (_factor(grid.n_y, grid.L_y, o, half=False)[None, :, None] for o in (1, 2))
    t1, t2 = (_factor(grid.n_t, grid.L_t, o)[None, None, :] for o in (1, 2))
    xy, xt = (x1 * y1).real, (x1 * t1).real
    if angle is None:
        groups = (x2, y2 + t2 + t1, xy, xt)
    else:
        c, s = angle
        groups = (
            c * c * x2 + s * s * y2 - 2.0 * c * s * xy,
            s * s * x2 + c * c * y2 + 2.0 * c * s * xy + t2 + t1,
            c * s * (x2 - y2) + (c * c - s * s) * xy,
            c * xt - s * (y1 * t1).real,
        )
    flat = groups[0] + groups[1]
    pinned = np.abs(flat) < _SINGLE_TINY  # the zero mode among them
    flat_inverse = 1.0 / np.where(pinned, 1.0, flat)
    flat_inverse[pinned] = 0.0
    table = OperatorSymbols(*groups, flat_inverse)
    for symbol in table:
        symbol.flags.writeable = False
    return table


def _underflowing_axes(grid: GridSpec) -> list[int]:
    """The axes whose smallest second-derivative factor (2 pi / L)^2 is
    below the smallest normal float32, the precision of the solver's Krylov
    operator: those of a period above about 5.8e19.

    The solver refuses a datum that varies along such an axis.  The modes
    along it alone are those whose flat symbol :func:`operator_symbols` pins
    to 0 when it falls below that bound.
    """
    return [
        ax for ax, L in enumerate(grid.periods) if (2.0 * math.pi / L) ** 2 < _SINGLE_TINY
    ]


def _single(symbol: np.ndarray) -> np.ndarray:
    """A symbol or array in single precision: float32, or complex64 if complex.

    A complex symbol never goes to a real dtype, which would drop its
    imaginary part: the d_t part of ``yy_tt_t`` and ``flat_inverse``.
    """
    return symbol.astype(np.complex64 if np.iscomplexobj(symbol) else np.float32)


def _spectrum(values: np.ndarray) -> np.ndarray:
    """The ``rfftn`` of grid values, the layout of every symbol here.

    complex64 for float32 values, through ``scipy.fft``; complex128 otherwise.
    """
    if values.dtype == np.float32:
        import scipy.fft

        return scipy.fft.rfftn(values)
    return np.fft.rfftn(values)


def _from_spectrum(spec: np.ndarray, symbol: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Grid values of the inverse ``irfftn`` of spec times a symbol.

    float32 when the product is complex64, through ``scipy.fft``; float64
    otherwise.
    """
    spec = spec * symbol
    if spec.dtype == np.complex64:
        import scipy.fft

        return scipy.fft.irfftn(spec, s=grid.shape, axes=(0, 1, 2))
    return np.fft.irfftn(spec, s=grid.shape, axes=(0, 1, 2))


def _is_fast_odd_length(m: int) -> bool:
    """Whether m is an odd length 3^a 5^b, which the backend transforms fast.

    pocketfft is slow on prime lengths, such as the 17 that n//2 rounded to
    odd gives for 32 and 34: one 17^3 ``irfftn`` took 0.22 ms, one 15^3
    ``irfftn`` 0.08 ms.
    """
    for p in (3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def gradient(u: ScalarField) -> tuple[ScalarField, ScalarField, ScalarField]:
    return (derivative(u, "x", 1), derivative(u, "y", 1), derivative(u, "t", 1))


def integrate(u: ScalarField) -> float:
    """Trapezoid quadrature over the box; spectral-exact for periodic data."""
    return _integral(u.values, u.grid)


def _integral(values: np.ndarray, grid: GridSpec) -> float:
    """:func:`integrate` of grid values."""
    return float(np.sum(values)) * grid.volume() / values.size


def mean(u: ScalarField) -> float:
    return integrate(u) / u.grid.volume()


def project_mean_zero(u: ScalarField) -> ScalarField:
    return u.with_values(u.values - np.mean(u.values))


def norms(u: ScalarField) -> dict:
    """Sup and L2 norms of the field and of its spectral gradient."""
    return _norms(u.values, u.grid, tuple(g.values for g in gradient(u)))


def _norms(values: np.ndarray, grid: GridSpec, grad: tuple) -> dict:
    """:func:`norms` of grid values, given the arrays (u_x, u_y, u_t)."""
    ux, uy, ut = grad
    grad_sq = ux**2 + uy**2 + ut**2
    scale = grid.volume() / values.size
    return {
        "sup": float(np.max(np.abs(values))),
        "l2": math.sqrt(float(np.sum(values**2)) * scale),
        "grad_sup": math.sqrt(float(np.max(grad_sq))),
        "grad_l2": math.sqrt(float(np.sum(grad_sq)) * scale),
    }


def random_band_limited(
    grid: GridSpec,
    rng: np.random.Generator,
    max_mode: int = 3,
    amplitude: float = 1.0,
) -> ScalarField:
    """Random mean-zero field with modes below max_mode per axis, given sup norm.

    Used for property-test corpora and solver warm-start perturbations.
    Keeps clear of the Nyquist mode of even grids so all discrete
    integration-by-parts identities hold exactly.
    """
    if any(max_mode > (n - 1) // 2 for n in grid.shape):
        raise ValueError("max_mode must stay below every Nyquist mode")
    noise = rng.standard_normal(grid.shape)
    spec = np.fft.fftn(noise)
    mx = np.fft.fftfreq(grid.n_x, d=1.0 / grid.n_x).astype(int)
    my = np.fft.fftfreq(grid.n_y, d=1.0 / grid.n_y).astype(int)
    mt = np.fft.fftfreq(grid.n_t, d=1.0 / grid.n_t).astype(int)
    MX, MY, MT = np.meshgrid(mx, my, mt, indexing="ij")
    keep = (np.abs(MX) <= max_mode) & (np.abs(MY) <= max_mode) & (np.abs(MT) <= max_mode)
    spec[~keep] = 0.0
    spec[0, 0, 0] = 0.0
    vals = np.fft.ifftn(spec).real
    sup = np.max(np.abs(vals))
    if sup > 0:
        vals *= amplitude / sup
    return ScalarField(grid, vals)


# -- spectral resampling and point evaluation ----------------------------


def _split_modes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed modes of one FFT axis, with an even grid's Nyquist mode split.

    Returns (source index, signed mode, weight): every FFT index once with
    weight 1, except on an even grid the Nyquist index, which appears twice,
    as -n/2 and +n/2 with weight 1/2 each.  The two halves sum to its real
    cosine branch, the Nyquist convention of :func:`interpolant_modes`, and
    so of :func:`evaluate` and the rotated pullback.  :func:`resample` makes
    the same split by its own index remap, :func:`_mode_map`.  An odd grid
    has no Nyquist mode.
    """
    index = np.arange(n)
    mode = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    weight = np.ones(n)
    if n % 2 == 0:
        index = np.append(index, n // 2)
        mode = np.append(mode, n // 2)
        weight = np.append(weight, 0.5)
        weight[n // 2] = 0.5
    return index, mode, weight


def interpolant_modes(u: ScalarField) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Coefficients of the trigonometric interpolant of u by signed mode.

    Returns the coefficient array and the signed modes of its three axes,
    from :func:`_split_modes`.  Summing coeffs * e^{2 pi i k.x / L} over all
    entries gives the interpolant that :func:`evaluate` evaluates.
    """
    spec = np.fft.fftn(u.values) / u.values.size
    (ix, kx, wx), (iy, ky, wy), (it, kt, wt) = (_split_modes(n) for n in u.grid.shape)
    weight = wx[:, None, None] * wy[None, :, None] * wt[None, None, :]
    return spec[np.ix_(ix, iy, it)] * weight, (kx, ky, kt)


def synthesize(grid: GridSpec, coeffs: np.ndarray, modes: tuple) -> ScalarField:
    """Real field on ``grid`` whose signed modes ``modes`` hold the coeffs.

    ``modes`` is one integer array per axis, broadcast against coeffs.  Each
    mode is taken modulo the grid size, and coefficients that land on the
    same mode add up.  The inverse of :func:`interpolant_modes` for the
    modes it returns.

    The coefficients must be those of a real field: closed under k -> -k,
    with conjugate values.  :func:`interpolant_modes` gives such a set, and
    so does any integer-linear remap of its modes, which maps -k to the
    negative of the image of k.  The wrapped spectrum is then Hermitian, so
    only the modes whose wrapped t index is at most n_t // 2 are scattered,
    into the ``rfftn`` half layout, and one ``irfftn`` gives the field.
    """
    n_t = grid.n_t
    *index, coeffs = np.broadcast_arrays(*(k % n for k, n in zip(modes, grid.shape)), coeffs)
    half = index[2] <= n_t // 2
    spec = np.zeros((grid.n_x, grid.n_y, n_t // 2 + 1), dtype=complex)
    np.add.at(spec, tuple(i[half] for i in index), coeffs[half])
    return ScalarField(grid, np.fft.irfftn(spec, s=grid.shape, axes=(0, 1, 2), norm="forward"))


def _mode_map(n: int, n_new: int, half: bool) -> list:
    """:func:`resample`'s index remap on one axis of n samples onto n_new.

    Returns (target, source, weight) index pairs: the target entry gains
    weight times the source entry, on a full FFT axis or, with ``half``, on
    the last axis of the ``rfftn`` layout (modes m >= 0).  The modes inside
    both grids' bands keep their signed place.  Upsampling splits an even
    axis's Nyquist mode into +-n/2 halves; downsampling to an even n_new
    folds +-n_new/2 into its Nyquist mode.  The half layout stores only
    +n_new/2 of that fold, but ``irfftn`` reads its Nyquist plane by the
    Hermitian part, (c(k) + conj c(-k)) / 2 over the other axes' modes k,
    and conj c(-k) there is the -n_new/2 mode: twice the stored plane is
    the fold.
    """
    h = min((n - 1) // 2, (n_new - 1) // 2)
    pairs = [(slice(0, h + 1), slice(0, h + 1), 1.0)]
    if not half:
        pairs.append((slice(n_new - h, n_new), slice(n - h, n), 1.0))
    k = n_new // 2
    if n % 2 == 0 and n_new > n:  # the split
        pairs.append((n // 2, n // 2, 0.5))
        if not half:
            pairs.append((n_new - n // 2, n // 2, 0.5))
    elif n_new % 2 == 0 and n_new == n:  # the two halves fold back whole
        pairs.append((k, k, 1.0))
    elif n_new % 2 == 0 and n_new < n:  # the fold
        pairs += [(k, k, 2.0)] if half else [(k, k, 1.0), (k, n - k, 1.0)]
    return pairs


def resample(u: ScalarField, grid: GridSpec) -> ScalarField:
    """Spectral interpolation onto a grid with the same periods.

    A Fourier index remap on each axis: the interpolant's modes with
    |m| <= n_new / 2 move to index m mod n_new and the others are dropped.
    Upsampling thus splits an even grid's Nyquist mode into its +-n/2
    halves, and downsampling truncates, folding +-n_new/2 into an even
    target's Nyquist mode.  Exact for fields resolved by both grids.  One
    ``rfftn``, a copy of the kept modes into the target's half layout
    (:func:`_mode_map`) and one ``irfftn``; the values agree with
    ``synthesize`` of the kept :func:`interpolant_modes` to rounding.
    """
    if u.grid.periods != grid.periods:
        raise GridMismatchError("resample requires identical periods")
    if u.grid == grid:
        return u
    spec = np.fft.rfftn(u.values, norm="forward")
    out = np.zeros((grid.n_x, grid.n_y, grid.n_t // 2 + 1), dtype=spec.dtype)
    maps = (_mode_map(n, n_new, ax == 2) for ax, (n, n_new) in enumerate(zip(u.grid.shape, grid.shape)))
    for (tx, sx, wx), (ty, sy, wy), (tt, st, wt) in itertools.product(*maps):
        out[tx, ty, tt] += (wx * wy * wt) * spec[sx, sy, st]
    return ScalarField(grid, np.fft.irfftn(out, s=grid.shape, axes=(0, 1, 2), norm="forward"))


def _points(x, y, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates x, y, t as broadcast float arrays.

    Raises ValueError, naming the first point (in C order) with a coordinate
    that is not finite: such a point has no place on the torus.
    """
    x, y, t = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (x, y, t)))
    bad = np.argwhere(~(np.isfinite(x) & np.isfinite(y) & np.isfinite(t)))
    if len(bad):
        i = tuple(int(k) for k in bad[0])
        raise ValueError(f"non-finite point ({x[i]}, {y[i]}, {t[i]}) at index {i}")
    return x, y, t


def evaluate(u: ScalarField, x, y, t) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary points.

    x, y, t are broadcast-compatible coordinate arrays; returns an array of
    the broadcast shape.  Sums the coefficients of
    :func:`interpolant_modes`, so an even axis's Nyquist mode enters as
    its real cosine branch.  Reproduces grid samples at grid points.
    Raises ValueError, before any work, for a point with a coordinate that
    is not finite.
    """
    x, y, t = _points(x, y, t)
    out_shape = x.shape
    periods = u.grid.periods
    points = [np.mod(c.ravel(), L) for c, L in zip((x, y, t), periods)]
    coeffs, modes = interpolant_modes(u)
    mx, my, mt = coeffs.shape
    out = np.empty(points[0].size)
    chunk = max(1, 2**21 // (my * mt))
    for lo in range(0, out.size, chunk):
        Ax, Ay, At = (
            np.exp((2j * np.pi / L) * np.outer(p[lo:lo + chunk], k))
            for p, k, L in zip(points, modes, periods)
        )
        t1 = Ax @ coeffs.reshape(mx, my * mt)
        t2 = np.einsum("sy,syt->st", Ay, t1.reshape(-1, my, mt))
        out[lo:lo + chunk] = np.einsum("st,st->s", At, t2).real
    return out.reshape(out_shape)


# -- text dump format -----------------------------------------------------


_CHUNK = 2**12  # values per formatted chunk; see _write_rows
_FAST_RANGE = (1e-270, 1e270)  # |x| whose scaled products neither under- nor overflow
_TIE_GAP = 2.0**-32  # far above the 2^-46 error of the scaled value; see _digits17
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two halves
# the k of the 10^k tables: 10^X and 10^(16 - X) for X up to one beyond
# floor(log10 |x|) on the fast range
_POWERS = range(-272, 289)
# one value's widest text, each optional part in its own slot: the sign, the
# "0.000" of a fixed number below 1, the 17 digits with a point slot after
# each of the first 16, the exponent "e+ddd" and the value's terminator
_SLOTS = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e+000\n", dtype=np.uint8)
_DIGIT_SLOTS = slice(6, 39, 2)
_LONGEST = len(b"-2.2250738585072014e-308")  # the longest %.17g text of a double
# a text's layout: its sign, its notation (fixed for each X from -4 to 16,
# or exponent with two or three digits) and its count of significant digits
_LAYOUTS = (2, 21 + 2, 17)


def _slot_mask(X: np.ndarray, nz: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The slots of ``_SLOTS`` that the ``%g`` text of each value uses, for
    decimal exponents X, counts nz of significant digits (the 17 digits up to
    the last nonzero one) and signs: fixed notation for -4 <= X < 17, with
    "0." and -X - 1 zeros before the digits below 1, and d.ddd...e+-XX
    otherwise; the digits through the units place or the first are kept, and
    the point only before a kept digit."""
    digits = np.arange(17)
    fixed = (X >= -4) & (X < 17)
    below = fixed & (X < 0)
    point = np.where(fixed, X, 0)  # the digit the point follows, if any
    keep = np.zeros((X.size, _SLOTS.size), dtype=bool)
    keep[:, 0] = negative
    keep[:, 1] = keep[:, 2] = below
    keep[:, 3:6] = digits[:3] < np.where(below, -1 - X, 0)[:, None]
    keep[:, _DIGIT_SLOTS] = (digits < nz[:, None]) | (digits <= point[:, None])
    keep[:, 7:38:2] = (digits[:16] == point[:, None]) & (nz > point + 1)[:, None]
    keep[:, 39] = keep[:, 40] = keep[:, 42] = keep[:, 43] = ~fixed
    keep[:, 41] = ~fixed & (np.abs(X) >= 100)
    keep[:, 44] = True
    return keep


@functools.cache
def _decimal_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables of the ``%.17g`` kernel, built on first use.

    - ``powers``: for each 10^k, k in ``_POWERS``, the row hi, lo, hi's upper
      and lower halves and the least double >= 10^k.  hi + lo lies within
      about 2^-106 relatively of 10^k.  Python's integer true division is
      correctly rounded, so hi is 10^k rounded and lo the exact rest
      rounded; lo has the sign of the rest, which tells whether hi is below
      10^k.
    - ``groups``: the four ASCII digits of each group 0000 to 9999, as one
      uint32.
    - ``trailing``: the trailing zeros of each group, 4 for 0000.
    - ``masks``: the slots of ``_SLOTS`` used by each layout of
      ``_LAYOUTS`` (:func:`_slot_mask`), in C order.

    A plain tuple: a ``NamedTuple`` class for it added 0.24 ms to the
    package import.
    """
    rows = []
    for k in _POWERS:
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        rows.append((hi, lo, math.nextafter(hi, math.inf) if lo > 0.0 else hi))
    hi, lo, least = np.array(rows).T
    upper = _SPLIT * hi - (_SPLIT * hi - hi)
    n = np.arange(10000)
    places = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    trailing = np.argmax(places[:, ::-1] != 0, axis=1)
    trailing[0] = 4
    negative, notation, nz = (a.ravel() for a in np.indices(_LAYOUTS))
    X = np.where(notation <= 20, notation - 4, np.where(notation == 21, -5, -100))
    masks = _slot_mask(X, nz + 1, negative == 1)
    powers = np.column_stack([hi, lo, upper, hi - upper, least])
    groups = (places + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    tables = (powers, groups, trailing, masks)
    for table in tables:
        table.flags.writeable = False
    return tables


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decimal exponent X = floor(log10 a) and D = round(a 10^(16 - X))
    of positive doubles a in ``_FAST_RANGE``, both int64, and where that
    rounding is too close to a tie to trust.

    X is the float estimate corrected by exact comparisons of a with the
    least doubles >= 10^X and >= 10^(X + 1).  y = a 10^(16 - X) is taken as
    the double-double a (hi + lo): a hi exactly, by Dekker's product of the
    split halves, and a lo rounded.  As y lies in [10^16, 10^17), a hi is an
    integer and the computed tail errs by less than 2^-46, so D is a hi plus
    the rounded tail unless the tail's fraction lies within ``_TIE_GAP`` of
    1/2.  Where 10^(16 - X) is a double, -6 <= X <= 16, lo is 0 and the tail
    exact, and ``np.rint`` settles a tie to even as ``%.17g`` does: only
    there can a double lie on a tie.  D is 10^17 where y rounds up into the
    next decade.
    """
    powers = _decimal_tables()[0]
    X = np.floor(np.log10(a)).astype(np.int64)
    least = powers[:, 4]
    X += (a >= least[X + 1 - _POWERS.start]).astype(np.int64)
    X -= (a < least[X - _POWERS.start]).astype(np.int64)
    hi, lo, hi_up, hi_low = powers[16 - X - _POWERS.start, :4].T
    a_up = _SPLIT * a - (_SPLIT * a - a)
    a_low = a - a_up
    head = a * hi
    tail = ((a_up * hi_up - head) + a_up * hi_low + a_low * hi_up) + a_low * hi_low + a * lo
    whole = np.rint(tail)
    near_tie = (np.abs(tail - whole) > 0.5 - _TIE_GAP) & (lo != 0.0)
    return X, head.astype(np.int64) + whole.astype(np.int64), near_tie


def _format_17g(values: np.ndarray, ends: np.ndarray) -> bytes:
    """The bytes of ``b"%.17g" % x`` for each x of a float64 array, each
    followed by its terminator from ``ends``, repeated along the values.

    A value within ``_FAST_RANGE`` gets its decimal exponent X and 17 digits
    from :func:`_digits17`, and one that rounds up into the next decade
    steps X by one; zero prints as 0.  The digits come four at a time from
    the table of groups.  Each value's bytes fill the slots of ``_SLOTS``
    that its layout uses (:func:`_slot_mask`), and one ``np.compress`` of the
    flat byte matrix keeps those.  The values outside the range, and those
    whose rounding is near a tie, are formatted by Python's ``%.17g`` in one
    call, and each text fills the first slots of its value's row.
    """
    _, group_digits, group_zeros, masks = _decimal_tables()
    a = np.abs(values)
    zero = a == 0.0
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a[~fast] = 1.0  # its digits, 1 and 16 zeros, serve a zero
    X, D, slow = _digits17(a)
    slow |= ~(fast | zero)
    up = D == 10**17
    X[up] += 1
    D[up] = 10**16
    X[zero] = 0

    # the 17 digits: the lead digit in byte 3, then four groups of four
    lead, rest = np.divmod(D, 10**16)
    top, bottom = np.divmod(rest, 10**8)
    groups = (*np.divmod(top, 10**4), *np.divmod(bottom, 10**4))
    digits = np.empty((values.size, 5), dtype=np.uint32)
    for i, group in enumerate(groups, start=1):
        digits[:, i] = group_digits[group]
    digits = digits.view(np.uint8)
    digits[:, 3] = np.where(zero, 0, lead) + ord("0")
    trailing = group_zeros[groups[0]]
    for group in groups[1:]:
        trailing = group_zeros[group] + (group == 0) * trailing

    text = np.empty((values.size, _SLOTS.size), dtype=np.uint8)
    text[:] = _SLOTS
    text[:, _DIGIT_SLOTS] = digits[:, 3:]
    text[:, -1] = np.tile(ends, values.size // ends.size)
    fixed = (X >= -4) & (X < 17)
    if not fixed.all():
        with_exponent = np.flatnonzero(~fixed)
        E = np.abs(X[with_exponent])
        text[with_exponent, 40] = np.where(X[with_exponent] < 0, ord("-"), ord("+"))
        text[with_exponent, 41:44] = group_digits[E].view(np.uint8).reshape(-1, 4)[:, 1:]
    notation = np.where(fixed, X + 4, np.where(np.abs(X) < 100, 21, 22))
    negative = np.signbit(values).astype(np.intp)
    layout = np.ravel_multi_index((negative, notation, 16 - trailing), _LAYOUTS)
    keep = masks[layout]
    if slow.any():  # Python's texts, padded with spaces, take the first slots
        rows = np.flatnonzero(slow)
        texts = f"%-{_LONGEST}.17g".encode() * rows.size % tuple(values[rows].tolist())
        fallback = np.frombuffer(texts, dtype=np.uint8).reshape(rows.size, _LONGEST)
        text[rows, :_LONGEST] = fallback
        keep[rows] = False
        keep[rows, :_LONGEST] = fallback != ord(" ")
        keep[rows, -1] = True
    return np.compress(keep.ravel(), text.ravel()).tobytes()


def _write_rows(fh, rows: np.ndarray) -> None:
    """Write the rows of a 2-D float64 array to the binary file ``fh``: each
    value exactly as C's ``%.17g``, the values of a row joined by ``,`` and
    each row ended by LF.

    Formats about ``_CHUNK`` values at a time through :func:`_format_17g`,
    so that one chunk's arrays take under 2 MB.  Larger chunks ran slower:
    a 48^3 dump took 32-34 ms in chunks of 2^14 values against 20-21 ms in
    chunks of 2^12, and unchunked a dump would hold several arrays of its
    size in memory.
    """
    n_rows, n_cols = rows.shape
    ends = np.full(n_cols, ord(","), dtype=np.uint8)
    ends[-1] = ord("\n")
    step = max(1, _CHUNK // n_cols)
    for lo in range(0, n_rows, step):
        fh.write(_format_17g(rows[lo:lo + step].ravel(), ends))


def write_field(u: ScalarField, path) -> None:
    """Write the dump format: header ``nx ny nt Lx Ly Lt``, one value per
    line, x fastest, 17 significant digits (bitwise round-trip).

    The bytes are exactly those of C's ``%.17g``, with LF line ends on every
    platform.  A numpy kernel formats the values in chunks of ``_CHUNK``
    (4096) values, each through :func:`_format_17g`: table-driven
    double-double scaling gives each value's 17 digits, and a value of
    magnitude outside [1e-270, 1e270], or near a rounding tie that the
    scaling cannot settle, goes to Python's ``%.17g`` alone.
    """
    g = u.grid
    header = f"{g.n_x} {g.n_y} {g.n_t} {g.L_x:.17g} {g.L_y:.17g} {g.L_t:.17g}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        _write_rows(fh, u.values.ravel(order="F")[:, None])


def read_field(path) -> ScalarField:
    """Read the dump format of :func:`write_field`, bitwise.

    The values are parsed in one C-level call; a malformed header or any
    token that is not a number raises ValueError naming the path.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 6:
            raise ValueError(f"{path}: malformed field dump header")
        try:
            nx, ny, nt = (int(w) for w in header[:3])
            grid = GridSpec(nx, ny, nt, *(float(w) for w in header[3:]))
        except ValueError as exc:
            raise ValueError(f"{path}: malformed field dump header ({exc})") from None
        text = fh.read()
    # fromstring reads whitespace alone as the single value -1
    if text.isspace():
        text = ""
    try:
        # numpy 1.x only warns on a token that is not a number, and returns
        # the values before it
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, dtype=np.float64, sep=" ")
    except (ValueError, DeprecationWarning) as exc:
        raise ValueError(f"{path}: malformed field dump values ({exc})") from None
    if values.size != nx * ny * nt:
        raise ValueError(
            f"{path}: expected {nx * ny * nt} values, found {values.size}"
        )
    return ScalarField(grid, values.reshape(grid.shape, order="F"))
