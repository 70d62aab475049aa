"""The reduced scalar operator, its data and its linearization.

The nonlinear operator is

    ma_lhs(u) = (u_xx + 1)(u_yy + u_tt + u_t + 1) - u_xy^2 - u_xt^2

and the equation being solved is ma_lhs(u) = e^F.  The linearization at u
is the second-order operator

    L w = P w_xx + Q (w_yy + w_tt + w_t) - 2 R w_xy - 2 S w_xt

with P = u_yy + u_tt + u_t + 1, Q = u_xx + 1, R = u_xy, S = u_xt, and
ma_lhs(u) = Q P - R^2 - S^2.  Only :func:`linearize` computes P, Q, R, S,
as read-only arrays: what is computed from them stays an array, and fields
are built only where a function returns one.  In the grid frame it
assembles them from the derivative arrays of
:func:`~ktcy.field._derivatives`, by the one helper that the estimate audit
also uses when it takes its derivatives from a single kernel call.  Given an angle it takes them
in a rotated frame, where x and y are replaced by the rotated directions p
and q, and the coefficients carry that frame to everything that uses them.
:func:`apply_linearized` takes one forward transform of w and one inverse
transform per derivative group against the cached
:func:`~ktcy.field.operator_symbols` table.  Every transform goes through
:mod:`ktcy.field`, which alone chooses the FFT backend and the layout of
the spectra and symbols.  Given the :class:`MeanPreconditioner` K of the
coefficients, it applies L K, with K = L0^{-1} D^{-1} for the flat
linearization L0 (the one at u = 0) and the pointwise trace D = P + Q, in
one forward and three inverse transforms: L0^{-1} is folded into the
derivative groups, and the group of Q is rewritten through the xx group
and the mean-zero projection.  This is how the solver's right
preconditioning runs.

:func:`renormalize` and :func:`manufacture` make solver-ready data: the
integral of e^F equals the box volume, so e^F has mean 1.  The solver works
on that target e^F itself (its continuity path is 1 - tau + tau e^F, of
mean 1 at every tau), and takes the smallest symbol eigenvalue of each
state by the one formula that :func:`ellipticity_report` uses.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field import (
    GridMismatchError, GridSpec, ScalarField, _Derivatives, _derivatives, _from_spectrum,
    _single, _spectrum, operator_symbols, project_mean_zero,
)

_SOLUTION_TOL_FACTOR = 1e-10  # sup residual of a solution, relative to max(1, sup e^F)


@dataclass(frozen=True)
class LinearizedCoeffs:
    """Coefficient arrays of the linearized operator at a state u, read-only.

    ``angle`` is the frame they were taken in (see :func:`linearize`); the
    linearized apply, the solver's preconditioner and its line search work
    in the same frame.  :attr:`cone_margins` is measured once, by whoever
    first reads it, and read from there by every later user.
    """

    grid: GridSpec
    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray
    angle: tuple | None = None

    def __post_init__(self):
        for a in (self.P, self.Q, self.R, self.S):
            a.flags.writeable = False

    def lhs(self) -> np.ndarray:
        """ma_lhs at the state the coefficients were taken from."""
        return self.Q * self.P - self.R * self.R - self.S * self.S

    @cached_property
    def cone_margins(self) -> tuple[float, float]:
        """(min Q, min P): the state is in the elliptic cone when both are
        positive."""
        return float(np.min(self.Q)), float(np.min(self.P))


def linearize(u: ScalarField, angle: tuple | None = None) -> LinearizedCoeffs:
    """P, Q, R, S at u, in the frame of ``angle`` = (cos theta, sin theta).

    In a rotated frame x and y become d_p = c d_x - s d_y and
    d_q = s d_x + c d_y, so that the rotated problem of
    :mod:`ktcy.rotation` is solved on the unit grid of its datum: P = u_qq +
    u_tt + u_t + 1, Q = u_pp + 1, R = u_pq, S = u_pt, from one forward and
    four inverse transforms against the rotated :func:`~ktcy.field.operator_symbols`
    table.  With no angle they come from one
    :func:`~ktcy.field._derivatives` call, five forward and seven inverse
    per-axis transforms, bitwise the values of seven per-axis
    :func:`~ktcy.field.derivative` calls.  That path is kept for accuracy:
    with the table, acceptance criterion 5's finite-difference error at
    eps = 1e-5 rises from 8.4e-11 to 1.35e-10, above its 1e-10 bound.  It
    costs no more than the table: about 2.1 ms each at 32^3, and 11 against
    14 ms at 48^3 (medians on a shared 2-CPU x86-64 machine, numpy 2.4).
    """
    if angle is not None:
        symbols = operator_symbols(u.grid, angle)
        spec = _spectrum(u.values)
        return LinearizedCoeffs(
            grid=u.grid,
            P=_from_spectrum(spec, symbols.yy_tt_t, u.grid) + 1.0,
            Q=_from_spectrum(spec, symbols.xx, u.grid) + 1.0,
            R=_from_spectrum(spec, symbols.xy, u.grid),
            S=_from_spectrum(spec, symbols.xt, u.grid),
            angle=angle,
        )
    return _coefficients(u.grid, _derivatives(u, gradient=False))


def _coefficients(grid: GridSpec, d: _Derivatives) -> LinearizedCoeffs:
    """P, Q, R, S in the grid frame from the arrays of
    :func:`~ktcy.field._derivatives`."""
    return LinearizedCoeffs(grid=grid, P=d.yy + d.tt + d.t + 1.0, Q=d.xx + 1.0, R=d.xy, S=d.xt)


def ma_lhs(u: ScalarField) -> ScalarField:
    """Left-hand side of the reduced equation."""
    return u.with_values(linearize(u).lhs())


def residual(u: ScalarField, F: ScalarField) -> ScalarField:
    """ma_lhs(u) - e^F.  A caller that already holds the coefficients of u
    takes ``coeffs.lhs() - e^F`` from them instead."""
    if u.grid != F.grid:
        raise GridMismatchError("residual: u and F live on different grids")
    return u.with_values(linearize(u).lhs() - _exp(F))


def renormalize(F: ScalarField) -> ScalarField:
    """Shift F by a constant so the integral of e^F equals the box volume.

    Raises ValueError, naming the largest F, when e^F or its integral
    overflows float64.  The shift does not depend on a constant added to F,
    so a datum whose mean of e^F is below the smallest normal float (F
    below about -708 everywhere), where its log would lose digits or be
    -inf, is renormalized as F - max F, whose mean of e^F is at least
    1 / (number of grid points).
    """
    volume = F.grid.volume()
    ef = _exp(F)
    # field.mean on the array, where an overflow leaves a mean of inf
    with np.errstate(over="ignore"):
        mean_ef = float(np.sum(ef)) * volume / ef.size / volume
    if np.isinf(mean_ef):
        raise _exp_overflow(F)
    if mean_ef < np.finfo(float).tiny:
        return renormalize(F - float(np.max(F.values)))
    return F - float(np.log(mean_ef))


def _exp(F: ScalarField) -> np.ndarray:
    """The array e^F; raises the ValueError of :func:`_exp_overflow` when an
    entry overflows float64."""
    with np.errstate(over="ignore"):
        ef = np.exp(F.values)
    if np.isinf(np.max(ef)):
        raise _exp_overflow(F)
    return ef


def _exp_overflow(F: ScalarField) -> ValueError:
    """The error for a datum whose e^F overflows float64."""
    return ValueError(
        f"e^F overflows float64: max F is {float(np.max(F.values)):.6g}, "
        f"above log of the largest float, {np.log(np.finfo(float).max):.6g}"
    )


class NonPositiveLHS(ValueError):
    """The manufactured left-hand side is not positive, so log is undefined."""

    def __init__(self, min_value: float, index: tuple):
        self.min_value = min_value
        self.index = index
        super().__init__(
            f"ma_lhs(u_star) has minimum {min_value:.6g} at grid index {index}; "
            "the amplitude is too large for a positive volume ratio"
        )


def manufacture(u_star: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Manufactured-solution datum: F = log(ma_lhs(project_mean_zero(u_star))).

    By the discrete mean identity, the integral of e^F equals the box volume
    exactly at quadrature level, so the result is solver-ready.  Returns
    (F, projected u_star).  Raises ValueError, naming sup |u_star|, when
    ma_lhs(u_star) or a derivative under it overflows float64.
    """
    u0 = project_mean_zero(u_star)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = linearize(u0).lhs()
    if not np.all(np.isfinite(lhs)):
        raise ValueError(
            f"ma_lhs(u_star) overflows float64: sup |u_star| is "
            f"{float(np.max(np.abs(u0.values))):.6g}, and its second derivatives or their "
            "products exceed the largest float"
        )
    min_value = float(np.min(lhs))
    if min_value <= 0.0:
        index = tuple(int(i) for i in np.unravel_index(np.argmin(lhs), lhs.shape))
        raise NonPositiveLHS(min_value, index)
    return u0.with_values(np.log(lhs)), u0


class MeanPreconditioner:
    """The right preconditioner K = L0^{-1} D^{-1} of the linearized
    operator L of coefficients c, folded into L.

    L0 w = w_xx + w_yy + w_tt + w_t in the frame of c is the grid-mean
    operator of every state: P - 1 and Q - 1 are derivatives of the periodic
    u, so the grid means of P and Q are 1 (to rounding).  Its inverse symbol
    is the table's ``flat_inverse``, 0 on the zero mode.  D multiplies by the
    trace P + Q, which L0 cannot see: where P and Q vary together, L is
    close to (P + Q) L0 / 2, so L K is close to the identity up to a
    constant factor, which GMRES does not see.  On every mode but the zero
    mode the symbol of the Q group times L0^{-1} is 1 - xx L0^{-1}, so with
    z = w / (P + Q)

        L K w = (P - Q) d_xx L0^{-1} z + Q Pi z - 2 R d_xy L0^{-1} z
                - 2 S d_xt L0^{-1} z

    with Pi the mean-zero projection: one forward and three inverse
    transforms against the composite symbols xx L0^{-1}, -2 xy L0^{-1} and
    -2 xt L0^{-1}, which carry the factor -2 of the mixed groups.  The
    identity holds mode by mode on odd and even grids (L0 and the composite
    symbols share the Nyquist-zeroed first-order factors) and in a rotated
    frame.

    K holds c and its float64 trace; the division by the trace runs in
    float64.  Everything else is built once, in float64 from the float64
    coefficients, and held in ``dtype``: float32 arrays and complex64
    symbols for float32, while float64 shares c's Q, R and S.  The folded
    apply (:func:`apply_linearized`) and :meth:`solve` run in that
    precision.  The solver builds K in float32 for every linear solve; the
    float64 K is the reference that float32 apply is measured against.
    Nothing is stored on c: what is built here is freed with the
    preconditioner, at the end of the linear solve that builds it.
    """

    def __init__(self, c: LinearizedCoeffs, dtype=np.float64):
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        # each product is cast as it is made, so at most one float64
        # temporary is alive at a time
        held = _single if dtype == np.float32 else (lambda a: a)
        symbols = operator_symbols(c.grid, c.angle)
        self.coeffs, self.trace, self.dtype = c, c.P + c.Q, dtype
        self.P_fold, self.Q_fold = held(c.P - c.Q), held(c.Q)
        self.R, self.S = held(c.R), held(c.S)
        self.xx = held(symbols.xx * symbols.flat_inverse)
        self.xy = held(-2.0 * symbols.xy * symbols.flat_inverse)
        self.xt = held(-2.0 * symbols.xt * symbols.flat_inverse)
        self.inverse = held(symbols.flat_inverse)

    def solve(self, values: np.ndarray) -> np.ndarray:
        """K of grid values, L0^{-1}(values / (P + Q)), one forward and one
        inverse transform in the preconditioner's precision; an array of
        that precision."""
        spec = _spectrum((values / self.trace).astype(self.dtype, copy=False))
        return _from_spectrum(spec, self.inverse, self.coeffs.grid)


def apply_linearized(
    c: LinearizedCoeffs, w: ScalarField, preconditioner: MeanPreconditioner | None = None
) -> ScalarField:
    """L w, or L K w given the :class:`MeanPreconditioner` K of ``c``.

    L w takes one forward and four inverse float64 transforms, one per
    derivative group of the frame of ``c``.  L K w = L L0^{-1}(w / (P + Q))
    takes one forward and three inverse transforms, in the precision of the
    preconditioner: float32 rounds w / (P + Q) to float32 and runs the
    transforms and products in single precision.  The result is a float64
    field either way.  In single precision it matched the float64
    preconditioned apply to 1.6e-7 relative (sup) on white-noise w, and to
    6.1e-7 on the 270 float32 Krylov vectors of the first three data of each
    benchmark workload.  A preconditioner built from any other coefficient
    object is refused with ValueError, even one of the same grid and frame.
    """
    if c.grid != w.grid:
        raise GridMismatchError("apply_linearized: coefficient/argument grid mismatch")
    grid = w.grid
    if preconditioner is None:
        symbols = operator_symbols(grid, c.angle)
        spec = _spectrum(w.values)
        return w.with_values(
            c.P * _from_spectrum(spec, symbols.xx, grid)
            + c.Q * _from_spectrum(spec, symbols.yy_tt_t, grid)
            - 2.0 * (c.R * _from_spectrum(spec, symbols.xy, grid))
            - 2.0 * (c.S * _from_spectrum(spec, symbols.xt, grid))
        )
    K = preconditioner
    if K.coeffs is not c:
        raise ValueError("apply_linearized: the preconditioner is not that of the coefficients")
    values = (w.values / K.trace).astype(K.dtype, copy=False)
    spec = _spectrum(values)
    mean_zero = values - spec[0, 0, 0].real / values.size
    return w.with_values(
        K.P_fold * _from_spectrum(spec, K.xx, grid)
        + K.Q_fold * mean_zero
        + K.R * _from_spectrum(spec, K.xy, grid)
        + K.S * _from_spectrum(spec, K.xt, grid)
    )


@dataclass(frozen=True)
class EllipticityReport:
    """Pointwise admissibility diagnostics for a state u against a datum F.

    min_lambda is the infimum of the smallest symbol eigenvalue

        Lambda = (T - sqrt(T^2 - 4 e^F)) / 2,   T = trace factor,

    with the square-root argument clamped at zero (and flagged) when the
    state is far from a solution.  The report never aborts on a state, so
    it describes any state, solution or not; a datum whose e^F overflows
    float64 is a ValueError.  It holds measured numbers only: the pass/fail
    verdicts on them are the audit's checks.  The estimate audit
    (:func:`~ktcy.estimates.verify`) builds it; the solver's trace records
    take only Lambda, from the same formula.  A caller that already holds
    ``linearize(u)`` passes it as ``coeffs``, in any frame but on the grid
    of u, and one that holds the array e^F passes it as ``ef``.
    """

    min_q: float          # min of u_xx + 1
    min_p: float          # min of u_yy + u_tt + u_t + 1
    min_trace: float      # min of laplacian(u) + u_t + 2
    min_lambda: float
    trace_floor: float    # 2 * min e^{F/2}
    sqrt_clamped: bool


def _min_lambda(trace: np.ndarray, ef: np.ndarray) -> tuple[float, bool]:
    """min of Lambda = (T - sqrt(T^2 - 4 e^F)) / 2 over the grid, for the trace
    factor T = P + Q and the target e^F = ``ef``, with the square-root
    argument clamped at zero; and whether it was clamped anywhere."""
    disc = trace * trace - 4.0 * ef
    lam = 0.5 * (trace - np.sqrt(np.maximum(disc, 0.0)))
    return float(np.min(lam)), bool(np.any(disc < 0.0))


def ellipticity_report(
    u: ScalarField,
    F: ScalarField,
    coeffs: LinearizedCoeffs | None = None,
    ef: np.ndarray | None = None,
) -> EllipticityReport:
    if u.grid != F.grid or (coeffs is not None and coeffs.grid != u.grid):
        raise GridMismatchError("ellipticity_report: grid mismatch")
    c = linearize(u) if coeffs is None else coeffs
    trace = c.P + c.Q
    min_lambda, clamped = _min_lambda(trace, _exp(F) if ef is None else ef)
    min_q, min_p = c.cone_margins
    return EllipticityReport(
        min_q=min_q,
        min_p=min_p,
        min_trace=float(np.min(trace)),
        min_lambda=min_lambda,
        trace_floor=2.0 * float(np.min(np.exp(0.5 * F.values))),
        sqrt_clamped=clamped,
    )


def _solution_bound(ef: np.ndarray) -> float:
    """1e-10 * max(1, sup e^F) for ef = e^F: the largest sup residual of a
    solution, the estimate audit's solution test."""
    return _SOLUTION_TOL_FACTOR * max(1.0, float(np.max(ef)))
