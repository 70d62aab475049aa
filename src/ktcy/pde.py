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
the spectra and symbols.  Given a Fourier-diagonal
``right_inverse`` symbol of an operator M, it multiplies the spectrum of w by
that symbol between the two, applying L M^{-1} in the same five transforms:
this is how the solver's right preconditioning runs.

:func:`renormalize` and :func:`manufacture` make solver-ready data: the
integral of e^F equals the box volume, so e^F has mean 1.  The solver works
on that target e^F itself (its continuity path is 1 - tau + tau e^F, of
mean 1 at every tau), and takes the smallest symbol eigenvalue of each
state by the one formula that :func:`ellipticity_report` uses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (
    GridMismatchError, GridSpec, ScalarField, _Derivatives, _derivatives, _from_spectrum,
    _single_symbols, _spectrum, operator_symbols, project_mean_zero,
)

_TRACE_TOL = 1e-8  # relative slack of the trace-floor test, as in the estimate audit
_SOLUTION_TOL_FACTOR = 1e-10  # sup residual of a solution, relative to max(1, sup e^F)


@dataclass(frozen=True)
class LinearizedCoeffs:
    """Coefficient arrays of the linearized operator at a state u, read-only.

    ``angle`` is the frame they were taken in (see :func:`linearize`); the
    linearized apply, the solver's preconditioner and its line search work
    in the same frame.
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
    return u.with_values(linearize(u).lhs() - np.exp(F.values))


def renormalize(F: ScalarField) -> ScalarField:
    """Shift F by a constant so the integral of e^F equals the box volume.

    Raises ValueError, naming the largest F, when e^F or its integral
    overflows float64.
    """
    volume = F.grid.volume()
    # field.mean on the array, where an overflow leaves a mean of inf
    with np.errstate(over="ignore"):
        ef = np.exp(F.values)
        mean_ef = float(np.sum(ef)) * volume / ef.size / volume
    if np.isinf(mean_ef):
        raise _exp_overflow(F)
    return F - float(np.log(mean_ef))


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
    (F, projected u_star).
    """
    u0 = project_mean_zero(u_star)
    lhs = ma_lhs(u0)
    min_value = float(np.min(lhs.values))
    if min_value <= 0.0:
        index = tuple(int(i) for i in np.unravel_index(np.argmin(lhs.values), lhs.values.shape))
        raise NonPositiveLHS(min_value, index)
    return lhs.with_values(np.log(lhs.values)), u0


def apply_linearized(
    c: LinearizedCoeffs, w: ScalarField, right_inverse: np.ndarray | None = None
) -> ScalarField:
    """L w, or L M^{-1} w when ``right_inverse`` holds the Fourier symbol of M^{-1}.

    ``right_inverse`` is an array broadcastable over the spectral layout of
    :mod:`ktcy.field`.  It multiplies the spectrum of w before the four
    inverse transforms, so a right-preconditioned apply costs the same five
    transforms as a plain one.
    The derivative groups are those of the frame of ``c``.

    The apply runs in the precision of the coefficients.  The coefficients of
    :func:`linearize` are float64.  With float32 coefficients, w is rounded to
    float32 and the transforms and products run in single precision against
    the single-precision symbol table; ``right_inverse`` should then be
    complex64 (``field._single``).  The result is a float64 field either way.
    In single precision it matched the float64 apply to 3e-7 relative on
    16^3 test fields, and to 6e-6 on the Newton corrections of the benchmark
    solves, whose high modes L amplifies.
    """
    if c.grid != w.grid:
        raise GridMismatchError("apply_linearized: coefficient/argument grid mismatch")
    if c.P.dtype == np.float32:
        symbols = _single_symbols(w.grid, c.angle)
        spec = _spectrum(w.values.astype(np.float32))
    else:
        symbols = operator_symbols(w.grid, c.angle)
        spec = _spectrum(w.values)
    if right_inverse is not None:
        spec *= right_inverse
    return w.with_values(
        c.P * _from_spectrum(spec, symbols.xx, w.grid)
        + c.Q * _from_spectrum(spec, symbols.yy_tt_t, w.grid)
        - 2.0 * (c.R * _from_spectrum(spec, symbols.xy, w.grid))
        - 2.0 * (c.S * _from_spectrum(spec, symbols.xt, w.grid))
    )


def symbol_eigenvalues(u: ScalarField):
    """Eigenvalue fields of the 3x3 principal-symbol matrix

        [ P  R  S ]
        [ R  Q  0 ]
        [ S  0  Q ]

    from its factored characteristic polynomial: one linear factor Q and a
    quadratic with roots lam_pm.  Returns (lam_minus, lam_plus, Q); the
    discriminant (P - Q)^2 + 4 R^2 + 4 S^2 is nonnegative, so the roots are
    always real and satisfy lam_minus <= Q <= lam_plus.
    """
    c = linearize(u)
    P, Q, R, S = c.P, c.Q, c.R, c.S
    half_sum = 0.5 * (P + Q)
    half_disc = 0.5 * np.sqrt((P - Q) ** 2 + 4.0 * R**2 + 4.0 * S**2)
    lam_minus = u.with_values(half_sum - half_disc)
    lam_plus = u.with_values(half_sum + half_disc)
    return lam_minus, lam_plus, u.with_values(Q)


@dataclass(frozen=True)
class EllipticityReport:
    """Pointwise admissibility diagnostics for a state u against a datum F.

    min_lambda is the infimum of the smallest symbol eigenvalue

        Lambda = (T - sqrt(T^2 - 4 e^F)) / 2,   T = trace factor,

    with the square-root argument clamped at zero (and flagged) when the
    state is far from a solution.  The report never aborts, so it describes
    any state, solution or not.  The estimate audit
    (:func:`~ktcy.estimates.verify`) builds it; the solver's trace records
    take only Lambda, from the same formula.  A caller that already holds
    ``linearize(u)`` passes it as ``coeffs``, and one that holds the array
    e^F passes it as ``ef``.
    """

    min_q: float          # min of u_xx + 1
    min_p: float          # min of u_yy + u_tt + u_t + 1
    min_trace: float      # min of laplacian(u) + u_t + 2
    min_lambda: float
    trace_floor: float    # 2 * min e^{F/2}
    sqrt_clamped: bool
    q_positive: bool      # u_xx + 1 > 0 everywhere
    p_positive: bool      # u_yy + u_tt + u_t + 1 > 0 everywhere
    trace_bound_ok: bool  # min_trace >= trace_floor within 1e-8 (1 + trace_floor)

    @property
    def admissible(self) -> bool:
        return self.q_positive and self.p_positive


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
    if u.grid != F.grid:
        raise GridMismatchError("ellipticity_report: grid mismatch")
    c = linearize(u) if coeffs is None else coeffs
    min_q = float(np.min(c.Q))
    min_p = float(np.min(c.P))
    trace = c.P + c.Q
    min_trace = float(np.min(trace))
    min_lambda, clamped = _min_lambda(trace, np.exp(F.values) if ef is None else ef)
    trace_floor = 2.0 * float(np.min(np.exp(0.5 * F.values)))
    return EllipticityReport(
        min_q=min_q,
        min_p=min_p,
        min_trace=min_trace,
        min_lambda=min_lambda,
        trace_floor=trace_floor,
        sqrt_clamped=clamped,
        q_positive=min_q > 0.0,
        p_positive=min_p > 0.0,
        trace_bound_ok=min_trace - trace_floor >= -_TRACE_TOL * (1.0 + abs(trace_floor)),
    )


def is_solution(u: ScalarField, F: ScalarField) -> bool:
    """Solution test: sup |residual| <= :func:`solution_residual_bound`."""
    r = residual(u, F)
    return float(np.max(np.abs(r.values))) <= solution_residual_bound(F)


def solution_residual_bound(F: ScalarField) -> float:
    """1e-10 * max(1, sup e^F): the largest sup residual of a solution."""
    return _solution_bound(np.exp(F.values))


def _solution_bound(ef: np.ndarray) -> float:
    """:func:`solution_residual_bound` given ef = e^F."""
    return _SOLUTION_TOL_FACTOR * max(1.0, float(np.max(ef)))
