"""The reduced scalar operator, its data, its continuity path and its linearization.

The nonlinear operator is

    ma_lhs(u) = (u_xx + 1)(u_yy + u_tt + u_t + 1) - u_xy^2 - u_xt^2

and the equation being solved is ma_lhs(u) = e^F.  The linearization at u
is the second-order operator

    L w = P w_xx + Q (w_yy + w_tt + w_t) - 2 R w_xy - 2 S w_xt

with P = u_yy + u_tt + u_t + 1, Q = u_xx + 1, R = u_xy, S = u_xt, and
ma_lhs(u) = Q P - R^2 - S^2.  Only :func:`linearize` computes P, Q, R, S,
from per-axis spectral derivatives, as read-only arrays: what is computed
from them stays an array, and fields are built only where a function
returns one.  :func:`apply_linearized` takes one
``rfftn`` of w and one ``irfftn`` per derivative group against the cached
:func:`~ktcy.field.operator_symbols` table.  Given a Fourier-diagonal
``right_inverse`` symbol of an operator M, it multiplies the spectrum of w by
that symbol between the two, applying L M^{-1} in the same five transforms:
this is how the solver's right preconditioning runs.

:func:`renormalize` and :func:`manufacture` make solver-ready data: the
integral of e^F equals the box volume, and :func:`continuity_datum` keeps it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (
    GridMismatchError, GridSpec, ScalarField, derivative, mean, operator_symbols, project_mean_zero
)

_TRACE_TOL = 1e-8  # relative slack of the trace-floor test, as in the estimate audit
_SOLUTION_TOL_FACTOR = 1e-10  # sup residual of a solution, relative to max(1, sup e^F)


@dataclass(frozen=True)
class LinearizedCoeffs:
    """Coefficient arrays of the linearized operator at a state u, read-only."""

    grid: GridSpec
    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        for a in (self.P, self.Q, self.R, self.S):
            a.flags.writeable = False

    def lhs(self) -> np.ndarray:
        """ma_lhs at the state the coefficients were taken from."""
        return self.Q * self.P - self.R * self.R - self.S * self.S


def linearize(u: ScalarField) -> LinearizedCoeffs:
    def d(f, axis, order):
        return derivative(f, axis, order).values

    ux = derivative(u, "x", 1)
    return LinearizedCoeffs(
        grid=u.grid,
        P=d(u, "y", 2) + d(u, "t", 2) + d(u, "t", 1) + 1.0,
        Q=d(u, "x", 2) + 1.0,
        R=d(ux, "y", 1),
        S=d(ux, "t", 1),
    )


def ma_lhs(u: ScalarField) -> ScalarField:
    """Left-hand side of the reduced equation."""
    return u.with_values(linearize(u).lhs())


def residual(u: ScalarField, F: ScalarField, coeffs: LinearizedCoeffs | None = None) -> ScalarField:
    """ma_lhs(u) - e^F.  A caller that already holds ``linearize(u)`` passes
    it as ``coeffs``."""
    if u.grid != F.grid:
        raise GridMismatchError("residual: u and F live on different grids")
    c = linearize(u) if coeffs is None else coeffs
    return u.with_values(c.lhs() - np.exp(F.values))


def continuity_datum(F: ScalarField, tau: float) -> ScalarField:
    """Continuity-path datum F_tau = log(1 - tau + tau e^F).

    Preserves the normalization: the integral of e^{F_tau} equals the box
    volume whenever the integral of e^F does.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if tau == 0.0:
        return F.with_values(np.zeros(F.grid.shape))
    if tau == 1.0:
        return F  # keep the endpoint datum bitwise exact
    return F.with_values(np.log1p(tau * np.expm1(F.values)))


def renormalize(F: ScalarField) -> ScalarField:
    """Shift F by a constant so the integral of e^F equals the box volume."""
    shift = float(np.log(mean(F.with_values(np.exp(F.values)))))
    return F - shift


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

    ``right_inverse`` is an array broadcastable over the ``rfftn`` layout of
    the grid.  It multiplies the spectrum of w before the four ``irfftn``, so
    a right-preconditioned apply costs the same five transforms as a plain one.
    """
    if c.grid != w.grid:
        raise GridMismatchError("apply_linearized: coefficient/argument grid mismatch")
    shape = w.grid.shape
    symbols = operator_symbols(w.grid)
    spec = np.fft.rfftn(w.values)
    if right_inverse is not None:
        spec *= right_inverse

    def part(symbol):
        return np.fft.irfftn(spec * symbol, s=shape, axes=(0, 1, 2))

    return w.with_values(
        c.P * part(symbols.xx)
        + c.Q * part(symbols.yy_tt_t)
        - 2.0 * (c.R * part(symbols.xy))
        - 2.0 * (c.S * part(symbols.xt))
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
    state is far from a solution.  The report never aborts: it is a
    diagnostic for Newton iterates, which are not solutions.  A caller that
    already holds ``linearize(u)`` passes it as ``coeffs``.
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


def ellipticity_report(
    u: ScalarField,
    F: ScalarField,
    coeffs: LinearizedCoeffs | None = None,
) -> EllipticityReport:
    if u.grid != F.grid:
        raise GridMismatchError("ellipticity_report: grid mismatch")
    c = linearize(u) if coeffs is None else coeffs
    min_q = float(np.min(c.Q))
    min_p = float(np.min(c.P))
    trace = c.P + c.Q
    min_trace = float(np.min(trace))
    ef = np.exp(F.values)
    disc = trace * trace - 4.0 * ef
    clamped = bool(np.any(disc < 0.0))
    lam = 0.5 * (trace - np.sqrt(np.maximum(disc, 0.0)))
    min_lambda = float(np.min(lam))
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
    return _SOLUTION_TOL_FACTOR * max(1.0, float(np.max(np.exp(F.values))))
