"""Continuity-method solver with damped inexact Newton and preconditioned Krylov steps.

The path datum is F_tau = log(1 - tau + tau e^F), starting from the exact
solution u = 0 at tau = 0 and marching adaptively to tau = 1.  Each Newton
step solves the linearized equation L w = -residual in the mean-zero
subspace by restarted GMRES, right-preconditioned by the constant-coefficient
operator

    M w = Pbar w_xx + Qbar (w_yy + w_tt + w_t)

with Pbar, Qbar the grid means of the linearization coefficients.  M is
diagonal in Fourier space, built from the same ``operator_symbols`` table
as the linearized apply, and nonsingular on mean-zero functions; its zero
mode is pinned to 0.  The first-order term makes L non-symmetric, hence a
residual-minimizing Krylov method.  GMRES runs on L M^{-1}: the inverse
symbol of M is passed to ``apply_linearized``, which applies it between its
forward and inverse transforms, and w = M^{-1} y is recovered once at the
end.  GMRES therefore stops on the true linear residual ||b - L w||_2.

The Newton loop solves each system only as accurately as the step needs
(inexact Newton).  Step k asks GMRES for the relative tolerance eta_k of
Eisenstat and Walker's choice 2 on the sup residuals r_k:

    eta_0 = 0.1,   eta_k = 0.9 (r_k / r_{k-1})^2,

raised to 0.9 eta_{k-1}^2 when that exceeds 0.1, capped at 0.1, and floored
at max(krylov_tol, 0.5 newton_tol / r_k).  ``krylov_tol`` is thus the
tightest tolerance any linear solve is asked for; a direct ``newton_step``
call without a forcing term solves to it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .field import (
    GridMismatchError,
    GridSpec,
    ScalarField,
    integrate,
    operator_symbols,
    project_mean_zero,
)
from .pde import (
    LinearizedCoeffs,
    apply_linearized,
    continuity_datum,
    ellipticity_report,
    linearize,
    residual,
)


class SolverError(Exception):
    """Base class for solver failures."""


class KrylovStalled(SolverError):
    """Linear solve did not reach tolerance within the iteration budget."""


class LineSearchFailed(SolverError):
    """No backtracking step length reduced the residual admissibly."""


class EllipticityLost(SolverError):
    """Newton step refused: the state left the admissible cone."""


class NewtonStalled(SolverError):
    """Newton loop exhausted its iteration budget."""


class NormalizationError(SolverError):
    """Datum violates the volume normalization of e^F."""


class ContinuationStalled(SolverError):
    """tau step underflow: the datum is numerically out of reach here."""


@dataclass(frozen=True)
class DampingConfig:
    enabled: bool = True
    factor: float = 0.5
    max_backtracks: int = 10

    def __post_init__(self):
        if not 0.0 < self.factor < 1.0:
            raise ValueError("backtracking factor must lie in (0, 1)")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be >= 0")


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    newton_tol: float = 1e-11
    newton_max_iters: int = 30
    krylov_tol: float = 1e-9
    krylov_max_iters: int = 600
    tau_initial_step: float = 0.25
    tau_min_step: float = 1e-4
    damping: DampingConfig = dataclass_field(default_factory=DampingConfig)

    def __post_init__(self):
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if not 0.0 < self.krylov_tol < 1.0:
            raise ValueError("krylov_tol must lie in (0, 1)")
        for name in ("tau_initial_step", "tau_min_step"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.newton_max_iters < 1 or self.krylov_max_iters < 1:
            raise ValueError("iteration budgets must be >= 1")


@dataclass(frozen=True)
class NewtonStepResult:
    u_next: ScalarField
    krylov_iters: int
    step_norm: float
    residual_sup: float  # sup |residual| at u_next
    start_residual_sup: float  # sup |residual| at the start state u
    krylov_rtol: float  # relative tolerance of the linear solve, 0 if none ran


@dataclass(frozen=True)
class TraceRecord:
    tau: float
    newton_iters: int
    final_residual_sup: float
    lambda_min: float
    accepted: bool
    krylov_applications: int  # operator applications over the attempt's linear solves


@dataclass(frozen=True)
class ContinuityTrace:
    records: tuple

    @property
    def accepted(self) -> tuple:
        return tuple(r for r in self.records if r.accepted)

    @property
    def final_tau(self) -> float:
        acc = self.accepted
        return acc[-1].tau if acc else 0.0


@dataclass(frozen=True)
class SolveReport:
    u: ScalarField
    trace: ContinuityTrace
    estimates: "EstimateReport"  # noqa: F821  (estimates module)

    @property
    def final_residual_sup(self) -> float:
        return self.trace.accepted[-1].final_residual_sup


def _sup(u: ScalarField) -> float:
    return float(np.max(np.abs(u.values)))


def _precond_inverse_symbol(grid: GridSpec, pbar: float, qbar: float) -> np.ndarray:
    """Inverse Fourier symbol of M on the rfftn layout, zero mode pinned.

    Built from the symbols of the linearized apply, so M inverts the
    flat-case linearization in a single Krylov iteration.
    """
    symbols = operator_symbols(grid)
    symbol = pbar * symbols.xx + qbar * symbols.yy_tt_t
    symbol[0, 0, 0] = 1.0
    inverse = 1.0 / symbol
    inverse[0, 0, 0] = 0.0
    return inverse


def solve_linearized(
    coeffs: LinearizedCoeffs,
    rhs: ScalarField,
    cfg: SolverConfig,
    rtol: float | None = None,
) -> tuple[ScalarField, int]:
    """Solve L w = rhs for mean-zero w by right-preconditioned restarted GMRES.

    Stops once ||b - L w||_2 <= rtol ||b||_2, b the mean-zero part of rhs;
    rtol defaults to ``cfg.krylov_tol``.  Returns the solution and the number
    of operator applications.
    """
    grid = rhs.grid
    shape = grid.shape
    n = rhs.values.size
    pbar = float(np.mean(coeffs.P.values))
    qbar = float(np.mean(coeffs.Q.values))
    inv_symbol = _precond_inverse_symbol(grid, pbar, qbar)

    applications = [0]

    def matvec(v):
        # restriction of L M^{-1} to the mean-zero subspace: without the
        # output projection, Nyquist-mode aliasing leaks a tiny constant
        # component that the mean-pinned M^{-1} can never remove, and GMRES
        # stalls just above tolerance
        applications[0] += 1
        y = ScalarField(grid, v.reshape(shape))
        out = apply_linearized(coeffs, y, right_inverse=inv_symbol).values
        return (out - np.mean(out)).ravel()

    A = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    b = project_mean_zero(rhs).values.ravel()
    restart = min(50, cfg.krylov_max_iters)
    maxiter = math.ceil(cfg.krylov_max_iters / restart)
    if rtol is None:
        rtol = cfg.krylov_tol
    y, info = gmres(A, b, rtol=rtol, atol=0.0, restart=restart, maxiter=maxiter)
    if info != 0:
        raise KrylovStalled(
            f"GMRES returned info={info} after {applications[0]} operator applications"
        )
    spec = np.fft.rfftn(y.reshape(shape)) * inv_symbol
    w = np.fft.irfftn(spec, s=shape, axes=(0, 1, 2))
    return project_mean_zero(ScalarField(grid, w)), applications[0]


def newton_step(
    u: ScalarField,
    F_target: ScalarField,
    cfg: SolverConfig,
    forcing: float | None = None,
) -> NewtonStepResult:
    """One damped Newton step toward ma_lhs(u) = e^{F_target}.

    Refuses to step from an inadmissible state (EllipticityLost).  The
    backtracking line search requires a strict sup-residual decrease and
    keeps min Q and min P positive.  One ``linearize`` per state gives the
    admissibility test, the residual and the Newton system.  The linear solve
    runs to ``forcing``, floored at max(krylov_tol, 0.5 newton_tol / r) with
    r the sup residual at u, or to ``krylov_tol`` when no forcing is given.
    A state that already meets ``newton_tol`` comes back unchanged with no
    Krylov work.
    """
    if u.grid != cfg.grid:
        raise GridMismatchError("newton_step: state grid differs from config grid")
    ef = F_target.with_values(np.exp(F_target.values))
    coeffs = linearize(u)
    min_q, min_p = float(np.min(coeffs.Q.values)), float(np.min(coeffs.P.values))
    if not (min_q > 0.0 and min_p > 0.0):
        raise EllipticityLost(
            f"min(u_xx + 1) = {min_q:.3e}, "
            f"min(u_yy + u_tt + u_t + 1) = {min_p:.3e}"
        )
    res = coeffs.lhs() - ef
    res_sup = _sup(res)
    if res_sup <= cfg.newton_tol:
        return NewtonStepResult(u, 0, 0.0, res_sup, res_sup, 0.0)
    rtol = cfg.krylov_tol
    if forcing is not None:
        rtol = max(forcing, rtol, 0.5 * cfg.newton_tol / res_sup)
    w, krylov_iters = solve_linearized(coeffs, -res, cfg, rtol=rtol)

    if not cfg.damping.enabled:
        u_next = project_mean_zero(u + w)
        res_next = _sup(residual(u_next, F_target))
        return NewtonStepResult(u_next, krylov_iters, _sup(w), res_next, res_sup, rtol)

    s = 1.0
    for _ in range(cfg.damping.max_backtracks + 1):
        u_try = project_mean_zero(u + s * w)
        trial = linearize(u_try)
        if np.min(trial.Q.values) > 0.0 and np.min(trial.P.values) > 0.0:
            res_try = _sup(trial.lhs() - ef)
            if res_try < res_sup or res_try <= cfg.newton_tol:
                return NewtonStepResult(
                    u_try, krylov_iters, s * _sup(w), res_try, res_sup, rtol
                )
        s *= cfg.damping.factor
    raise LineSearchFailed(
        f"no admissible decrease down to step factor {s / cfg.damping.factor:.3e}"
    )


_ETA_MAX = 0.1  # cap and first value of the forcing terms
_EW_GAMMA = 0.9


def _forcing_term(res_sup: float, res_prev: float, eta_prev: float) -> float:
    """Eisenstat-Walker choice 2 (alpha = 2) with its safeguard, capped."""
    eta = _EW_GAMMA * (res_sup / res_prev) ** 2
    safeguard = _EW_GAMMA * eta_prev**2
    if safeguard > 0.1:
        eta = max(eta, safeguard)
    return min(eta, _ETA_MAX)


def _newton_attempt(u0, F_target, cfg):
    """Inexact Newton loop to tolerance.

    Returns (ok, u, iters, residual_sup, krylov_applications).  The start
    residual comes from the first ``newton_step``, which returns a
    converged start state unchanged.
    """
    u, res_sup, eta, krylov = u0, None, _ETA_MAX, 0
    for it in range(cfg.newton_max_iters + 1):
        if res_sup is not None and res_sup <= cfg.newton_tol:
            return True, u, it, res_sup, krylov
        try:
            step = newton_step(u, F_target, cfg, forcing=eta)
        except SolverError:
            if res_sup is None:  # the first step failed: report the start residual
                res_sup = _sup(residual(u, F_target))
            return False, u, it, res_sup, krylov
        if step.krylov_iters == 0:  # the start state already meets newton_tol
            return True, u, it, step.residual_sup, krylov
        krylov += step.krylov_iters
        eta = _forcing_term(step.residual_sup, step.start_residual_sup, step.krylov_rtol)
        u, res_sup = step.u_next, step.residual_sup
    return False, u, cfg.newton_max_iters, res_sup, krylov


def newton_solve(u0: ScalarField, F_target: ScalarField, cfg: SolverConfig) -> ScalarField:
    """Plain Newton iteration from a warm start at fixed datum (no path)."""
    if u0.grid != cfg.grid:
        raise GridMismatchError("newton_solve: state grid differs from config grid")
    ok, u, iters, res_sup, _ = _newton_attempt(project_mean_zero(u0), F_target, cfg)
    if not ok:
        raise NewtonStalled(
            f"sup-residual {res_sup:.3e} after {iters} iterations (tol {cfg.newton_tol:.1e})"
        )
    return u


def solve(F: ScalarField, cfg: SolverConfig) -> SolveReport:
    """Continuity-method solve of ma_lhs(u) = e^F with mean-zero u.

    Requires the datum normalization: the integral of e^F over the box must
    equal the box volume (within 1e-10 relative).  Advances tau adaptively:
    doubles the step after any tau accepted with <= 3 Newton iterations,
    halves on failure, and fails below tau_min_step.  The returned report
    carries the full a-priori estimate audit.
    """
    from .estimates import verify

    if F.grid != cfg.grid:
        raise GridMismatchError("solve: datum grid differs from config grid")
    volume = F.grid.volume()
    datum_integral = integrate(F.with_values(np.exp(F.values)))
    if abs(datum_integral - volume) > 1e-10 * volume:
        raise NormalizationError(
            f"integral of e^F is {datum_integral:.15g}, expected {volume:.15g}; "
            "renormalize the datum first"
        )

    u = ScalarField.zeros(F.grid)
    records = []

    res_sup = _sup(residual(u, F))
    if res_sup <= cfg.newton_tol:
        lam = ellipticity_report(u, F).min_lambda
        records.append(TraceRecord(1.0, 0, res_sup, lam, True, 0))
        trace = ContinuityTrace(tuple(records))
        return SolveReport(u, trace, verify(u, F))

    tau = 0.0
    step = cfg.tau_initial_step
    while tau < 1.0:
        tau_try = min(1.0, tau + step)
        F_tau = continuity_datum(F, tau_try)
        ok, u_new, iters, rsup, krylov = _newton_attempt(u, F_tau, cfg)
        lam = ellipticity_report(u_new if ok else u, F_tau).min_lambda
        records.append(TraceRecord(tau_try, iters, rsup, lam, ok, krylov))
        if ok:
            tau = tau_try
            u = u_new
            if iters <= 3:
                step = min(2.0 * step, 1.0)
        else:
            step *= 0.5
            if step < cfg.tau_min_step:
                raise ContinuationStalled(
                    f"tau step underflow at tau = {tau:.6f} "
                    f"(residual {rsup:.3e} vs newton_tol {cfg.newton_tol:.1e} "
                    f"at tau = {tau_try:.6f}; for large data the sup-residual "
                    "rounding floor scales with sup e^F)"
                )
    trace = ContinuityTrace(tuple(records))
    return SolveReport(u, trace, verify(u, F))
