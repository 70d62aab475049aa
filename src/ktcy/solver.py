"""Grid-sequenced damped inexact Newton solver with preconditioned Krylov
steps and a continuity-method fallback.

The path datum is F_tau = log(1 - tau + tau e^F), whose solution at tau = 0
is u = 0.  The march tries the whole path first: its first attempt is a
damped Newton solve of the full datum (tau = 1) from u = 0, which converges
on most data.  Only a failed attempt halves the tau step, and an attempt of
at most three Newton iterations doubles it again.  The path is the proof's
device, not a requirement: the solution is unique, so any start that
converges gives it (Deuflhard's globalized Newton, with continuation kept as
the fallback).

The march need not run on the requested grid.  Each datum has exactly one
solution, so any good start will do (nested iteration, as in Kelley's and
Deuflhard's Newton texts).  When F is resolved on an odd grid of about half
the size per axis (restriction then prolongation gives F back to
newton_tol), ``solve`` marches there, spectrally prolongs the solution and
finishes with one Newton attempt on the requested grid.  Odd grids have no
Nyquist mode, so discrete integration by parts holds exactly there and the
coarse march has no mean-residual floor.  If the datum is not resolved, or
either stage fails, the march runs on the requested grid from u = 0, so the
sequencing never loses a solve.

Each Newton
step solves the linearized equation L w = -residual in the mean-zero
subspace by GMRES restarted every 50 iterations, at most 12 cycles,
right-preconditioned by K = M^{-1} D^{-1}.
M is the constant-coefficient operator

    M w = Pbar w_xx + Qbar (w_yy + w_tt + w_t)

with Pbar, Qbar the grid means of the linearization coefficients.  It is
diagonal in Fourier space, built from the same ``operator_symbols`` table
as the linearized apply, and nonsingular on mean-zero functions; its zero
mode is pinned to 0.  D multiplies by the trace ratio
d = (P + Q) / (Pbar + Qbar), which M cannot see: where P and Q vary
together, L is close to d M, so L K is close to the identity; on the flat
state d = 1 and K = M^{-1}.  On large data this about halves the Krylov work
(Saad, *Iterative Methods for Sparse Linear Systems*, 2003, section 9.3, on
right preconditioning).  The first-order term makes L non-symmetric, hence a
residual-minimizing Krylov method.  GMRES runs on L K: each application
divides its vector by d and passes the inverse symbol of M to
``apply_linearized``, which applies it between its forward and inverse
transforms, and w = M^{-1}(y / d) is recovered once at the end.  GMRES
therefore stops on the true linear residual ||b - L w||_2.

The Newton loop solves each system only as accurately as the step needs
(inexact Newton).  Step k asks GMRES for the relative tolerance eta_k of
Eisenstat and Walker's choice 2 on the sup residuals r_k:

    eta_0 = 0.1,   eta_k = 0.9 (r_k / r_{k-1})^2,

raised to 0.9 eta_{k-1}^2 when that exceeds 0.1, capped at 0.1, and floored
at max(1e-9, 0.5 newton_tol / r_k).  The constant 1e-9 is thus the tightest
tolerance any linear solve is asked for; a direct ``newton_step`` call
without a forcing term solves to it.  The step is damped by a backtracking
line search that halves its length, at most 10 times, until the sup
residual decreases and the state stays in the elliptic cone.

The solver has three settings, in :class:`SolverConfig`: the accuracy
``newton_tol`` and the budgets ``newton_max_iters`` (Newton steps per
attempt) and ``tau_min_step`` (the smallest tau step before the march
stalls).  The paper's solution is unique, so the rest of the policy is
fixed: the constants below.

Each state is linearized once.  The coefficients of an accepted state
travel with it to the next Newton step, into the next tau attempt (they do
not depend on the datum) and into the ellipticity report of the attempt.
After a failed attempt, the state kept is linearized for its record, and
that starts the next attempt.  A Newton step works on the coefficient
arrays and builds fields only for new states and the linear solve's
right-hand side.  An attempt takes at most ``newton_max_iters`` steps.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .field import (
    GridMismatchError,
    GridSpec,
    ScalarField,
    integrate,
    operator_symbols,
    project_mean_zero,
    resample,
)
from .pde import (
    LinearizedCoeffs,
    apply_linearized,
    continuity_datum,
    ellipticity_report,
    linearize,
    renormalize,
    residual,
)

_KRYLOV_TOL = 1e-9  # floor of the forcing terms: the tightest linear solve asked for
_GMRES_RESTART = 50
_GMRES_MAX_CYCLES = 12  # at most 600 operator applications per linear solve
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 10
_ETA_MAX = 0.1  # cap and first value of the forcing terms
_EW_GAMMA = 0.9


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
class SolverConfig:
    grid: GridSpec
    newton_tol: float = 1e-11
    newton_max_iters: int = 30
    tau_min_step: float = 1e-4

    def __post_init__(self):
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if not 0.0 < self.tau_min_step <= 1.0:
            raise ValueError("tau_min_step must lie in (0, 1]")
        if self.newton_max_iters < 1:
            raise ValueError("newton_max_iters must be >= 1")


@dataclass(frozen=True)
class NewtonStepResult:
    u_next: ScalarField
    krylov_iters: int
    step_norm: float
    residual_sup: float  # sup |residual| at u_next
    start_residual_sup: float  # sup |residual| at the start state u
    krylov_rtol: float  # relative tolerance of the linear solve, 0 if none ran
    coeffs: LinearizedCoeffs  # linearize(u_next), for the next step to reuse


@dataclass(frozen=True)
class TraceRecord:
    tau: float
    newton_iters: int
    final_residual_sup: float
    lambda_min: float
    failure: str | None  # SolverError class that ended the attempt, None if accepted
    krylov_applications: int  # operator applications over the attempt's linear solves
    grid: tuple  # shape of the grid the attempt ran on

    @property
    def accepted(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class ContinuityTrace:
    records: tuple

    @property
    def accepted(self) -> tuple:
        return tuple(r for r in self.records if r.accepted)


@dataclass(frozen=True)
class SolveReport:
    u: ScalarField
    trace: ContinuityTrace
    estimates: "EstimateReport"  # noqa: F821  (estimates module)
    coarse_grid: tuple | None = None  # shape of the continuation grid when sequenced
    coarse_fine_sup: float | None = None  # sup |u - prolonged coarse u| when sequenced

    @property
    def final_residual_sup(self) -> float:
        return self.trace.accepted[-1].final_residual_sup


def _sup(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


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
    rtol: float = _KRYLOV_TOL,
) -> tuple[ScalarField, int]:
    """Solve L w = rhs for mean-zero w by right-preconditioned restarted GMRES.

    GMRES runs on L K with K = M^{-1} D^{-1}: D multiplies by the trace ratio
    d = (P + Q) / (Pbar + Qbar), and M is the grid-mean operator.  Where P and
    Q vary together L is close to d M, and on the flat state d = 1.  Raises
    EllipticityLost when min(P + Q) <= 0, where D^{-1} is undefined.  Stops
    once ||b - L w||_2 <= rtol ||b||_2, b the mean-zero part of rhs, and
    raises KrylovStalled after 12 cycles of 50 iterations.  rtol defaults to
    1e-9, the floor of the Newton loop's forcing terms.  Returns the solution
    and the number of operator applications.
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    grid = rhs.grid
    shape = grid.shape
    n = rhs.values.size
    trace = coeffs.P + coeffs.Q
    min_trace = float(np.min(trace))
    if not min_trace > 0.0:
        raise EllipticityLost(f"min(P + Q) = {min_trace:.3e}: no trace-scaled preconditioner")
    d = trace / float(np.mean(trace))
    inv_symbol = _precond_inverse_symbol(grid, float(np.mean(coeffs.P)), float(np.mean(coeffs.Q)))

    applications = [0]

    def matvec(v):
        # restriction of L K to the mean-zero subspace: without the output
        # projection, Nyquist-mode aliasing leaks a tiny constant component
        # that the mean-pinned M^{-1} can never remove, and GMRES stalls just
        # above tolerance
        applications[0] += 1
        y = ScalarField(grid, v.reshape(shape) / d)
        out = apply_linearized(coeffs, y, right_inverse=inv_symbol).values
        return (out - np.mean(out)).ravel()

    A = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    b = (rhs.values - np.mean(rhs.values)).ravel()
    y, info = gmres(A, b, rtol=rtol, atol=0.0, restart=_GMRES_RESTART, maxiter=_GMRES_MAX_CYCLES)
    if info != 0:
        raise KrylovStalled(
            f"GMRES returned info={info} after {applications[0]} operator applications"
        )
    spec = np.fft.rfftn(y.reshape(shape) / d) * inv_symbol
    w = np.fft.irfftn(spec, s=shape, axes=(0, 1, 2))
    return project_mean_zero(ScalarField(grid, w)), applications[0]


def newton_step(
    u: ScalarField,
    F_target: ScalarField,
    cfg: SolverConfig,
    forcing: float | None = None,
    coeffs: LinearizedCoeffs | None = None,
) -> NewtonStepResult:
    """One damped Newton step toward ma_lhs(u) = e^{F_target}.

    Refuses to step from an inadmissible state (EllipticityLost).  The
    backtracking line search halves the step length, at most 10 times, until
    the trial state decreases the sup residual strictly (or meets
    ``newton_tol``) with min Q and min P positive, and raises
    LineSearchFailed when none does: no trial state outside the cone is ever
    returned.  One ``linearize`` per state gives the admissibility test, the
    residual and the Newton system; ``coeffs``, when given, must be
    ``linearize(u)`` (the ``coeffs`` of the step that produced u: they do not
    depend on the datum) and saves that call.  The linear solve runs to
    ``forcing``, floored at max(1e-9, 0.5 newton_tol / r) with r the sup
    residual at u, or to 1e-9 when no forcing is given.  A state that already
    meets ``newton_tol`` comes back unchanged with no Krylov work.
    """
    if u.grid != cfg.grid:
        raise GridMismatchError("newton_step: state grid differs from config grid")
    ef = np.exp(F_target.values)
    if coeffs is None:
        coeffs = linearize(u)
    min_q, min_p = float(np.min(coeffs.Q)), float(np.min(coeffs.P))
    if not (min_q > 0.0 and min_p > 0.0):
        raise EllipticityLost(
            f"min(u_xx + 1) = {min_q:.3e}, "
            f"min(u_yy + u_tt + u_t + 1) = {min_p:.3e}"
        )
    res = coeffs.lhs() - ef
    res_sup = _sup(res)
    if res_sup <= cfg.newton_tol:
        return NewtonStepResult(u, 0, 0.0, res_sup, res_sup, 0.0, coeffs)
    rtol = _KRYLOV_TOL
    if forcing is not None:
        rtol = max(forcing, rtol, 0.5 * cfg.newton_tol / res_sup)
    w, krylov_iters = solve_linearized(coeffs, u.with_values(-res), rtol=rtol)

    s = 1.0
    for _ in range(_MAX_BACKTRACKS + 1):
        v = u.values + s * w.values
        u_try = u.with_values(v - np.mean(v))
        trial = linearize(u_try)
        res_try = _sup(trial.lhs() - ef)
        decrease = res_try < res_sup or res_try <= cfg.newton_tol
        if decrease and min(trial.Q.min(), trial.P.min()) > 0.0:
            return NewtonStepResult(
                u_try, krylov_iters, s * _sup(w.values), res_try, res_sup, rtol, trial
            )
        s *= _BACKTRACK_FACTOR
    raise LineSearchFailed(
        f"no admissible decrease down to step factor {s / _BACKTRACK_FACTOR:.3e}"
    )


def _forcing_term(res_sup: float, res_prev: float, eta_prev: float) -> float:
    """Eisenstat-Walker choice 2 (alpha = 2) with its safeguard, capped."""
    eta = _EW_GAMMA * (res_sup / res_prev) ** 2
    safeguard = _EW_GAMMA * eta_prev**2
    if safeguard > 0.1:
        eta = max(eta, safeguard)
    return min(eta, _ETA_MAX)


def _newton_attempt(u0, F_target, cfg, carried):
    """Inexact Newton loop to tolerance, at most ``cfg.newton_max_iters`` steps.

    ``carried`` is a list holding ``linearize(u0)``, or empty.  The attempt
    takes the coefficients out of it and, on success, puts back those of the
    returned state.  Handing them over this way keeps no reference to the
    start coefficients alive past the first accepted step; a caller holding
    its own would keep four more grid fields through every linear solve of
    the attempt.  Returns (failure, u, iters, residual_sup,
    krylov_applications), where failure is None on success, the
    ``SolverError`` a step raised, or a ``NewtonStalled`` when the step
    budget ran out; u is then the last state reached.  The start residual
    comes from the first ``newton_step``, which returns a converged start
    state unchanged.
    """
    u, res_sup, eta, krylov = u0, None, _ETA_MAX, 0
    coeffs = carried.pop() if carried else None
    for it in range(cfg.newton_max_iters):
        try:
            step = newton_step(u, F_target, cfg, forcing=eta, coeffs=coeffs)
        except SolverError as exc:
            if res_sup is None:  # the first step failed: report the start residual
                res_sup = _sup(residual(u, F_target, coeffs).values)
            # without its traceback, whose frames hold the failed step's
            # arrays, the error keeps no grid fields alive in the caller
            return exc.with_traceback(None), u, it, res_sup, krylov
        if step.krylov_iters == 0:  # the start state already meets newton_tol
            carried.append(step.coeffs)
            return None, u, it, step.residual_sup, krylov
        krylov += step.krylov_iters
        eta = _forcing_term(step.residual_sup, step.start_residual_sup, step.krylov_rtol)
        u, res_sup, coeffs = step.u_next, step.residual_sup, step.coeffs
        if res_sup <= cfg.newton_tol:
            carried.append(coeffs)
            return None, u, it + 1, res_sup, krylov
    stalled = NewtonStalled(
        f"sup-residual {res_sup:.3e} after {cfg.newton_max_iters} iterations "
        f"(tol {cfg.newton_tol:.1e})"
    )
    return stalled, u, cfg.newton_max_iters, res_sup, krylov


def _failure_name(failure: SolverError | None) -> str | None:
    return None if failure is None else type(failure).__name__


def newton_solve(u0: ScalarField, F_target: ScalarField, cfg: SolverConfig) -> ScalarField:
    """Plain Newton iteration from a warm start at fixed datum (no path).

    Raises the ``SolverError`` that ended the attempt: ``NewtonStalled``
    when the step budget ran out, otherwise the error of the failed step.
    """
    if u0.grid != cfg.grid:
        raise GridMismatchError("newton_solve: state grid differs from config grid")
    failure, u, _, _, _ = _newton_attempt(project_mean_zero(u0), F_target, cfg, [])
    if failure is not None:
        raise failure
    return u


def check_normalization(F: ScalarField) -> None:
    """Raise NormalizationError unless the integral of e^F equals the box
    volume within 1e-10 relative."""
    volume = F.grid.volume()
    datum_integral = integrate(F.with_values(np.exp(F.values)))
    if abs(datum_integral - volume) > 1e-10 * volume:
        raise NormalizationError(
            f"integral of e^F is {datum_integral:.15g}, expected {volume:.15g}; "
            "the datum is not normalized, renormalize it first"
        )


def _continuation(F: ScalarField, cfg: SolverConfig, records: list):
    """Tau continuation from u = 0 to tau = 1 on ``cfg.grid``.

    The first attempt is at tau = 1, the full datum.  Appends one record per
    tau attempt to ``records``, with the failure that ended it, also when it
    raises.  Doubles the step after any tau accepted with <= 3 Newton
    iterations, halves on failure, and raises ContinuationStalled below
    tau_min_step with the failed attempt's residual.  Returns u and
    ``linearize(u)``.
    """
    u = ScalarField.zeros(F.grid)
    carried = [linearize(u)]  # linearize(u) between tau attempts
    tau = 0.0
    step = 1.0
    while tau < 1.0:
        tau_try = min(1.0, tau + step)
        F_tau = continuity_datum(F, tau_try)
        failure, u_new, iters, rsup, krylov = _newton_attempt(u, F_tau, cfg, carried)
        if failure is None:
            u = u_new
        else:  # the attempt dropped the coefficients of the state kept
            carried.append(linearize(u))
        lam = ellipticity_report(u, F_tau, coeffs=carried[0]).min_lambda
        records.append(
            TraceRecord(tau_try, iters, rsup, lam, _failure_name(failure), krylov, F.grid.shape)
        )
        if failure is None:
            tau = tau_try
            if iters <= 3:
                step = min(2.0 * step, 1.0)
        else:
            step *= 0.5
            if step < cfg.tau_min_step:
                res = residual(u_new, F_tau).values
                res_mean = float(np.mean(res))
                raise ContinuationStalled(
                    f"tau step underflow at tau = {tau:.6f}: the attempt at "
                    f"tau = {tau_try:.6f} ended with residual sup {rsup:.3e} "
                    f"(newton_tol {cfg.newton_tol:.1e}), mean {res_mean:.3e} and "
                    f"sup |residual - mean| {_sup(res - res_mean):.3e}"
                )
    return u, carried[0]


def _is_odd_5_smooth(m: int) -> bool:
    for p in (3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def _coarse_grid(grid: GridSpec) -> GridSpec | None:
    """The odd grid of about half the size that sequencing continues on.

    Each axis of n samples gets the odd 5-smooth size 3^a 5^b nearest n/2
    (ties to the larger), at least 5 and below n: pocketfft is slow on prime
    lengths such as the 17 that n//2 rounded to odd gives for 32 and 34.
    None when some axis has no such size.
    """
    shape = []
    for n in grid.shape:
        sizes = [m for m in range(5, n, 2) if _is_odd_5_smooth(m)]
        if not sizes:
            return None
        shape.append(min(sizes, key=lambda m: (abs(2 * m - n), -m)))
    return GridSpec(*shape, *grid.periods)


def _sequenced(F: ScalarField, cfg: SolverConfig, records: list):
    """Continuation on the coarse grid, then one Newton attempt on cfg.grid.

    Appends the records of both stages to ``records``.  Returns (u,
    linearize(u), coarse grid shape, sup |u - prolonged coarse u|), or None
    when F is not resolved on the coarse grid or either stage fails.
    """
    coarse = _coarse_grid(F.grid)
    if coarse is None:
        return None
    F_coarse = resample(F, coarse)
    if _sup(resample(F_coarse, F.grid).values - F.values) > cfg.newton_tol:
        return None
    try:
        u_coarse, _ = _continuation(renormalize(F_coarse), replace(cfg, grid=coarse), records)
    except SolverError:
        return None
    u0 = project_mean_zero(resample(u_coarse, F.grid))
    carried = []
    failure, u, iters, rsup, krylov = _newton_attempt(u0, F, cfg, carried)
    lam = ellipticity_report(u, F, coeffs=carried[0] if carried else None).min_lambda
    records.append(TraceRecord(1.0, iters, rsup, lam, _failure_name(failure), krylov, F.grid.shape))
    if failure is not None:
        return None
    return u, carried[0], coarse.shape, _sup(u.values - u0.values)


def solve(F: ScalarField, cfg: SolverConfig) -> SolveReport:
    """Solve ma_lhs(u) = e^F for mean-zero u by grid sequencing, or by
    continuation alone.

    Requires the datum normalization (:func:`check_normalization`).  A datum
    that u = 0 already solves returns at once.  When F is resolved on the
    coarse grid (restriction then prolongation reproduces it to newton_tol),
    the tau continuation runs on that grid for the renormalized restriction
    of F, its solution is spectrally prolonged to cfg.grid, and one Newton
    attempt finishes there.  If F is not resolved, the coarse continuation
    fails or the fine Newton attempt fails, the continuation runs on cfg.grid
    from u = 0.  Either way the result meets newton_tol on cfg.grid; the
    trace keeps every attempt, each with its grid.  The returned report
    carries the full a-priori estimate audit.
    """
    from .estimates import verify

    if F.grid != cfg.grid:
        raise GridMismatchError("solve: datum grid differs from config grid")
    check_normalization(F)

    res_sup = _sup(1.0 - np.exp(F.values))  # ma_lhs(0) = 1
    if res_sup <= cfg.newton_tol:
        u = ScalarField.zeros(F.grid)
        estimates = verify(u, F)
        record = TraceRecord(1.0, 0, res_sup, estimates.ellipticity.min_lambda, None, 0, F.grid.shape)
        return SolveReport(u, ContinuityTrace((record,)), estimates)

    records = []
    sequenced = _sequenced(F, cfg, records)
    if sequenced is None:
        u, coeffs = _continuation(F, cfg, records)
        coarse_grid = coarse_fine_sup = None
    else:
        u, coeffs, coarse_grid, coarse_fine_sup = sequenced
    estimates = verify(u, F, coeffs=coeffs)
    return SolveReport(u, ContinuityTrace(tuple(records)), estimates, coarse_grid, coarse_fine_sup)
