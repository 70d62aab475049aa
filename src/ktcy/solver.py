"""Grid-sequenced damped inexact Newton solver with preconditioned Krylov
steps and a continuity-method fallback.

Every solve is one move: a start from a cheaper problem, finished by one
Newton attempt on the requested grid.  ``_solve`` is the one driver.  It
finishes the first start that one attempt completes, runs the continuation
from u = 0 on the requested grid when none does, and audits the result once
into the one :class:`SolveReport`.  ``solve`` has one start, the coarse
continuation below; :func:`~ktcy.rotation.solve_rotated` tries the datum's
unit grid in the rotated frame first; ``newton_solve`` is the finishing
attempt alone, from the start it is given.  Every stage, the finishing
attempt included, signals failure by raising a ``SolverError``, and the
driver then moves on to the next start.

The solver carries the target g = e^F, an array computed once per grid
where F comes in (the driver, the coarse start, ``newton_solve`` and the
rotated unit-grid start); the continuation, the polish and the Newton
attempt take g and never exponentiate F again.  The path target is

    e^{F_tau} = 1 - tau + tau e^F,

the convex homotopy of Allgower and Georg (*Introduction to Numerical
Continuation Methods*, SIAM 2003) written on the target itself: its mean is
1 at every tau, as e^F's is by the normalization, and its solution at
tau = 0 is u = 0.  The march tries the whole path first: its first attempt
is a damped Newton solve of the full datum (tau = 1) from u = 0, which
converges on most data.  Only a failed attempt halves the tau step, and an
attempt of at most three Newton iterations doubles it again.  The path is
the proof's device, not a requirement: the solution is unique, so any start
that converges gives it (Deuflhard's globalized Newton, with continuation
kept as the fallback).

The march need not run on the requested grid.  Each datum has exactly one
solution, so any good start will do (nested iteration, as in Kelley's and
Deuflhard's Newton texts).  When F is resolved on an odd grid of about half
the size per axis (restriction then prolongation gives F back to
newton_tol), the start marches there and spectrally prolongs the solution,
and one Newton attempt finishes it on the requested grid.  The coarse
march solves only as far as its grid can tell: its attempt at tau = 1 ends
once the next Newton correction it predicts, sup |w_k|^2 / sup |w_{k-1}|
after a full step k >= 2, is at most the largest coefficient on the coarse
grid's outermost Fourier shell, that grid's own truncation error
(Deuflhard, *Newton Methods for Nonlinear Problems*, Springer 2004, on
nested iteration).  Prolongation leaves a fine residual of the truncation
error's size whatever the coarse residual, so the steps this saves would
not shorten the finish: on the benchmark's large-amplitude 32^3 data the
15^3 march takes 5 Newton steps instead of 7, and the 32^3 finish the same
3.  A datum resolved on the coarse grid has its outermost shell at
rounding level, and its march runs to newton_tol as before.  Odd grids have
no Nyquist mode, so discrete integration by parts holds exactly there and
the coarse march has no mean-residual floor.  If the datum is not resolved,
or either stage fails, the march runs on the requested grid from u = 0, so
the sequencing never loses a solve, and every solve meets newton_tol on the
requested grid.  On a grid with an even axis, a failed
attempt whose residual is all mean (sup |res - mean| <= newton_tol < mean)
ends the march at once with ``NyquistFloor``: that mean is the solution's
energy on the Nyquist planes, which the mean-zero Newton update cannot
remove at any tau.

Each Newton
step solves the linearized equation L w = -residual in the mean-zero
subspace by GMRES restarted every 50 iterations, at most 12 cycles,
right-preconditioned by K = M^{-1} D^{-1}.
M is the constant-coefficient operator

    M w = Pbar w_xx + Qbar (w_yy + w_tt + w_t)

with Pbar, Qbar the grid means of the linearization coefficients.  It is
diagonal in Fourier space, and nonsingular on mean-zero functions.
:class:`~ktcy.pde.MeanPreconditioner` builds it, once per linear solve, in
the frame of the coefficients and from the same ``operator_symbols`` table
as the linearized apply, with the zero mode pinned to 0.  D multiplies by
the trace ratio d = (P + Q) / (Pbar + Qbar), which M cannot see: where P
and Q vary together, L is close to d M, so L K is close to the identity; on
the flat state d = 1 and K = M^{-1}.  On large data this about halves the
Krylov work (Saad, *Iterative Methods for Sparse Linear Systems*, 2003,
section 9.3, on right preconditioning).  The first-order term makes L
non-symmetric, hence a residual-minimizing Krylov method.  GMRES runs on
L K: each application divides its vector by d and passes the preconditioner
to ``apply_linearized``, which folds M^{-1} into L and applies L M^{-1} in
one forward and three inverse transforms, and w = M^{-1}(y / d) is
recovered once at the end, so ||b - L K y||_2 is the residual ||b - L w||_2
of the Newton system itself.  GMRES is the solver's own, ``_gmres``: it
stops on its least-squares residual, which equals ||b - L K y||_2 in exact
arithmetic (Saad, Prop. 6.9; Kelley's ``nsoli`` in *Solving Nonlinear
Equations with Newton's Method*, SIAM 2003, stops on it too), and spends no
operator application to confirm it.  A restart starts from the true
residual.

The preconditioned operator runs in float32 when a solve asks for
rtol >= 1e-5 (mixed-precision inexact Newton: Kelley, *Newton's method in
mixed precision*, SIAM Review 64, 2022).  On the first three data of each
benchmark workload, 80 of the 81 linear solves did; the smallest forcing
term there was 9.1e-6.  The preconditioner is then built in float32, and
both the applications and the recovery of w transform in single precision
through :mod:`ktcy.field`: such a linear solve takes no float64 transform.
GMRES itself and the mean projection of each application stay float64, as
does every other computation: the residual, ``linearize``, the line search
and the audit.  The float64 residual fixes the Newton fixed point, so the
answer does not change.  Below 1e-5 the operator and the recovery are
float64.  GMRES stops on the least-squares residual of the operator it
applies, and the float64 ||b - L w||_2 still met rtol ||b||_2 in every
linear solve measured: at most 0.959 rtol ||b||_2 in the 81 solves above,
and at most 0.987 rtol ||b||_2 in the 48 solves of two hard 25^3 data, the
renormalized 8 sin 2 pi x sin 2 pi y sin 2 pi t and ``random_band_limited``
of seed 7, max_mode 3 and amplitude 4.

The Newton loop solves each system only as accurately as the step needs
(inexact Newton).  Step k asks GMRES for the relative tolerance eta_k of
Eisenstat and Walker's choice 2 on the sup residuals r_k:

    eta_0 = 0.1,   eta_k = 0.9 (r_k / r_{k-1})^2,

raised to 0.9 eta_{k-1}^2 when that exceeds 0.1, capped at 0.1, and floored
at max(1e-9, 0.5 newton_tol / r_k).  The constant 1e-9 is thus the tightest
tolerance any linear solve is asked for, and the default of
``solve_linearized``.  The step is damped by a backtracking line search that
halves its length, at most 10 times, until the sup residual decreases and
the state stays in the elliptic cone; when no length does,
``LineSearchFailed`` names the last trial's residual, min Q and min P.

Everything a Newton step does runs in the frame of the coefficients it is
given (see :func:`~ktcy.pde.linearize`).  ``solve`` works in the grid's own
frame; :func:`~ktcy.rotation.solve_rotated` starts in a rotated frame on
the unit grid of its datum, and the sequencing below runs there too.

The solver has three settings, in :class:`SolverConfig`: the accuracy
``newton_tol`` and the budgets ``newton_max_iters`` (Newton steps per
attempt) and ``tau_min_step`` (the smallest tau step before the march
stalls).  The paper's solution is unique, so the rest of the policy is
fixed: the constants below.

There is one Newton loop, ``_newton_attempt`` (Deuflhard's damped inexact
Newton method), and each state is linearized once.  An attempt takes the
coefficients of its start state and its target, computes the start
residual once, and refuses a start outside the elliptic cone.  Each step
then checks the budget of ``newton_max_iters`` steps, runs one linear solve
to its forcing term and one line search.  The line search returns the state it accepts
with that state's coefficients and residual, and the next step starts from
all three.  The attempt returns, with its trace record, the coefficients of
the state it ended on, accepted or not.  They travel on into the next tau
attempt (they do not depend on the datum), into the lambda_min of the
attempt's record and into the audit.  After a failed attempt the march
restarts from the state it kept, with the coefficients it kept.  The loop
works on the coefficient arrays and builds fields only for new states and
the linear solve's right-hand side.  ``newton_solve`` is that loop alone,
from a given start.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .estimates import EstimateReport, verify
from .field import (
    GridMismatchError,
    GridSpec,
    ScalarField,
    _is_fast_odd_length,
    _spectrum,
    project_mean_zero,
    resample,
)
from .pde import (
    LinearizedCoeffs, MeanPreconditioner, _min_lambda, apply_linearized, linearize, renormalize,
)

_KRYLOV_TOL = 1e-9  # floor of the forcing terms: the tightest linear solve asked for
_SINGLE_PRECISION_RTOL = 1e-5  # from this rtol up, the Krylov operator runs in float32
_GMRES_RESTART = 50
_GMRES_MAX_CYCLES = 12  # at most 600 iterations plus 11 restart residuals per linear solve
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


class NyquistFloor(ContinuationStalled):
    """Even grid: the mean-zero part is solved, but a positive mean residual
    stays that no tau step removes (the solution's Nyquist-plane energy)."""


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    newton_tol: float = 1e-11
    newton_max_iters: int = 30
    tau_min_step: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be positive and finite")
        if not 0.0 < self.tau_min_step <= 1.0:
            raise ValueError("tau_min_step must lie in (0, 1]")
        iters = self.newton_max_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
            raise ValueError(f"newton_max_iters must be an integer >= 1, got {iters!r}")


@dataclass(frozen=True)
class TraceRecord:
    tau: float
    newton_iters: int
    # an accepted record meets newton_tol, except the coarse march's attempt
    # at tau = 1, which may stop above it at the coarse grid's truncation level
    final_residual_sup: float
    lambda_min: float
    failure: str | None  # SolverError class that ended the attempt, None if accepted
    # operator applications over all the attempt's linear solves, those of a
    # step whose line search failed included
    krylov_applications: int
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
    estimates: EstimateReport
    # when sequenced: the shape of the continuation grid, and the sup change
    # the last Newton attempt made to its start, sup |u - u0|; u0 is the
    # prolonged coarse solution (solve) or the remapped unit-grid solution
    # (solve_rotated, whose continuation grid is then on the unit box)
    coarse_grid: tuple | None = None
    coarse_fine_sup: float | None = None

    @property
    def final_residual_sup(self) -> float:
        return self.trace.accepted[-1].final_residual_sup


def _sup(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def solve_linearized(
    coeffs: LinearizedCoeffs,
    rhs: ScalarField,
    rtol: float = _KRYLOV_TOL,
) -> tuple[ScalarField, int]:
    """Solve L w = rhs for mean-zero w by right-preconditioned restarted GMRES.

    GMRES runs on L K with K = M^{-1} D^{-1}: D multiplies by the trace ratio
    d = (P + Q) / (Pbar + Qbar), and M is the grid-mean operator.  Where P and
    Q vary together L is close to d M, and on the flat state d = 1.  Raises
    GridMismatchError when rhs is not on the grid of ``coeffs``, and
    EllipticityLost when min(P + Q) <= 0, where D^{-1} is undefined.  Stops
    once GMRES's least-squares residual, equal to ||b - L w||_2 in exact
    arithmetic, is at most rtol ||b||_2, b the mean-zero part of rhs, with no
    operator application to confirm it; raises KrylovStalled after 12 cycles
    of 50 iterations, or when GMRES breaks down.  Each application takes one
    forward and three inverse transforms.  rtol defaults to 1e-9, the floor
    of the Newton loop's forcing terms.  Returns the solution and the number
    of operator applications.

    Precision: for rtol >= 1e-5 the operator L K and the recovery of w run
    in float32, against the :class:`~ktcy.pde.MeanPreconditioner` built in
    float32 once per call, so the stop test runs on the float32 operator, not
    on L, and the call takes no float64 transform.  The float64
    ||b - L w||_2 still met rtol ||b||_2 in all 129 solves of the three
    benchmark workloads' first three data and two hard 25^3 data, at most
    0.987 rtol ||b||_2.  Below 1e-5 the operator and the recovery are
    float64.  GMRES and the mean projections are float64 at every rtol.
    """
    grid = rhs.grid
    if grid != coeffs.grid:
        raise GridMismatchError("solve_linearized: rhs grid differs from coefficient grid")
    shape = grid.shape
    trace = coeffs.P + coeffs.Q
    min_trace = float(np.min(trace))
    if not min_trace > 0.0:
        raise EllipticityLost(f"min(P + Q) = {min_trace:.3e}: no trace-scaled preconditioner")
    d = trace / float(np.mean(trace))
    # M in the frame of the linearized apply, so it inverts the flat-case
    # linearization in a single Krylov iteration
    preconditioner = MeanPreconditioner(
        coeffs, np.float32 if rtol >= _SINGLE_PRECISION_RTOL else np.float64
    )

    applications = [0]

    def matvec(v):
        # restriction of L K to the mean-zero subspace: without the output
        # projection, Nyquist-mode aliasing leaks a tiny constant component
        # that the mean-pinned M^{-1} can never remove, and GMRES stalls just
        # above tolerance
        applications[0] += 1
        y = ScalarField(grid, v.reshape(shape) / d)
        out = apply_linearized(coeffs, y, preconditioner=preconditioner).values
        return (out - np.mean(out)).ravel()

    b = (rhs.values - np.mean(rhs.values)).ravel()
    y, ok = _gmres(matvec, b, rtol)
    if not ok:
        raise KrylovStalled(
            f"GMRES missed rtol {rtol:.1e} in {_GMRES_MAX_CYCLES} cycles of "
            f"{_GMRES_RESTART}, after {applications[0]} operator applications"
        )
    w = preconditioner.solve(y.reshape(shape) / d)
    return project_mean_zero(ScalarField(grid, w)), applications[0]


def _gmres(apply, b: np.ndarray, rtol: float) -> tuple[np.ndarray, bool]:
    """Restarted GMRES(50) for A y = b from y = 0, where ``apply`` gives A v.

    Modified Gram-Schmidt Arnoldi on a preallocated basis; Givens rotations
    on Python floats.  Stops once the least-squares residual |g_{k+1}| is at
    most rtol ||b||_2: in exact arithmetic it equals ||b - A y||_2 (Saad,
    2003, Prop. 6.9), so no application confirms it.  A restart starts from
    the true residual b - A y.  Returns (y, ok); ok is False after
    ``_GMRES_MAX_CYCLES`` cycles, and on a breakdown that leaves the
    Hessenberg matrix singular (an Arnoldi step with h_kk = h_{k+1,k} = 0
    after the rotations), with y that of the last restart.  b = 0 takes no
    application.
    """
    y = np.zeros_like(b)
    tol = rtol * float(np.linalg.norm(b))
    basis = np.empty((_GMRES_RESTART + 1, b.size))
    r = b
    for cycle in range(_GMRES_MAX_CYCLES):
        if cycle:
            r = b - apply(y)
        beta = float(np.linalg.norm(r))
        if beta <= tol:
            return y, True
        np.multiply(r, 1.0 / beta, out=basis[0])
        g, columns, rotations = [beta], [], []
        for k in range(_GMRES_RESTART):
            w = basis[k + 1]
            w[:] = apply(basis[k])
            h = []
            for v in basis[: k + 1]:
                h.append(float(v @ w))
                w -= h[-1] * v
            h_next = float(np.linalg.norm(w))
            for j, (c, s) in enumerate(rotations):
                h[j], h[j + 1] = c * h[j] + s * h[j + 1], c * h[j + 1] - s * h[j]
            # LAPACK dlartg's rotation in its unscaled range: c >= 0, and rho
            # takes the sign of h[k]
            d = math.sqrt(h[k] * h[k] + h_next * h_next)
            if d == 0.0:
                # breakdown: the rotated Hessenberg matrix is singular, so no
                # iterate of this Krylov space improves on y
                return y, False
            rho = math.copysign(d, h[k])
            c, s = abs(h[k]) / d, h_next / rho
            h[k] = rho
            rotations.append((c, s))
            columns.append(h)
            g[k], g_next = c * g[k], -s * g[k]
            g.append(g_next)
            if abs(g_next) <= tol:
                break
            w *= 1.0 / h_next
        # back substitution in the rotated (upper triangular) Hessenberg matrix
        z = g[: k + 1]
        for j in range(k, -1, -1):
            z[j] /= columns[j][j]
            for i in range(j):
                z[i] -= columns[j][i] * z[j]
        y += np.asarray(z) @ basis[: k + 1]
        if abs(g_next) <= tol:
            return y, True
    return y, False


def _line_search(u, w, angle, g, res_sup, cfg):
    """Backtracking line search from u along the Newton update w.

    Halves the step length, at most 10 times, until the trial state
    decreases the sup residual strictly below ``res_sup``, that of u (or
    meets ``newton_tol``), with min Q and min P positive.  One ``linearize``
    per trial, in the frame of ``angle``, gives both tests.  Returns the
    accepted trial, its coefficients and its residual array against the
    target ``g``.  Raises LineSearchFailed when no trial is accepted, with the
    last trial's sup residual, min Q and min P: no trial state outside the
    cone is ever returned.
    """
    s = 1.0
    for _ in range(_MAX_BACKTRACKS + 1):
        v = u.values + s * w.values
        u_try = u.with_values(v - np.mean(v))
        trial = linearize(u_try, angle)
        res = trial.lhs() - g
        res_try, min_q, min_p = _sup(res), float(np.min(trial.Q)), float(np.min(trial.P))
        if (res_try < res_sup or res_try <= cfg.newton_tol) and min_q > 0.0 and min_p > 0.0:
            return u_try, trial, res
        s *= _BACKTRACK_FACTOR
    raise LineSearchFailed(
        f"no admissible decrease down to step factor {s / _BACKTRACK_FACTOR:.3e}: the last "
        f"trial has sup residual {res_try:.3e} (start {res_sup:.3e}), "
        f"min(u_xx + 1) = {min_q:.3e} and min(u_yy + u_tt + u_t + 1) = {min_p:.3e}"
    )


def _forcing_term(res_sup: float, res_prev: float, eta_prev: float) -> float:
    """Eisenstat-Walker choice 2 (alpha = 2) with its safeguard, capped."""
    eta = _EW_GAMMA * (res_sup / res_prev) ** 2
    safeguard = _EW_GAMMA * eta_prev**2
    if safeguard > 0.1:
        eta = max(eta, safeguard)
    return min(eta, _ETA_MAX)


def _truncation_level(u: ScalarField) -> float:
    """Largest Fourier coefficient magnitude of u on its grid's outermost
    shell, |m| = (n - 1)/2 on some axis of an odd grid (no Nyquist mode).

    The coarse march's estimate of its discretization error: the modes the
    grid drops are of about this size.  One forward transform.
    """
    spec = np.abs(_spectrum(u.values))
    nx, ny, _ = u.grid.shape
    shell = max(
        float(np.max(spec[[nx // 2, -(nx // 2)]])),
        float(np.max(spec[:, [ny // 2, -(ny // 2)]])),
        float(np.max(spec[..., -1])),
    )
    return shell / u.values.size


def _newton_attempt(u0, coeffs0, g, cfg, tau=1.0, truncation_stop=False):
    """Inexact Newton loop for ma_lhs(u) = g from u0 to tolerance, at most
    ``cfg.newton_max_iters`` steps, in the frame of ``coeffs0``, the
    linearization of u0.

    Refuses an inadmissible u0 (EllipticityLost).  Each step solves the
    Newton system to the Eisenstat-Walker forcing term and damps the update
    by :func:`_line_search`, whose accepted state, coefficients and residual
    the next step reuses.  Returns (record, failure, u, coeffs).  u is the
    state the attempt ended on: the last accepted one, or u0 when no step
    was accepted.  coeffs is ``linearize(u)`` and record the attempt's
    :class:`TraceRecord` at ``tau``, whose iterations, residual and
    lambda_min all describe u.  failure is None on success, the
    ``SolverError`` a step raised, or a ``NewtonStalled`` when the step
    budget ran out.  A start that meets ``newton_tol`` is returned unchanged.
    A step's Krylov applications count in the record also when its line
    search fails.

    With ``truncation_stop`` the attempt also succeeds above ``newton_tol``,
    after a full step k >= 2 (line-search factor 1) whose Newton correction
    w_k predicts a next correction sup |w_k|^2 / sup |w_{k-1}| at most
    :func:`_truncation_level` of the new state: Deuflhard's nested-iteration
    stop, once the iteration error falls below the grid's own truncation
    error.
    """
    u, coeffs = u0, coeffs0
    # from here on only ``coeffs`` refers to them: the start coefficients are
    # freed at the first accepted step unless the caller keeps its own
    del coeffs0
    res = coeffs.lhs() - g
    res_sup, eta, krylov, iters, failure = _sup(res), _ETA_MAX, 0, 0, None
    w_prev = None
    try:
        min_q, min_p = float(np.min(coeffs.Q)), float(np.min(coeffs.P))
        if not (min_q > 0.0 and min_p > 0.0):
            raise EllipticityLost(
                f"min(u_xx + 1) = {min_q:.3e}, min(u_yy + u_tt + u_t + 1) = {min_p:.3e}"
            )
        while res_sup > cfg.newton_tol:
            if iters == cfg.newton_max_iters:
                raise NewtonStalled(
                    f"sup-residual {res_sup:.3e} after {iters} iterations (tol {cfg.newton_tol:.1e})"
                )
            rtol = max(eta, _KRYLOV_TOL, 0.5 * cfg.newton_tol / res_sup)
            w, applications = solve_linearized(coeffs, u.with_values(-res), rtol=rtol)
            krylov += applications
            u_prev, w_sup = u, _sup(w.values)
            u, coeffs, res = _line_search(u, w, coeffs.angle, g, res_sup, cfg)
            res_prev, res_sup = res_sup, _sup(res)
            iters += 1
            eta = _forcing_term(res_sup, res_prev, rtol)
            if (
                truncation_stop and w_prev is not None and res_sup > cfg.newton_tol
                # the line search halves, so a full step moved u by all of w
                and _sup(u.values - u_prev.values) > 0.75 * w_sup
                and w_sup * w_sup <= w_prev * _truncation_level(u)
            ):
                break
            w_prev = w_sup
    except SolverError as exc:
        # without its traceback, whose frames hold the failed step's
        # arrays, the error keeps no grid fields alive in the caller
        failure = exc.with_traceback(None)
    lam, _ = _min_lambda(coeffs.P + coeffs.Q, g)
    name = None if failure is None else type(failure).__name__
    record = TraceRecord(tau, iters, res_sup, lam, name, krylov, u.grid.shape)
    return record, failure, u, coeffs


def newton_solve(u0: ScalarField, F_target: ScalarField, cfg: SolverConfig) -> ScalarField:
    """Plain Newton iteration from a warm start at fixed datum (no path).

    Raises GridMismatchError unless u0 and F_target are both on cfg.grid,
    before any work.  Otherwise raises the ``SolverError`` that ended the
    attempt: ``EllipticityLost`` for a start outside the cone,
    ``NewtonStalled`` when the step budget ran out, otherwise the error of
    the failed step.
    """
    if u0.grid != cfg.grid:
        raise GridMismatchError("newton_solve: state grid differs from config grid")
    if F_target.grid != cfg.grid:
        raise GridMismatchError("newton_solve: datum grid differs from config grid")
    u, _ = _polish(project_mean_zero(u0), np.exp(F_target.values), cfg, [])
    return u


def check_normalization(F: ScalarField) -> None:
    """Raise NormalizationError unless the integral of e^F equals the box
    volume within 1e-10 relative."""
    volume = F.grid.volume()
    # the quadrature of field.integrate on the array, where an overflow of
    # e^F leaves an integral of inf to report
    with np.errstate(over="ignore"):
        ef = np.exp(F.values)
        datum_integral = float(np.sum(ef)) * volume / ef.size
    if abs(datum_integral - volume) > 1e-10 * volume:
        raise NormalizationError(
            f"integral of e^F is {datum_integral:.15g}, expected {volume:.15g}; "
            "the datum is not normalized, renormalize it first"
        )


def _odd_neighbours(shape: tuple) -> str:
    """The grids n - 1 and n + 1 on the even axes of ``shape``, if valid."""
    grids = [tuple(n + d if n % 2 == 0 else n for n in shape) for d in (-1, 1)]
    return " or ".join("x".join(map(str, g)) for g in grids if min(g) >= 5)


def _continuation(
    g: np.ndarray, cfg: SolverConfig, records: list, angle: tuple | None = None,
    truncation_stop: bool = False,
):
    """Tau continuation from u = 0 to tau = 1 on ``cfg.grid``, in the frame
    of ``angle``, along the targets 1 - tau + tau g for g = e^F.

    The first attempt is at tau = 1, the full target g.  Appends one record per
    tau attempt to ``records``, with the failure that ended it, also when it
    raises.  Doubles the step after any tau accepted with <= 3 Newton
    iterations, halves on failure, and raises ContinuationStalled below
    tau_min_step with the failed attempt's residual.  On a grid with an even
    axis, a failed attempt whose residual is all mean, sup |res - mean| <=
    newton_tol < mean, raises NyquistFloor at once: the mean-zero Newton
    update cannot remove that mean at any tau.  ``truncation_stop`` lets the
    attempt at tau = 1 stop at the grid's truncation level (see
    :func:`_newton_attempt`), above newton_tol.  Returns u and
    ``linearize(u, angle)``.
    """
    grid = cfg.grid
    u = ScalarField.zeros(grid)
    coeffs = linearize(u, angle)
    even = any(n % 2 == 0 for n in grid.shape)
    tau = 0.0
    step = 1.0
    while tau < 1.0:
        tau_try = min(1.0, tau + step)
        g_tau = g if tau_try == 1.0 else 1.0 - tau_try + tau_try * g
        record, failure, u_end, coeffs_end = _newton_attempt(
            u, coeffs, g_tau, cfg, tau_try, truncation_stop=truncation_stop and tau_try == 1.0
        )
        records.append(record)
        if failure is None:
            u, coeffs, tau = u_end, coeffs_end, tau_try
            if record.newton_iters <= 3:
                step = min(2.0 * step, 1.0)
            continue
        step *= 0.5
        if even or step < cfg.tau_min_step:
            res = coeffs_end.lhs() - g_tau
            res_mean = float(np.mean(res))
            spread = _sup(res - res_mean)
            measured = (
                f"the attempt at tau = {tau_try:.6f} ended with residual sup "
                f"{record.final_residual_sup:.3e} (newton_tol {cfg.newton_tol:.1e}), "
                f"mean {res_mean:.3e} and sup |residual - mean| {spread:.3e}"
            )
            if even and spread <= cfg.newton_tol < res_mean:
                raise NyquistFloor(
                    f"Nyquist floor at tau = {tau:.6f} on the "
                    f"{'x'.join(map(str, grid.shape))} grid: the mean-zero part is "
                    "solved, and the mean left is energy of u on the Nyquist planes, "
                    "which no tau step removes (the odd grids "
                    f"{_odd_neighbours(grid.shape)} have none); {measured}"
                )
            if step < cfg.tau_min_step:
                raise ContinuationStalled(f"tau step underflow at tau = {tau:.6f}: {measured}")
        del u_end, coeffs_end  # the march restarts from u: free the failed end state
    return u, coeffs


def _coarse_grid(grid: GridSpec) -> GridSpec | None:
    """The odd grid of about half the size that sequencing continues on.

    Each axis of n samples gets the odd size nearest n/2 (ties to the
    larger), at least 5 and below n, among the lengths that
    :func:`~ktcy.field._is_fast_odd_length` calls fast.  None when some
    axis has no such size.
    """
    shape = []
    for n in grid.shape:
        sizes = [m for m in range(5, n, 2) if _is_fast_odd_length(m)]
        if not sizes:
            return None
        shape.append(min(sizes, key=lambda m: (abs(2 * m - n), -m)))
    return GridSpec(*shape, *grid.periods)


def _polish(
    u0: ScalarField, g: np.ndarray, cfg: SolverConfig, records: list, angle: tuple | None = None
):
    """One Newton attempt on cfg.grid from u0 against the target g = e^F, in
    the frame of ``angle``, recorded at tau = 1.

    Returns (u, linearize(u, angle)); raises the ``SolverError`` that ended
    the attempt.
    """
    record, failure, u, coeffs = _newton_attempt(u0, linearize(u0, angle), g, cfg)
    records.append(record)
    if failure is not None:
        raise failure
    return u, coeffs


class _Unresolved(SolverError):
    """F is not resolved on the coarse grid, or there is no coarse grid."""


def _coarse_start(F: ScalarField, cfg: SolverConfig, records: list, angle: tuple | None = None):
    """Start for cfg.grid from the continuation on the coarse grid, in the
    frame of ``angle``.

    Raises _Unresolved when F has no coarse grid or is not resolved there
    (restriction then prolongation misses F by more than newton_tol), and
    the continuation's error when it fails; appends its records to
    ``records``.  The continuation's attempt at tau = 1 stops at the coarse
    grid's truncation level (see :func:`_newton_attempt`), so its record may
    end above newton_tol: the finish on cfg.grid meets it.  Returns the
    spectrally prolonged coarse solution, mean zero, and the coarse grid
    shape.
    """
    coarse = _coarse_grid(F.grid)
    if coarse is None:
        raise _Unresolved(f"no coarse grid for {F.grid.shape}")
    F_coarse = resample(F, coarse)
    if _sup(resample(F_coarse, F.grid).values - F.values) > cfg.newton_tol:
        raise _Unresolved(f"F is not resolved on the coarse grid {coarse.shape}")
    g_coarse = np.exp(renormalize(F_coarse).values)
    u_coarse, _ = _continuation(
        g_coarse, replace(cfg, grid=coarse), records, angle, truncation_stop=True
    )
    return project_mean_zero(resample(u_coarse, F.grid)), coarse.shape


def solve(F: ScalarField, cfg: SolverConfig) -> SolveReport:
    """Solve ma_lhs(u) = e^F for mean-zero u by grid sequencing, or by
    continuation alone.

    Requires the datum normalization (:func:`check_normalization`).  A datum
    that u = 0 already solves gets one Newton attempt from u = 0, which
    takes no step.  When F is resolved on the coarse grid (restriction then
    prolongation reproduces it to newton_tol), the tau continuation runs on
    that grid for the renormalized restriction of F, down to that grid's
    truncation level, its solution is spectrally prolonged to cfg.grid, and
    one Newton attempt finishes there.
    If F is not resolved, the coarse continuation fails or the fine Newton
    attempt fails, the continuation runs on cfg.grid from u = 0.  Either way
    the result meets newton_tol on cfg.grid; the trace keeps every attempt,
    each with its grid.  The returned report carries the full a-priori
    estimate audit.
    """
    return _solve(F, cfg)


def _solve(F: ScalarField, cfg: SolverConfig, starts=(_coarse_start,)) -> SolveReport:
    """:func:`solve` from the given starts, the one driver of every solve.

    Each start is called as ``start(F, cfg, records)``, appends its records
    to the trace list ``records`` and returns a state on cfg.grid and the
    shape of the grid its continuation ran on.  The first start that one
    Newton attempt on cfg.grid finishes gives the solution; a start or
    finish that raises a ``SolverError`` passes to the next one, and when
    none is left the continuation runs on cfg.grid from u = 0.  The starts
    are skipped for a datum that u = 0 already solves.
    """
    if F.grid != cfg.grid:
        raise GridMismatchError("solve: datum grid differs from config grid")
    check_normalization(F)
    records, g = [], np.exp(F.values)
    if _sup(1.0 - g) <= cfg.newton_tol:  # ma_lhs(0) = 1, so u = 0 solves F
        starts = ()
    for start in starts:
        try:
            u0, coarse_grid = start(F, cfg, records)
            u, coeffs = _polish(u0, g, cfg, records)
        except SolverError as failure:
            # the failed stage's arrays live on in the frames of the error's
            # traceback (a cycle through _polish's ``failure``) and in u0:
            # free them before the next start runs
            failure.with_traceback(None)
            u0 = None
            continue
        coarse_fine_sup = _sup(u.values - u0.values)
        break
    else:
        u, coeffs = _continuation(g, cfg, records)
        coarse_grid = coarse_fine_sup = None
    estimates = verify(u, F, coeffs=coeffs)
    return SolveReport(u, ContinuityTrace(tuple(records)), estimates, coarse_grid, coarse_fine_sup)
