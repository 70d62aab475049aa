"""Grid-sequenced damped inexact Newton solver with preconditioned Krylov
steps and a continuity-method fallback.

Every solve is one move: a start from a cheaper problem, finished by one
Newton attempt on the requested grid.  ``_solve`` is the one driver.  It
finishes the first start that one attempt completes, runs the continuation
from u = 0 on the requested grid when none does, and audits the result once
into the one :class:`SolveReport`.  ``solve`` has one start, the coarse
continuation below; :func:`~ktcy.rotation.solve_rotated` tries the datum's
unit grid in the rotated frame first; ``newton_solve`` is the finishing
attempt alone, from the start it is given, and ``uniqueness_probe`` runs it
from perturbed copies of a solution.  Every stage, the finishing
attempt included, signals failure by raising a ``SolverError``, and the
driver then moves on to the next start.

The solver carries the target g = e^F, an array computed where F comes in
(the driver, the coarse start, ``newton_solve`` and the rotated unit-grid
start); the continuation, the polish and the Newton attempt take g and
never exponentiate F.  The driver takes g from :func:`check_normalization`,
which returns the e^F it integrated, and :func:`~ktcy.rotation.solve_rotated`
hands the unit-grid start the e^F of its own check.  Two entries still
exponentiate twice: ``newton_solve`` calls :func:`~ktcy.pde._exp` before the
check, for the ValueError that names the largest F, and the coarse start
renormalizes its restriction of F before it takes g.  The path target is

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
ends the solve at once with ``NyquistFloor``, whether it is the finish of a
start or an attempt of the march: that mean is the solution's energy on
the Nyquist planes, which the mean-zero Newton update cannot remove at any
tau.  On 60 random data on 10^3 and 16^3, 25 finishes ended so, and the
march from u = 0 solved none of those 25.

Each Newton
step solves the linearized equation L w = -residual in the mean-zero
subspace by GMRES restarted every 50 iterations, at most 12 cycles,
right-preconditioned by K = L0^{-1} D^{-1}.  L0 is the flat linearization,
the one at u = 0,

    L0 w = w_xx + w_yy + w_tt + w_t,

and the grid-mean operator of every state: P - 1 and Q - 1 are derivatives
of the periodic u, so P and Q have grid mean 1.  It is diagonal in Fourier
space and nonsingular on mean-zero functions, and its inverse symbol, with
the zero mode pinned to 0, is an entry of the cached ``operator_symbols``
table of each grid and frame.  D multiplies by the trace P + Q, which L0
cannot see: where P and Q vary together, L is close to (P + Q) L0 / 2, so
L K is close to half the identity.  On large data this about halves the
Krylov work (Saad, *Iterative Methods for Sparse Linear Systems*, 2003,
section 9.3, on right preconditioning).
:class:`~ktcy.pde.MeanPreconditioner` is K, built once per linear solve in
the frame of the coefficients: it holds them and their trace.  The
first-order term makes L non-symmetric, hence a residual-minimizing Krylov
method.  GMRES runs on L K: each application passes the preconditioner to
``apply_linearized``, which divides by the trace and applies L L0^{-1} in
one forward and three inverse transforms, and w = K y is recovered once at
the end by ``K.solve``, so ||b - L K y||_2 is the residual ||b - L w||_2
of the Newton system itself.  GMRES is the solver's own, ``_gmres``: it
stops on its least-squares residual, which equals ||b - L K y||_2 in exact
arithmetic (Saad, Prop. 6.9; Kelley's ``nsoli`` in *Solving Nonlinear
Equations with Newton's Method*, SIAM 2003, stops on it too), and spends no
operator application to confirm it.  A restart starts from the true
residual.

The preconditioned operator and the recovery of w always run in float32
(mixed-precision inexact Newton: Kelley, *Newton's method in mixed
precision*, SIAM Review 64, 2022): the preconditioner is built in float32,
and the applications and the recovery transform in single precision through
:mod:`ktcy.field`.  GMRES itself and the mean projection of each
application stay float64, as does every other computation: the residual,
``linearize``, the line search and the audit.  The float64 residual fixes
the Newton fixed point, so the answer does not change.  A solve that asks
for rtol >= 1e-5 stops on the least-squares residual of the float32
operator and takes no float64 transform; nothing checks its float64
||b - L w||_2.  That still met rtol ||b||_2 in every such solve measured,
but with little room: at most 0.959 rtol ||b||_2 in the 80 such solves of
the first three data of each benchmark workload, and 0.99724 rtol ||b||_2
at worst, in one linear solve of the renormalized 25^3
``random_band_limited`` datum of seed 9, max_mode 3 and amplitude 6.

A solve that asks for rtol < 1e-5 ends on a measured float64 residual
instead: GMRES-based iterative refinement (GMRES-IR: Carson and Higham,
*SIAM J. Sci. Comput.* 40, 2018).  Its first float32 solve stops on rtol,
where a float64 GMRES would stop, so its correction is that GMRES's to
float32 accuracy; one plain float64 ``apply_linearized`` then measures
r = b - L w.  While ||r||_2 > rtol ||b||_2, a float32 solve for the
correction of r, asked for half the reduction still missing (at most 0.1),
is added to w and r measured again, all against the one float32 K.  A step
that does not halve ||r||_2, or a tenth step that misses, raises
``KrylovStalled``.  On the first eight 32^3 data of the large-amplitude
benchmark stream of seeds 2, 4, 7 and 11, 20 linear solves asked for
rtol < 1e-5.  Each first step took the 14 to 16 applications of the
float64 GMRES it replaces, in float32, plus one float64 residual; 7 of the
20 needed a second step of 4 or 5 more.  Newton counts did not change.

The Newton loop solves each system only as accurately as the step needs
(inexact Newton).  Step k asks GMRES for the relative tolerance eta_k of
Eisenstat and Walker's choice 2 on the sup residuals r_k:

    eta_0 = 0.1,   eta_k = 0.9 (r_k / r_{k-1})^2,

raised to 0.9 eta_{k-1}^2 when that exceeds 0.1, capped at 0.1, and floored
at max(1e-9, 0.5 newton_tol / r_k).  The constant 1e-9 is thus the tightest
tolerance any linear solve is asked for, and the default of
``solve_linearized``.  A step in the quadratic region

    r_k^2 <= 0.5 newton_tol m^2,   m = min(min Q, min P)

of its own coefficients asks for the floor alone.  There the correction w
is of size about r_k / m, so the linear part and the quadratic remainder
w_xx (w_yy + w_tt + w_t) - w_xy^2 - w_xt^2 each stay below
0.5 newton_tol, and one step meets the tolerance where eta_0 = 0.1 would
spend two (Deuflhard's local quadratic convergence, *Newton Methods for
Nonlinear Problems*, Springer 2004).  A remapped unit-grid solution reaches
the cell of :func:`~ktcy.rotation.solve_rotated` there, at the aliasing
level of the remap.  m is the cone margin that the attempt measures for its
start and the line search for the state it accepts, and both read it from
``LinearizedCoeffs.cone_margins``.  Outside the region the forcing terms,
and with them whether the solve refines, are as above.

The step is damped by a backtracking line search that halves its length,
at most 10 times, until the sup residual decreases and the state stays in
the elliptic cone; when no length does, ``LineSearchFailed`` names the last
trial's residual, min Q and min P.

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
with that state's coefficients, residual and sup residual, and the next
step starts from them.  The attempt returns, with its trace record, the coefficients of
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
from itertools import combinations

import numpy as np

from .estimates import EstimateReport, verify
from .field import (
    AXES,
    GridMismatchError,
    GridSpec,
    ScalarField,
    _integral,
    _is_fast_odd_length,
    _spectrum,
    _underflowing_axes,
    project_mean_zero,
    random_band_limited,
    resample,
)
from .pde import (
    LinearizedCoeffs, MeanPreconditioner, _exp, _min_lambda, apply_linearized, linearize,
    renormalize,
)

_KRYLOV_TOL = 1e-9  # floor of the forcing terms: the tightest linear solve asked for
_SINGLE_PRECISION_RTOL = 1e-5  # below this rtol, a linear solve refines on a float64 residual
_REFINE_MAX_STEPS = 10  # float32 solves per refined linear solve
_REFINE_CONTRACTION = 0.5  # each refinement step must at least halve the float64 residual
_REFINE_INNER_RTOL = 0.1  # loosest tolerance a correction step asks of GMRES
_GMRES_RESTART = 50
_GMRES_MAX_CYCLES = 12  # at most 600 iterations plus 11 restart residuals per linear solve
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 10
_ETA_MAX = 0.1  # cap and first value of the forcing terms
_EW_GAMMA = 0.9
_PROBE_SEED = 20570  # seed of the uniqueness probe's warm-start bumps


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
    """tau step underflow: the step fell below ``tau_min_step``.

    The message gives what was measured: the tau reached and the failed
    attempt's residual sup, mean and sup |residual - mean|.  It says nothing
    about the datum: a datum whose discrete solution is known can stall too.
    """


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

    GMRES runs on L K with K = L0^{-1} D^{-1}, the
    :class:`~ktcy.pde.MeanPreconditioner` of ``coeffs``: L0 is the flat
    linearization, the grid-mean operator of every state, and D multiplies
    by the trace P + Q.  Raises GridMismatchError when rhs is not on the
    grid of ``coeffs``, and EllipticityLost when min(P + Q) <= 0, where
    D^{-1} is undefined.  Stops once GMRES's least-squares residual, equal
    to ||b - L w||_2 in exact arithmetic, is at most rtol ||b||_2, b the
    mean-zero part of rhs, and for rtol < 1e-5 once the float64
    ||b - L w||_2 is too (see Precision); when GMRES stops short of its
    tolerance, after 12 cycles of 50 iterations or on a breakdown, raises
    KrylovStalled with the stop :func:`_gmres` names and the number of
    operator applications spent.  Raises ValueError, before
    any work, unless 0 < rtol < inf: a zero, negative or nan rtol no
    iterate meets, and an infinite one any iterate does.  Each Krylov
    application takes one forward and three inverse transforms, and each
    float64 residual one forward and four inverse.  rtol defaults to 1e-9,
    the floor of the Newton loop's forcing terms.  Returns the solution and
    the number of operator applications.  Each recovery d = K y is cast to
    float64 once and projected to mean zero as an array, so a call builds
    one field after GMRES, the solution, and two more per float64 residual.

    Precision: the operator L K and the recovery of w run in float32,
    against K built in float32 once per call; GMRES, the division by the
    trace and the mean projections are float64.  For rtol >= 1e-5 the stop
    test runs on the float32 operator, not on L, and the call takes no
    float64 transform: nothing checks the float64 ||b - L w||_2, which met
    rtol ||b||_2 in every linear solve measured, at worst 0.99724
    rtol ||b||_2 (the renormalized 25^3 ``random_band_limited`` datum of
    seed 9, max_mode 3, amplitude 6).  Below 1e-5 the call refines: after
    each float32 solve one plain float64 application measures
    r = b - L w, counted among the applications, and the call returns once
    ||r||_2 <= rtol ||b||_2; otherwise it adds the float32 solution of
    L d = r, asked for half the reduction still missing, at most 0.1.  A
    step whose ||r||_2 is above half the last one, or ten steps spent,
    raises KrylovStalled, whose message names that stop and the
    applications spent.  b = 0 takes no application.
    """
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"solve_linearized: rtol must be positive and finite, got {rtol!r}")
    grid = rhs.grid
    if grid != coeffs.grid:
        raise GridMismatchError("solve_linearized: rhs grid differs from coefficient grid")
    shape = grid.shape
    # in the frame of the linearized apply, so it inverts the flat-case
    # linearization in a single Krylov iteration
    K = MeanPreconditioner(coeffs, np.float32)
    min_trace = float(np.min(K.trace))
    if not min_trace > 0.0:
        raise EllipticityLost(f"min(P + Q) = {min_trace:.3e}: no trace-scaled preconditioner")

    applications = [0]

    def matvec(v):
        # restriction of L K to the mean-zero subspace: without the output
        # projection, Nyquist-mode aliasing leaks a tiny constant component
        # that the mean-pinned L0^{-1} can never remove, and GMRES stalls just
        # above tolerance
        applications[0] += 1
        y = ScalarField(grid, v.reshape(shape))
        out = apply_linearized(coeffs, y, preconditioner=K).values
        return (out - np.mean(out)).ravel()

    def correction(r, inner_rtol):
        """Mean-zero float64 d = K y for the GMRES solution y of L K y = r on the
        float32 operator, to ``inner_rtol``."""
        y, stalled = _gmres(matvec, r, inner_rtol)
        if stalled is not None:
            raise KrylovStalled(f"GMRES {stalled}, after {applications[0]} operator applications")
        d = np.asarray(K.solve(y.reshape(shape)), dtype=np.float64)
        return d - np.mean(d)

    b = (rhs.values - np.mean(rhs.values)).ravel()
    w = correction(b, rtol)
    if rtol >= _SINGLE_PRECISION_RTOL:
        return ScalarField(grid, w), applications[0]
    # iterative refinement: measure the float64 residual of w, and correct w
    # by a float32 solve for it that asks for half the reduction still missing
    b_norm = float(np.linalg.norm(b))
    target, r_norm, steps = rtol * b_norm, b_norm, 1
    while r_norm > target:  # b = 0 takes no application
        applications[0] += 1
        out = apply_linearized(coeffs, ScalarField(grid, w)).values
        r = b - (out - np.mean(out)).ravel()
        r_prev, r_norm = r_norm, float(np.linalg.norm(r))
        if r_norm <= target:
            break
        spent = f"after {applications[0]} operator applications"
        if r_norm > _REFINE_CONTRACTION * r_prev:
            raise KrylovStalled(
                f"refinement stopped contracting at step {steps}: the float64 residual went "
                f"from {r_prev:.3e} to {r_norm:.3e} (target {target:.3e}), {spent}"
            )
        if steps == _REFINE_MAX_STEPS:
            raise KrylovStalled(f"refinement missed rtol {rtol:.1e} in {steps} steps, {spent}")
        w += correction(r, min(_REFINE_INNER_RTOL, 0.5 * target / r_norm))
        steps += 1
    return ScalarField(grid, w), applications[0]


def _gmres(apply, b: np.ndarray, rtol: float) -> tuple[np.ndarray, str | None]:
    """Restarted GMRES(50) for A y = b from y = 0, where ``apply`` gives A v.

    Modified Gram-Schmidt Arnoldi on a preallocated basis; Givens rotations
    on Python floats.  Stops once the least-squares residual |g_{k+1}| is at
    most rtol ||b||_2: in exact arithmetic it equals ||b - A y||_2 (Saad,
    2003, Prop. 6.9), so no application confirms it.  A restart starts from
    the true residual b - A y.  Returns (y, stalled): stalled is None when
    the stop test is met, and otherwise names why GMRES stopped short of
    it, with y that of the last restart: "missed rtol ... in 12 cycles of
    50" once ``_GMRES_MAX_CYCLES`` cycles are spent, and "broke down short
    of rtol ..." on a breakdown that leaves the Hessenberg matrix singular
    (an Arnoldi step with h_kk = h_{k+1,k} = 0 after the rotations).  b = 0
    takes no application.
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
            return y, None
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
                return y, f"broke down short of rtol {rtol:.1e}"
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
            return y, None
    return y, f"missed rtol {rtol:.1e} in {_GMRES_MAX_CYCLES} cycles of {_GMRES_RESTART}"


def _line_search(u, w, angle, g, res_sup, cfg):
    """Backtracking line search from u along the Newton update w.

    Halves the step length, at most 10 times, until the trial state
    decreases the sup residual strictly below ``res_sup``, that of u (or
    meets ``newton_tol``), with min Q and min P positive.  One ``linearize``
    per trial, in the frame of ``angle``, gives both tests.  Returns the
    accepted trial, its coefficients, its residual array against the target
    ``g``, that residual's sup, measured for the test, and the step factor
    it was taken at; the coefficients hold the cone margins the test
    measured, which the next step reads.  Raises LineSearchFailed when
    no trial is accepted, with the last trial's sup residual, min Q and
    min P: no trial state outside the cone is ever returned.
    """
    s = 1.0
    for _ in range(_MAX_BACKTRACKS + 1):
        v = u.values + s * w.values
        u_try = u.with_values(v - np.mean(v))
        trial = linearize(u_try, angle)
        res = trial.lhs() - g
        res_try, (min_q, min_p) = _sup(res), trial.cone_margins
        if (res_try < res_sup or res_try <= cfg.newton_tol) and min_q > 0.0 and min_p > 0.0:
            return u_try, trial, res, res_try, s
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
    Newton system to the Eisenstat-Walker forcing term, or to its floor
    alone in the quadratic region (see the module docstring), and damps the
    update by :func:`_line_search`, whose accepted state, coefficients
    (with their cone margins), residual and sup residual the next step
    reuses, and whose step factor the truncation stop reads.
    Returns (record, failure, u, coeffs).  u is the state the attempt ended
    on: the last accepted one, or u0 when no step was accepted.  coeffs is
    ``linearize(u)`` and record the attempt's :class:`TraceRecord` at
    ``tau``, whose iterations, residual and lambda_min all describe u.  failure is None on success, the
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
        min_q, min_p = coeffs.cone_margins
        if not (min_q > 0.0 and min_p > 0.0):
            raise EllipticityLost(
                f"min(u_xx + 1) = {min_q:.3e}, min(u_yy + u_tt + u_t + 1) = {min_p:.3e}"
            )
        while res_sup > cfg.newton_tol:
            if iters == cfg.newton_max_iters:
                raise NewtonStalled(
                    f"sup-residual {res_sup:.3e} after {iters} iterations (tol {cfg.newton_tol:.1e})"
                )
            rtol = max(_KRYLOV_TOL, 0.5 * cfg.newton_tol / res_sup)
            if res_sup * res_sup > 0.5 * cfg.newton_tol * min(coeffs.cone_margins) ** 2:
                rtol = max(eta, rtol)  # outside the quadratic region
            w, applications = solve_linearized(coeffs, u.with_values(-res), rtol=rtol)
            krylov += applications
            w_sup = _sup(w.values)
            res_prev = res_sup
            u, coeffs, res, res_sup, factor = _line_search(u, w, coeffs.angle, g, res_prev, cfg)
            iters += 1
            eta = _forcing_term(res_sup, res_prev, rtol)
            if (
                truncation_stop and w_prev is not None and res_sup > cfg.newton_tol
                and factor == 1.0
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
    before any work, ValueError, naming the largest F, when e^F overflows
    float64, and NormalizationError for a datum that violates the
    normalization (:func:`check_normalization`), which no state solves.
    Otherwise raises the ``SolverError`` that ended the attempt:
    ``EllipticityLost`` for a start outside the cone, ``NewtonStalled`` when
    the step budget ran out, otherwise the error of the failed step.

    e^F is taken twice: :func:`~ktcy.pde._exp` first, whose ValueError names
    the largest F of an overflowing datum, then :func:`check_normalization`,
    which would report that datum as unnormalized instead.
    """
    if u0.grid != cfg.grid:
        raise GridMismatchError("newton_solve: state grid differs from config grid")
    if F_target.grid != cfg.grid:
        raise GridMismatchError("newton_solve: datum grid differs from config grid")
    _refuse_underflowing_axes(F_target)
    g = _exp(F_target)
    check_normalization(F_target)
    u, _ = _polish(project_mean_zero(u0), g, cfg, [])
    return u


@dataclass(frozen=True)
class UniquenessProbe:
    max_pairwise_sup_diff: float
    trials: int


def uniqueness_probe(F: ScalarField, cfg, trials: int) -> UniquenessProbe:
    """Empirical uniqueness test: solve from distinct warm starts.

    Trial 1 is a full :func:`solve`: grid-sequenced, with a
    continuation that tries the full datum first and runs on the requested
    grid from zero only as the fallback.  The remaining trials run plain
    Newton from that solution plus a band-limited bump of sup 1e-3, drawn
    from a generator of the fixed seed ``_PROBE_SEED``, and scaled
    down where needed so that it moves P and Q by at most half the
    solution's min P and min Q: the start stays in the elliptic cone, which
    ``newton_solve`` requires.  Returns the worst pairwise sup-difference.
    Raises ValueError before any work unless ``trials`` is an integer >= 2.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 2:
        raise ValueError(f"uniqueness_probe needs an integer trials >= 2, got {trials!r}")
    rng = np.random.default_rng(_PROBE_SEED)
    report = solve(F, cfg)
    base, ell = report.u, report.estimates.ellipticity
    solutions = [base]
    for _ in range(trials - 1):
        bump = random_band_limited(F.grid, rng, max_mode=2, amplitude=1e-3)
        # P and Q are affine in u, so the bump moves them by P - 1 and Q - 1
        # of its own linearization, linearly in its amplitude
        c, scale = linearize(bump), 1.0
        for minimum, coeff in ((ell.min_p, c.P), (ell.min_q, c.Q)):
            move = _sup(coeff - 1.0)
            if move > 0.5 * minimum:
                scale = min(scale, 0.5 * minimum / move)
        start = project_mean_zero(base + bump * scale)  # times 1.0 is exact
        solutions.append(newton_solve(start, F, cfg))
    worst = max(_sup(a.values - b.values) for a, b in combinations(solutions, 2))
    return UniquenessProbe(max_pairwise_sup_diff=worst, trials=trials)


def _refuse_underflowing_axes(F: ScalarField) -> None:
    """Raise ValueError, naming the axis and its period, when F varies along
    an axis of :func:`~ktcy.field._underflowing_axes`: the linear solves
    cannot see the derivatives along it."""
    for ax in _underflowing_axes(F.grid):
        if np.any(np.diff(F.values, axis=ax)):
            name, L = AXES[ax], F.grid.periods[ax]
            raise ValueError(
                f"F varies along {name}, but L_{name} = {L!r} makes the derivative factor "
                f"(2 pi / L)^2 = {(2.0 * math.pi / L) ** 2:.3e} underflow float32, the "
                f"precision of the Krylov operator: the solver cannot see the {name}-derivatives"
            )


def check_normalization(F: ScalarField) -> np.ndarray:
    """Raise NormalizationError unless the integral of e^F equals the box
    volume within 1e-10 relative; return the array e^F it integrated.

    An e^F that overflows float64 has an integral of inf and is refused, so
    the array returned is finite: callers take it as the target g = e^F.
    """
    volume = F.grid.volume()
    # an overflow of e^F leaves an integral of inf to report
    with np.errstate(over="ignore"):
        ef = np.exp(F.values)
        datum_integral = _integral(ef, F.grid)
    if abs(datum_integral - volume) > 1e-10 * volume:
        raise NormalizationError(
            f"integral of e^F is {datum_integral:.15g}, expected {volume:.15g}; "
            "the datum is not normalized, renormalize it first"
        )
    return ef


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
    u = ScalarField.zeros(cfg.grid)
    coeffs = linearize(u, angle)
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
        _raise_on_stall(record, coeffs_end, g_tau, cfg, tau, underflow=step < cfg.tau_min_step)
        del u_end, coeffs_end  # the march restarts from u: free the failed end state
    return u, coeffs


def _raise_on_stall(record, coeffs, g, cfg, tau, underflow=False):
    """Raise the error that ends the solve after a failed attempt, if any.

    ``record`` and ``coeffs`` are the attempt's record and the linearization
    of the state it ended on, ``g`` its target and ``tau`` the last tau
    accepted before it (1 for the finish of a start).  On a grid with an
    even axis, a residual that is all mean, sup |res - mean| <= newton_tol <
    mean, raises NyquistFloor: the mean-zero Newton update cannot remove
    that mean at any tau.  Otherwise ``underflow`` raises
    ContinuationStalled.  Both messages end with the attempt's measured
    residual sup, mean and sup |residual - mean|.  The residual is computed
    again here from ``coeffs`` and ``g``: :func:`_newton_attempt` returns
    (record, failure, u, coeffs) and no residual, the shape that the tests'
    stand-ins for it return too.
    """
    grid = cfg.grid
    even = any(n % 2 == 0 for n in grid.shape)
    if not (even or underflow):
        return
    res = coeffs.lhs() - g
    res_mean = float(np.mean(res))
    spread = _sup(res - res_mean)
    measured = (
        f"the attempt at tau = {record.tau:.6f} ended with residual sup "
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
    if underflow:
        raise ContinuationStalled(f"tau step underflow at tau = {tau:.6f}: {measured}")


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
    shape.  The coarse target is exponentiated twice, once in
    :func:`~ktcy.pde.renormalize` and once for g: exp of the renormalized
    restriction is not bitwise the restriction's e^F divided by its mean.
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
    attempt fails, the continuation runs on cfg.grid from u = 0, unless the
    fine attempt ends on the Nyquist floor of an even grid, which raises
    ``NyquistFloor``.  Either way a returned result meets newton_tol on
    cfg.grid; the trace keeps every attempt, each with its grid.  The
    returned report carries the full a-priori estimate audit.
    """
    return _solve(F, cfg)


def _solve(F: ScalarField, cfg: SolverConfig, starts=(_coarse_start,)) -> SolveReport:
    """:func:`solve` from the given starts, the one driver of every solve.

    Each start is called as ``start(F, cfg, records)``, appends its records
    to the trace list ``records`` and returns a state on cfg.grid and the
    shape of the grid its continuation ran on.  The first start that one
    Newton attempt on cfg.grid finishes gives the solution; a start or
    finish that raises a ``SolverError`` passes to the next one, and when
    none is left the continuation runs on cfg.grid from u = 0.  A finish
    that ends on the Nyquist floor of an even grid raises ``NyquistFloor``
    instead (:func:`_raise_on_stall`).  The starts are skipped for a datum
    that u = 0 already solves.
    """
    if F.grid != cfg.grid:
        raise GridMismatchError("solve: datum grid differs from config grid")
    _refuse_underflowing_axes(F)
    records, g = [], check_normalization(F)
    if _sup(1.0 - g) <= cfg.newton_tol:  # ma_lhs(0) = 1, so u = 0 solves F
        starts = ()
    for start in starts:
        try:
            u0, coarse_grid = start(F, cfg, records)
        except SolverError as failure:
            # the failed stage's arrays live on in the frames of the error's
            # traceback: free them before the next start runs
            failure.with_traceback(None)
            continue
        record, failure, u, coeffs = _newton_attempt(u0, linearize(u0), g, cfg)
        records.append(record)
        if failure is None:
            coarse_fine_sup = _sup(u.values - u0.values)
            break
        # a finish on the Nyquist floor ends the solve: on the even-grid survey
        # data the continuation from u = 0 never got past that floor
        _raise_on_stall(record, coeffs, g, cfg, 1.0)
        u0 = u = coeffs = None  # free the failed finish before the next start runs
    else:
        u, coeffs = _continuation(g, cfg, records)
        coarse_grid = coarse_fine_sup = None
    estimates = verify(u, F, coeffs=coeffs)
    return SolveReport(u, ContinuityTrace(tuple(records)), estimates, coarse_grid, coarse_fine_sup)
