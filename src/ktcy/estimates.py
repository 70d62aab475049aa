"""Runtime audit of the a-priori bounds satisfied by solutions.

Each check compares a computed quantity against its proven bound and
reports a signed margin; a check passes when margin >= -tol with
tol = 1e-8 * (1 + |rhs|).  Strict inequalities are tested against their
raw bound with no artificial gap asserted.  Two quantities with inexplicit
constants (sup |u| and sup |laplacian u|) are recorded as informational
values without a pass/fail threshold.

All checks are still computed on non-solutions, with the report flagged
informative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (
    ScalarField,
    gradient,
    integrate,
    norms,
    project_mean_zero,
    random_band_limited,
)
from .pde import (
    EllipticityReport,
    LinearizedCoeffs,
    ellipticity_report,
    linearize,
    residual,
    solution_residual_bound,
)


@dataclass(frozen=True)
class EstimateCheck:
    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class EstimateReport:
    checks: tuple
    informative: bool       # True when u is not a converged solution
    sup_u: float            # informational, no computable threshold
    sup_laplacian: float    # informational, no computable threshold
    ellipticity: EllipticityReport
    residual_sup: float     # sup |ma_lhs(u) - e^F|
    residual_l2: float      # L2 norm of ma_lhs(u) - e^F; its mean is check j

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> EstimateCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _tol(rhs: float) -> float:
    return 1e-8 * (1.0 + abs(rhs))


def _upper(name, lhs, rhs, note=""):
    """Check lhs <= rhs."""
    margin = rhs - lhs
    return EstimateCheck(name, lhs, rhs, margin, margin >= -_tol(rhs), note)


def _lower(name, lhs, rhs, note=""):
    """Check lhs >= rhs."""
    margin = lhs - rhs
    return EstimateCheck(name, lhs, rhs, margin, margin >= -_tol(rhs), note)


def _identity(name, value, note=""):
    """Check value == 0."""
    return EstimateCheck(name, value, 0.0, -abs(value), abs(value) <= _tol(0.0), note)


def verify(
    u: ScalarField,
    F: ScalarField,
    coeffs: LinearizedCoeffs | None = None,
) -> EstimateReport:
    """Audit a candidate solution of ma_lhs(u) = e^F against all ten bounds.

    (a) sup |u_x| <= L_x          (first-axis period; 1 on the unit box)
    (b) min u_xx > -1
    (c) min (u_yy + u_tt + u_t) > -1
    (d) min (laplacian u + u_t + 2) >= 2 min e^{F/2}
    (e) ||u||_L2 <= sup |1 + e^F|
    (f) ||grad u||_L2^2 <= 1/4 ||u||_L2^2 + 5/2 sup|1 + e^F| ||u||_L2
    (g) lambda_1 ||u||_L2^2 <= ||grad u||_L2^2 with lambda_1 = (2 pi / max period)^2
    (h) integral of u u_t vanishes
    (i) inf Lambda(u) > 0
    (j) mean residual vanishes

    One ``linearize`` gives the second derivatives, the residual, the
    ellipticity report and, from that residual, the solution test
    (:func:`~ktcy.pde.is_solution`); a caller that already holds
    ``linearize(u)`` passes it as ``coeffs``.
    """
    grid = u.grid
    c = linearize(u) if coeffs is None else coeffs
    ux, _, ut = grad = gradient(u)
    uxx = c.Q - 1.0
    p_factor = c.P - 1.0  # u_yy + u_tt + u_t
    nrm = norms(u, grad)
    ef = np.exp(F.values)
    sup_one_plus_ef = float(np.max(np.abs(1.0 + ef)))
    res = residual(u, F, c)
    res_sup = float(np.max(np.abs(res.values)))
    scale = grid.volume() / res.values.size
    ell = ellipticity_report(u, F, coeffs=c)

    max_period = max(grid.periods)
    lam1 = (2.0 * math.pi / max_period) ** 2
    poincare_note = (
        "unit box" if max_period == 1.0 else f"rescaled: (2 pi / {max_period:.12g})^2"
    )

    checks = (
        _upper("a_sup_ux_bound", float(np.max(np.abs(ux.values))), grid.L_x,
               note="bound is the first-axis period"),
        _lower("b_uxx_above_minus_one", float(np.min(uxx)), -1.0,
               note="strict in theory; raw minimum reported"),
        _lower("c_p_factor_above_minus_one", float(np.min(p_factor)), -1.0,
               note="strict in theory; raw minimum reported"),
        _lower("d_trace_floor", ell.min_trace, ell.trace_floor),
        _upper("e_l2_bound", nrm["l2"], sup_one_plus_ef),
        _upper("f_gradient_energy", nrm["grad_l2"] ** 2,
               0.25 * nrm["l2"] ** 2 + 2.5 * sup_one_plus_ef * nrm["l2"]),
        _upper("g_poincare", lam1 * nrm["l2"] ** 2, nrm["grad_l2"] ** 2,
               note=poincare_note),
        _identity("h_ut_moment", integrate(u * ut)),
        _lower("i_uniform_ellipticity", ell.min_lambda, 0.0),
        _identity("j_mean_residual", integrate(res) / grid.volume()),
    )
    return EstimateReport(
        checks=checks,
        informative=not res_sup <= solution_residual_bound(F),
        sup_u=nrm["sup"],
        sup_laplacian=float(np.max(np.abs(uxx + p_factor - ut.values))),
        ellipticity=ell,
        residual_sup=res_sup,
        residual_l2=float(np.sqrt(np.sum(res.values**2) * scale)),
    )


@dataclass(frozen=True)
class UniquenessProbe:
    max_pairwise_sup_diff: float
    trials: int


def uniqueness_probe(
    F: ScalarField,
    cfg,
    trials: int,
    rng: np.random.Generator | None = None,
) -> UniquenessProbe:
    """Empirical uniqueness test: solve from distinct warm starts.

    Trial 1 runs the continuity method from zero; the remaining trials run
    plain Newton from the converged solution plus small band-limited
    perturbations.  Returns the worst pairwise sup-difference.
    """
    from .solver import newton_solve, solve

    if trials < 2:
        raise ValueError(f"uniqueness_probe needs trials >= 2, got {trials}")
    if rng is None:
        rng = np.random.default_rng(20570)
    base = solve(F, cfg).u
    solutions = [base]
    for _ in range(trials - 1):
        bump = random_band_limited(F.grid, rng, max_mode=2, amplitude=1e-3)
        start = project_mean_zero(base + bump)
        solutions.append(newton_solve(start, F, cfg))
    worst = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            diff = float(np.max(np.abs(solutions[i].values - solutions[j].values)))
            worst = max(worst, diff)
    return UniquenessProbe(max_pairwise_sup_diff=worst, trials=trials)
