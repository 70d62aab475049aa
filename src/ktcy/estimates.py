"""Runtime audit of the a-priori bounds satisfied by solutions.

Each check compares a computed quantity against its proven bound and
records the signed margin; its verdict follows from the margin by one rule,
margin >= -1e-8 (1 + |rhs|).  Strict inequalities are tested against their
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
    GridMismatchError,
    ScalarField,
    _derivatives,
    _integral,
    _norms,
)
from .pde import (
    EllipticityReport,
    LinearizedCoeffs,
    _coefficients,
    _exp,
    _solution_bound,
    ellipticity_report,
)


@dataclass(frozen=True)
class EstimateCheck:
    name: str
    lhs: float
    rhs: float
    margin: float  # signed: negative when lhs is on the wrong side of rhs

    @property
    def passed(self) -> bool:
        """margin >= -1e-8 (1 + |rhs|), the one verdict rule of every check."""
        return self.margin >= -1e-8 * (1.0 + abs(self.rhs))


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


def _upper(name, lhs, rhs):
    """Check lhs <= rhs."""
    return EstimateCheck(name, lhs, rhs, rhs - lhs)


def _lower(name, lhs, rhs):
    """Check lhs >= rhs."""
    return EstimateCheck(name, lhs, rhs, lhs - rhs)


def _identity(name, value):
    """Check value == 0."""
    return EstimateCheck(name, value, 0.0, -abs(value))


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

    A fresh audit takes the gradient of u and the coefficients P, Q, R, S
    of :func:`~ktcy.pde.linearize` from one :func:`~ktcy.field._derivatives`
    call, 5 forward and 8 inverse transforms, and builds no field.  From
    them, and one e^F, come the residual, the ellipticity report and the
    solution test: u is a solution, and the report not ``informative``,
    when sup |residual| <= 1e-10 max(1, sup e^F).  Checks b, c, d and i
    read the one ellipticity report, b and c as min Q - 1 and min P - 1.
    The report's checks are the one record of each verdict.  A caller that
    already holds ``linearize(u)`` passes it as ``coeffs``, and the audit
    then transforms only for the gradient (3 + 3).

    Raises :class:`~ktcy.field.GridMismatchError` for an F or ``coeffs`` on
    another grid, ValueError for ``coeffs`` in a rotated frame (the audit
    runs in the grid frame), and ValueError, naming the largest F, when e^F
    or the audit's arithmetic on it overflows float64.
    """
    grid = u.grid
    if F.grid != grid:
        raise GridMismatchError("verify: u and F live on different grids")
    if coeffs is not None:
        if coeffs.grid != grid:
            raise GridMismatchError("verify: coeffs are not on the grid of u")
        if coeffs.angle is not None:
            raise ValueError("verify: the audit runs in the grid frame, not that of coeffs")
    d = _derivatives(u, second=coeffs is None)
    c = _coefficients(grid, d) if coeffs is None else coeffs
    ef = _exp(F)
    sup_one_plus_ef = float(np.max(np.abs(1.0 + ef)))
    try:
        # a finite e^F above the square root of the largest float overflows
        # in the squares of the residual: a typed error, under any warning filter
        with np.errstate(over="raise"):
            nrm = _norms(u.values, grid, (d.x, d.y, d.t))
            ell = ellipticity_report(u, F, coeffs=c, ef=ef)
            res = c.lhs() - ef
            res_sup = float(np.max(np.abs(res)))
            residual_l2 = float(np.sqrt(np.sum(res**2) * (grid.volume() / res.size)))
            mean_residual = _integral(res, grid) / grid.volume()
            # u_xx + (u_yy + u_tt + u_t) - u_t
            sup_laplacian = float(np.max(np.abs((c.Q - 1.0) + (c.P - 1.0) - d.t)))
    except FloatingPointError:
        raise _audit_overflow(u, F) from None

    lam1 = (2.0 * math.pi / max(grid.periods)) ** 2

    checks = (
        _upper("a_sup_ux_bound", float(np.max(np.abs(d.x))), grid.L_x),
        # min (Q - 1) is min Q - 1 bitwise: rounding q - 1 is monotone in q
        _lower("b_uxx_above_minus_one", ell.min_q - 1.0, -1.0),
        _lower("c_p_factor_above_minus_one", ell.min_p - 1.0, -1.0),
        _lower("d_trace_floor", ell.min_trace, ell.trace_floor),
        _upper("e_l2_bound", nrm["l2"], sup_one_plus_ef),
        _upper("f_gradient_energy", nrm["grad_l2"] ** 2,
               0.25 * nrm["l2"] ** 2 + 2.5 * sup_one_plus_ef * nrm["l2"]),
        _upper("g_poincare", lam1 * nrm["l2"] ** 2, nrm["grad_l2"] ** 2),
        _identity("h_ut_moment", _integral(u.values * d.t, grid)),
        _lower("i_uniform_ellipticity", ell.min_lambda, 0.0),
        _identity("j_mean_residual", mean_residual),
    )
    return EstimateReport(
        checks=checks,
        informative=not res_sup <= _solution_bound(ef),
        sup_u=nrm["sup"],
        sup_laplacian=sup_laplacian,
        ellipticity=ell,
        residual_sup=res_sup,
        residual_l2=residual_l2,
    )


def _audit_overflow(u: ScalarField, F: ScalarField) -> ValueError:
    """The error for an audit whose arithmetic overflows float64."""
    n = F.values.size
    return ValueError(
        f"the estimate audit overflows float64: max F is {float(np.max(F.values)):.6g} "
        f"and sup |u| is {float(np.max(np.abs(u.values))):.6g}; it sums the squared "
        f"residual ma_lhs(u) - e^F over the {n} grid points, which e^F alone "
        f"overflows above F = {0.5 * (np.log(np.finfo(float).max) - np.log(n)):.6g}"
    )

