"""Invariant-form algebra on the Kodaira-Thurston coframe.

The manifold carries a global coframe e1 = dy, e2 = dx, e3 = dt,
e4 = dz - x dy with structure equations de1 = de2 = de3 = 0, de4 = e12.
The almost-complex structure acts by the fixed table

    J e1 = e3,   J e2 = -e4,   J e3 = -e1,   J e4 = e2,

forced by J^2 = -1 from J e1 = e3 and J e4 = e2.  All forms here are
S1-invariant: coefficients do not depend on the fiber coordinate z, so
every coefficient is a :class:`ScalarField` on the base 3-torus.

Two-forms are stored on the i<j basis with e42 normalized to -e24 at
construction; one canonical storage order prevents sign drift.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .field import GridSpec, ScalarField, derivative, mean
from .pde import linearize

_TWO_FORM_BASIS = ("c12", "c13", "c14", "c23", "c24", "c34")
_J_INVARIANCE_TOL = 1e-12  # largest J-violation of an invariant two-form
_MEAN_TOL = 1e-10  # relative mean that alpha_from_u warns about


def _dx(f):
    return derivative(f, "x", 1)


def _dy(f):
    return derivative(f, "y", 1)


def _dt(f):
    return derivative(f, "t", 1)


def _check_same_grid(kind: str, fields) -> GridSpec:
    grids = {f.grid for f in fields}
    if len(grids) != 1:
        raise ValueError(f"{kind} coefficients must share one grid")
    return grids.pop()


@dataclass(frozen=True)
class OneForm:
    """Invariant 1-form a1*e1 + a2*e2 + a3*e3 + a4*e4."""

    a1: ScalarField
    a2: ScalarField
    a3: ScalarField
    a4: ScalarField

    def __post_init__(self):
        _check_same_grid("OneForm", (self.a1, self.a2, self.a3, self.a4))

    @property
    def grid(self) -> GridSpec:
        return self.a1.grid


@dataclass(frozen=True)
class TwoForm:
    """Invariant 2-form on the i<j basis e12, e13, e14, e23, e24, e34."""

    c12: ScalarField
    c13: ScalarField
    c14: ScalarField
    c23: ScalarField
    c24: ScalarField
    c34: ScalarField

    def __post_init__(self):
        _check_same_grid("TwoForm", [getattr(self, n) for n in _TWO_FORM_BASIS])

    @property
    def grid(self) -> GridSpec:
        return self.c12.grid

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(*[
            getattr(self, n) + getattr(other, n) for n in _TWO_FORM_BASIS
        ])

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(*[
            getattr(self, n) - getattr(other, n) for n in _TWO_FORM_BASIS
        ])

    def is_j_invariant(self) -> bool:
        return check_j_invariance(self)["max_violation"] <= _J_INVARIANCE_TOL


@dataclass(frozen=True)
class ThreeForm:
    """Invariant 3-form on the basis e123, e124, e134, e234."""

    c123: ScalarField
    c124: ScalarField
    c134: ScalarField
    c234: ScalarField

    @property
    def grid(self) -> GridSpec:
        return self.c123.grid

    def sup(self) -> float:
        return max(
            float(np.max(np.abs(c.values)))
            for c in (self.c123, self.c124, self.c134, self.c234)
        )


class MetricField:
    """Pointwise 4x4 symmetric matrix of ScalarFields; symmetry is exact
    by construction (mirrored entries share the same object)."""

    def __init__(self, rows):
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("MetricField needs a 4x4 matrix of fields")
        for i in range(4):
            for j in range(i):
                if rows[i][j] is not rows[j][i]:
                    raise ValueError("MetricField must be symmetric by construction")
        self.rows = tuple(tuple(r) for r in rows)
        self.grid = _check_same_grid("MetricField", [f for r in rows for f in r])

    def entry(self, i: int, j: int) -> ScalarField:
        return self.rows[i][j]

    def trace(self) -> ScalarField:
        out = self.rows[0][0]
        for i in range(1, 4):
            out = out + self.rows[i][i]
        return out

    def as_matrix_stack(self) -> np.ndarray:
        """(npoints, 4, 4) array for pointwise linear algebra."""
        flat = np.stack(
            [np.stack([self.rows[i][j].values.ravel() for j in range(4)]) for i in range(4)]
        )
        return np.moveaxis(flat, -1, 0)

    def min_eigenvalue(self) -> float:
        """Smallest pointwise eigenvalue over the grid (diagnostic)."""
        eigs = np.linalg.eigvalsh(self.as_matrix_stack())
        return float(np.min(eigs))


def alpha_from_u(u: ScalarField) -> OneForm:
    """Potential 1-form of the scalar reduction.

    With the J table above, the twisted differential expands to
    d^c u = -u_t e1 + u_y e3 - u_x e4, hence

        alpha = d^c u - u e1 = -(u_t + u) e1 + u_y e3 - u_x e4.

    The expansion is validated by the exterior_d unit tests, which must
    reproduce the (1,1) curvature coefficients coefficient-by-coefficient.
    """
    if abs(mean(u)) > _MEAN_TOL * (1.0 + float(np.max(np.abs(u.values)))):
        warnings.warn("alpha_from_u: u is not mean-zero", stacklevel=2)
    zero = ScalarField.zeros(u.grid)
    return OneForm(a1=-(_dt(u) + u), a2=zero, a3=_dy(u), a4=-_dx(u))


def exterior_d(alpha: OneForm) -> TwoForm:
    """Exterior derivative of an invariant 1-form.

    d(sum a_i e^i) = sum da_i ^ e^i + a4 de4 with de4 = e12; the coframe
    derivatives are d1 = d/dy, d2 = d/dx, d3 = d/dt.
    """
    a1, a2, a3, a4 = alpha.a1, alpha.a2, alpha.a3, alpha.a4
    return TwoForm(
        c12=_dy(a2) - _dx(a1) + a4,
        c13=_dy(a3) - _dt(a1),
        c14=_dy(a4),
        c23=_dx(a3) - _dt(a2),
        c24=_dx(a4),
        c34=_dt(a4),
    )


def exterior_d_two(omega: TwoForm) -> ThreeForm:
    """Exterior derivative of an invariant 2-form.

    The only structure-equation correction is d(e34) = -e3 ^ e12 = -e123,
    which feeds c34 into the e123 coefficient.
    """
    return ThreeForm(
        c123=_dt(omega.c12) - _dx(omega.c13) + _dy(omega.c23) - omega.c34,
        c124=_dy(omega.c24) - _dx(omega.c14),
        c134=_dy(omega.c34) - _dt(omega.c14),
        c234=_dx(omega.c34) - _dt(omega.c24),
    )


def check_j_invariance(omega: TwoForm) -> dict:
    """Max violation of J(omega) = omega.

    On the basis, J-invariance is exactly c14 + c23 = 0 and c12 + c34 = 0.
    """
    v1 = float(np.max(np.abs(omega.c14.values + omega.c23.values)))
    v2 = float(np.max(np.abs(omega.c12.values + omega.c34.values)))
    return {"max_violation": max(v1, v2)}


def wedge_ratio(omega: TwoForm) -> ScalarField:
    """omega ^ omega divided by the reference volume Omega^2 = 2 e1234.

    The full antisymmetric expansion gives
    omega^2 = 2 (c12 c34 - c13 c24 + c14 c23) e1234.
    """
    return omega.c12 * omega.c34 - omega.c13 * omega.c24 + omega.c14 * omega.c23


def omega_theta(theta: float, grid: GridSpec) -> TwoForm:
    """Rotated compatible symplectic form.

    omega_theta = (cos t e1 + sin t e2) ^ e3 - (-sin t e1 + cos t e2) ^ e4,
    stored on the i<j basis (so the e42 part of Omega becomes -e24).
    """
    c, s = float(np.cos(theta)), float(np.sin(theta))
    zero = ScalarField.zeros(grid)
    return TwoForm(
        c12=zero,
        c13=ScalarField.constant(grid, c),
        c14=ScalarField.constant(grid, s),
        c23=ScalarField.constant(grid, s),
        c24=ScalarField.constant(grid, -c),
        c34=zero,
    )


def standard_form(grid: GridSpec) -> TwoForm:
    """Omega = e13 + e42, the theta = 0 member of the family."""
    return omega_theta(0.0, grid)


def metric_field(u: ScalarField) -> MetricField:
    """Riemannian metric induced by Omega + d(alpha(u)) and J.

    Entries in terms of the linearization coefficients
    P = u_yy + u_tt + u_t + 1, Q = u_xx + 1, R = u_xy, S = u_xt:

        [ P   R   0   S ]
        [ R   Q   S   0 ]
        [ 0   S   P  -R ]
        [ S   0  -R   Q ]
    """
    c = linearize(u)
    P, Q, R, S = (u.with_values(a) for a in (c.P, c.Q, c.R, c.S))
    zero = ScalarField.zeros(u.grid)
    negR = -R
    return MetricField([
        [P, R, zero, S],
        [R, Q, S, zero],
        [zero, S, P, negR],
        [S, zero, negR, Q],
    ])
