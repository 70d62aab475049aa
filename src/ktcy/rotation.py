"""Rotated symplectic forms with rational angle.

The rotated problem solves the same reduced equation for omega_theta in
place of Omega.  A change of variables

    x = cos(theta) p + sin(theta) q,    y = -sin(theta) p + cos(theta) q

turns it into the base equation with relabeled axes on an enlarged periodic
cell: when cos(theta) = m/L and sin(theta) = n/L with coprime integers
(m, n) and L = sqrt(m^2 + n^2), shifting p or q by L moves (x, y) by an
integer lattice vector, so the transplanted solution v(p, q, t) = u(x, y, t)
is (L, L, 1)-periodic.  The cell covers the base torus m^2 + n^2 times, so
the normalization target for the transformed datum G is L^2, not 1.

For the same reason the pullback of a Fourier mode is again a Fourier mode:
e^{2 pi i (k_x x + k_y y)} becomes e^{2 pi i (a p + b q) / L} with integer
cell wavenumbers a = m k_x - n k_y and b = n k_x + m k_y.  The datum is
moved to the cell by this index remap, one complex ``fftn`` in and one
``irfftn`` out, instead of by point evaluation.

The cell has L^2 times more unknowns than the base torus, yet the rotated
equation is also the base equation on the unit torus with the derivative
directions d_p = cos(theta) d_x - sin(theta) d_y and d_q = sin(theta) d_x +
cos(theta) d_y, which act on F's own grid (the rotated frame of
:func:`~ktcy.pde.linearize`).  :func:`solve_rotated` therefore solves there
first, carries that solution to the cell by the same remap, and leaves the
cell one Newton attempt: nested iteration, as the grid sequencing of
:func:`~ktcy.solver.solve` does across grid sizes.  The unit-grid solve is
one more start of the solver's one driver, tried before the cell's own
coarse start; a stage that fails raises its ``SolverError`` and the driver
moves on, so the cell solve from scratch stays the fallback.

Irrational angles admit no such periodic cell and are rejected by
construction of :class:`RationalAngle`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .field import (
    GridSpec,
    ScalarField,
    _integral,
    _points,
    evaluate,
    interpolant_modes,
    project_mean_zero,
    synthesize,
)
from .solver import (
    NormalizationError,
    SolveReport,
    SolverConfig,
    _coarse_start,
    _polish,
    _solve,
    check_normalization,
)


@dataclass(frozen=True)
class RationalAngle:
    """Coprime pair (m, n) encoding theta with cos = m/L, sin = n/L."""

    m: int
    n: int

    def __post_init__(self):
        for name in ("m", "n"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"m and n must be integers, got {name} = {v!r}")
            object.__setattr__(self, name, int(v))
        if self.m == 0 and self.n == 0:
            raise ValueError("m^2 + n^2 must be positive")
        if math.gcd(abs(self.m), abs(self.n)) != 1:
            raise ValueError(f"({self.m}, {self.n}) is not a coprime pair")

    @property
    def length(self) -> float:
        """Cell period L = sqrt(m^2 + n^2)."""
        return math.sqrt(self.m * self.m + self.n * self.n)

    @property
    def cos_theta(self) -> float:
        return self.m / self.length

    @property
    def sin_theta(self) -> float:
        return self.n / self.length


def rotated_grid(angle: RationalAngle, n_p: int, n_q: int, n_t: int) -> GridSpec:
    """Grid on the (L, L, 1) periodic cell of the rotated problem."""
    L = angle.length
    return GridSpec(n_p, n_q, n_t, L, L, 1.0)


def _check_rotated_grid(angle: RationalAngle, grid: GridSpec) -> None:
    L = angle.length
    if grid.periods != (L, L, 1.0):
        raise ValueError(
            f"grid periods {grid.periods} do not match the ({angle.m}, {angle.n}) "
            f"cell ({L!r}, {L!r}, 1.0); build the grid with rotated_grid()"
        )


def pullback_datum(F: ScalarField, angle: RationalAngle, grid: GridSpec) -> ScalarField:
    """Transplant a unit-box datum to the rotated cell: G(p, q, t) = F(x, y, t).

    Exact Fourier index remap: each coefficient of F's interpolant at
    (k_x, k_y, k_t) goes to the cell mode (m k_x - n k_y, n k_x + m k_y,
    k_t), which :func:`~ktcy.field.synthesize` wraps modulo the cell grid,
    colliding coefficients summing.  Nyquist modes of F (even axes) are split into +-n/2 halves of
    weight 1/2 by :func:`~ktcy.field.interpolant_modes`, as in
    :func:`~ktcy.field.resample`.  The wrap and the split make G equal, up
    to rounding, to sampling the trigonometric interpolant of F (as
    :func:`evaluate` does) at the rotated cell points wrapped modulo 1,
    including the aliasing of cells too coarse for F and a cell n_t
    different from that of F.  The result is (L, L, 1)-periodic because the
    rotated lattice contains (L, 0) and (0, L).
    """
    if F.grid.periods != (1.0, 1.0, 1.0):
        raise ValueError("pullback_datum expects the datum on the unit box")
    _check_rotated_grid(angle, grid)
    coeffs, modes = interpolant_modes(F)
    KX, KY, KT = np.meshgrid(*modes, indexing="ij")
    cell_modes = (angle.m * KX - angle.n * KY, angle.n * KX + angle.m * KY, KT)
    return synthesize(grid, coeffs, cell_modes)


@dataclass(frozen=True)
class RotatedSolveReport:
    """Solve report in the rotated frame, tagged with (m, n, L)."""

    angle: RationalAngle
    report: SolveReport
    sup_vp: float  # sup |v_p|; bounded by L for solutions

    @property
    def v(self) -> ScalarField:
        return self.report.u


def _unit_grid_start(
    F: ScalarField, ef: np.ndarray, angle: RationalAngle, G: ScalarField, cfg: SolverConfig,
    records: list,
):
    """Start for the cell solve of G from F's unit grid, a start for
    :func:`~ktcy.solver._solve`.  ``ef`` is e^F, the array that F's
    :func:`~ktcy.solver.check_normalization` returned: the unit-grid
    attempt's target.

    The coarse start and one Newton attempt run on F's unit grid in the
    rotated frame, where the rotated equation is the base equation with
    derivative directions d_p and d_q; they append their records to
    ``records`` and raise the ``SolverError`` of a failed stage.  The
    solution is remapped onto the cell by :func:`pullback_datum`, which is
    exact for the interpolant.  Returns that state, mean zero, and the
    shape of the unit coarse grid.  G is the cell datum, which the cell
    attempt after this start solves against.
    """
    frame = (angle.cos_theta, angle.sin_theta)
    unit = replace(cfg, grid=F.grid)
    u0, coarse_shape = _coarse_start(F, unit, records, frame)
    u, _ = _polish(u0, ef, unit, records, frame)
    return project_mean_zero(pullback_datum(u, angle, cfg.grid)), coarse_shape


def solve_rotated(F: ScalarField, angle: RationalAngle, cfg: SolverConfig) -> RotatedSolveReport:
    """Solve the rotated problem for a normalized unit-box datum F.

    cfg.grid must be an (L, L, 1) cell grid for the given angle, and the
    solution is returned on it.  When L > 1 and the cell has more unknowns
    than F's grid, the solve starts on F's unit grid: grid sequencing runs
    there in the rotated frame (continuation on the odd coarse grid, one
    Newton attempt on F's grid), the solution is remapped onto the cell and
    one Newton attempt against the transformed datum G finishes it.  If F is
    not resolved on the coarse grid or any stage fails, and for L = 1 or a
    cell no larger than F's grid, the core solver runs on G on the cell (the
    rotated equation is the base equation with relabeled axes, covered by
    the grid-period generalization); the trace then starts with the records
    of the failed stages.  A datum that u = 0 already solves takes one
    Newton attempt on the cell and no start, as in
    :func:`~ktcy.solver.solve`.  The report includes the rotated-frame estimate
    audit with the first-axis gradient bound sup |v_p| <= L.  An
    unnormalized F fails with NormalizationError, naming the integral of e^F
    itself (the cell integral of e^G is L^2 times larger).  The cell solve
    raises it too unless the cell integral of e^G is L^2 within 1e-10 L^2,
    so every returned report implies that value.  That error says that F is
    normalized on its own grid and gives the cell integral and L^2: the cell
    samples e^F at other points, and a cell too coarse for F aliases its
    modes (see :func:`pullback_datum`), so a renormalized F can miss it.
    """
    _check_rotated_grid(angle, cfg.grid)
    ef = check_normalization(F)
    G = pullback_datum(F, angle, cfg.grid)
    starts = (_coarse_start,)
    if angle.length > 1.0 and math.prod(cfg.grid.shape) > math.prod(F.grid.shape):
        starts = (partial(_unit_grid_start, F, ef, angle), _coarse_start)
    try:
        report = _solve(G, cfg, starts)
    except NormalizationError:
        # F passed its own check above: what failed is the check of G on the cell
        raise NormalizationError(
            f"F is normalized on its own grid, but the integral of e^G, its pullback, on the "
            f"{cfg.grid.shape} cell is {_integral(np.exp(G.values), cfg.grid):.15g}, expected "
            f"L^2 = {cfg.grid.volume():.15g} within 1e-10 L^2: the cell samples e^F at other "
            "points, so renormalizing F cannot fix it; another cell grid may"
        ) from None
    return RotatedSolveReport(
        angle=angle, report=report, sup_vp=report.estimates.check("a_sup_ux_bound").lhs
    )


def base_point_values(v: ScalarField, angle: RationalAngle, x, y, t) -> np.ndarray:
    """Values of the base-torus solution u at arbitrary points, by spectral
    point evaluation of v at the inversely rotated points.

    No resampled field is returned: the inverse rotation maps the unit grid
    off the (L, L, 1) grid, and silent interpolation would hide error.
    Raises ValueError unless v is on an (L, L, 1) cell grid of the angle,
    and, before the rotation, for a point with a coordinate that is not
    finite.
    """
    _check_rotated_grid(angle, v.grid)
    c, s = angle.cos_theta, angle.sin_theta
    x, y, t = _points(x, y, t)
    p = c * x - s * y
    q = s * x + c * y
    return evaluate(v, p, q, t)
