"""Tests for the rotated frame of the operator layer and for the unit-grid
start of ``solve_rotated``."""

import math

import numpy as np
import pytest

from ktcy.field import (
    GridSpec,
    ScalarField,
    derivative,
    operator_symbols,
    random_band_limited,
    sample,
)
from ktcy.pde import apply_linearized, linearize, manufacture, renormalize
from ktcy.rotation import RationalAngle, pullback_datum, rotated_grid, solve_rotated
from ktcy.solver import NewtonStalled, SolverConfig, TraceRecord, solve

TAU = 2.0 * np.pi
ANGLE = RationalAngle(2, 1)
FRAME = (ANGLE.cos_theta, ANGLE.sin_theta)


def _sup(values):
    return float(np.max(np.abs(values)))


class TestFrame:
    @pytest.mark.parametrize("grid", [GridSpec(8, 8, 8), GridSpec(9, 6, 7, 1.0, 2.0, 0.5)])
    def test_identity_angle_gives_the_axis_table(self, grid):
        for axis, rotated in zip(operator_symbols(grid), operator_symbols(grid, (1.0, 0.0))):
            assert np.array_equal(*np.broadcast_arrays(axis, rotated))

    def test_no_angle_is_the_derivative_formula(self, rng):
        u = random_band_limited(GridSpec(12, 10, 8), rng, max_mode=3, amplitude=0.3)

        def d(f, axis, order):
            return derivative(f, axis, order).values

        ux = derivative(u, "x", 1)
        c = linearize(u)
        assert c.angle is None
        assert np.array_equal(c.P, d(u, "y", 2) + d(u, "t", 2) + d(u, "t", 1) + 1.0)
        assert np.array_equal(c.Q, d(u, "x", 2) + 1.0)
        assert np.array_equal(c.R, d(ux, "y", 1))
        assert np.array_equal(c.S, d(ux, "t", 1))

    def test_identity_angle_agrees_with_the_derivative_path(self, rng):
        u = random_band_limited(GridSpec(12, 12, 12), rng, max_mode=3, amplitude=0.3)
        axis, table = linearize(u), linearize(u, (1.0, 0.0))
        assert table.angle == (1.0, 0.0)
        for name in "PQRS":
            assert _sup(getattr(axis, name) - getattr(table, name)) <= 1e-12

    def test_coefficients_transplant_to_the_cell(self, rng):
        # u of modes |k| <= 3 maps to cell wavenumbers |a|, |b| <= 9, which
        # the 20 x 20 cell resolves, so both sides are exact
        u = random_band_limited(GridSpec(12, 12, 12), rng, max_mode=3, amplitude=0.3)
        cell = rotated_grid(ANGLE, 20, 20, 12)
        unit = linearize(u, FRAME)
        on_cell = linearize(pullback_datum(u, ANGLE, cell))
        for name in "PQRS":
            moved = pullback_datum(u.with_values(getattr(unit, name)), ANGLE, cell)
            assert _sup(moved.values - getattr(on_cell, name)) <= 1e-12

    def test_apply_transplants_to_the_cell(self, rng):
        # products of modes |k| <= 3 reach |k| <= 6: the odd 15^3 grid holds
        # them, and their cell wavenumbers |a|, |b| <= 18 fit the 40 x 40 cell
        grid = GridSpec(15, 15, 15)
        u = random_band_limited(grid, rng, max_mode=3, amplitude=0.3)
        w = random_band_limited(grid, rng, max_mode=3)
        cell = rotated_grid(ANGLE, 40, 40, 15)
        unit = apply_linearized(linearize(u, FRAME), w)
        on_cell = apply_linearized(
            linearize(pullback_datum(u, ANGLE, cell)), pullback_datum(w, ANGLE, cell)
        )
        moved = pullback_datum(unit, ANGLE, cell)
        # L w reaches 2e4 here: the bound is relative to its size
        assert _sup(moved.values - on_cell.values) <= 1e-12 * _sup(on_cell.values)


def _rotated_24_datum():
    """The first seed-1 datum of the rotated-24 benchmark workload."""
    grid = GridSpec(24, 24, 24)
    base = sample(lambda x, y, t: 0.3 * np.sin(TAU * x) * np.sin(TAU * y) * np.sin(TAU * t), grid)
    noise = random_band_limited(grid, np.random.default_rng(1), max_mode=3, amplitude=0.03)
    return renormalize(base + noise)


@pytest.fixture(scope="module")
def rotated_24():
    F = _rotated_24_datum()
    cfg = SolverConfig(grid=rotated_grid(ANGLE, 54, 54, 24))
    return F, cfg, pullback_datum(F, ANGLE, cfg.grid)


@pytest.fixture(scope="module")
def cell_only(rotated_24):
    _, cfg, G = rotated_24
    return solve(G, cfg)


def _margins(report):
    return [c.margin for c in report.estimates.checks]


class TestUnitGridStart:
    def test_records_run_unit_coarse_unit_then_cell(self, rotated_24):
        F, cfg, _ = rotated_24
        rotated = solve_rotated(F, ANGLE, cfg)
        records = rotated.report.trace.records
        assert [r.grid for r in records] == [(15, 15, 15), F.grid.shape, cfg.grid.shape]
        assert records[-1].accepted
        assert rotated.report.coarse_grid == (15, 15, 15)
        # the polish changes the remapped unit solution at the level of the
        # unit grid's discretization error, not of the solution
        assert 0.0 < rotated.report.coarse_fine_sup <= 1e-9
        assert rotated.report.final_residual_sup <= cfg.newton_tol
        assert rotated.report.estimates.passed and not rotated.report.estimates.informative
        assert rotated.sup_vp <= ANGLE.length

    def test_one_ellipticity_report_per_solve(self, rotated_24, pde_calls):
        # the audit's: every attempt on the unit, coarse and cell grids reads
        # its lambda_min off the coefficients it holds
        F, cfg, _ = rotated_24
        reports = pde_calls("ellipticity_report")
        solve_rotated(F, ANGLE, cfg)
        assert len(reports) == 1

    def test_agrees_with_the_cell_only_path(self, rotated_24, cell_only):
        F, cfg, _ = rotated_24
        rotated = solve_rotated(F, ANGLE, cfg)
        assert _sup(rotated.v.values - cell_only.u.values) <= 1e-11
        for got, want in zip(_margins(rotated.report), _margins(cell_only)):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_cell_work_is_a_polish(self, rotated_24, cell_only):
        F, cfg, _ = rotated_24
        rotated = solve_rotated(F, ANGLE, cfg)

        def cell_krylov(records):
            return sum(r.krylov_applications for r in records if r.grid == cfg.grid.shape)

        # one Newton step of one GMRES iteration on the cell, against three
        # steps of 6 applications without the unit-grid start
        assert cell_krylov(rotated.report.trace.records) == 1
        assert cell_krylov(cell_only.trace.records) == 6

    @pytest.mark.parametrize("stage", ["coarse", "unit", "cell"])
    def test_failed_stage_falls_back_bitwise(self, monkeypatch, rotated_24, cell_only, stage):
        import ktcy.solver as solver_module

        F, cfg, _ = rotated_24
        attempt, failed = solver_module._newton_attempt, []

        def forced(coeffs0, cfg_, truncation_stop):
            if stage == "coarse":  # the unit grid's coarse attempt, in the rotated frame
                return coeffs0.angle is not None and truncation_stop
            return cfg_.grid == (F.grid if stage == "unit" else cfg.grid)

        def failing_attempt(u0, coeffs0, g, cfg_, truncation_stop=False):
            if forced(coeffs0, cfg_, truncation_stop) and not failed:
                failed.append(1)
                record = TraceRecord(1, 1.0, 1.0, "NewtonStalled", 0, cfg_.grid.shape)
                return record, NewtonStalled("forced"), u0, coeffs0
            return attempt(u0, coeffs0, g, cfg_, truncation_stop)

        monkeypatch.setattr(solver_module, "_newton_attempt", failing_attempt)
        report = solve_rotated(F, ANGLE, cfg).report
        assert failed
        assert np.array_equal(report.u.values, cell_only.u.values)
        assert _margins(report) == _margins(cell_only)
        assert (report.coarse_grid, report.coarse_fine_sup) == (
            cell_only.coarse_grid, cell_only.coarse_fine_sup
        )
        n_full = len(cell_only.trace.records)
        assert report.trace.records[-n_full:] == cell_only.trace.records
        # a failed unit stage costs its coarse attempt and at most one
        # attempt on F's grid (and the polish, when that is what failed)
        wasted = report.trace.records[:-n_full]
        want = {
            "coarse": [],
            "unit": [(F.grid.shape, False)],
            "cell": [(F.grid.shape, True), (cfg.grid.shape, False)],
        }[stage]
        assert [(r.grid, r.accepted) for r in wasted if r.grid != (15, 15, 15)] == want

    def test_zero_datum_takes_one_attempt_on_the_cell(self):
        # u = 0 solves it, so no start is tried, as in solve
        F = ScalarField.zeros(GridSpec(24, 24, 24))
        cfg = SolverConfig(grid=rotated_grid(ANGLE, 54, 54, 24))
        rotated = solve_rotated(F, ANGLE, cfg)
        records = rotated.report.trace.records
        assert [(r.grid, r.newton_iters, r.accepted) for r in records] == [
            (cfg.grid.shape, 0, True)
        ]
        assert rotated.report.coarse_grid is None and rotated.report.coarse_fine_sup is None
        assert _sup(rotated.v.values) == 0.0

    @pytest.mark.parametrize(
        "m,n,cell",
        [(1, 0, (32, 32, 16)), (0, 1, (32, 32, 16)), (1, 1, (32, 32, 16)), (1, 1, (20, 20, 16))],
        ids=["identity", "quarter-turn", "same-size-cell", "smaller-cell"],
    )
    def test_small_cells_keep_the_cell_path(self, m, n, cell):
        grid = GridSpec(32, 32, 16)
        u_star = sample(
            lambda x, y, t: 0.003 * np.sin(TAU * x) + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
            grid,
        )
        F, _ = manufacture(u_star)
        angle = RationalAngle(m, n)
        cfg = SolverConfig(grid=rotated_grid(angle, *cell))
        rotated = solve_rotated(F, angle, cfg)
        direct = solve(pullback_datum(F, angle, cfg.grid), cfg)
        assert np.array_equal(rotated.v.values, direct.u.values)
        assert rotated.report.trace == direct.trace
        assert math.prod(cell) <= math.prod(grid.shape) or angle.length == 1.0
