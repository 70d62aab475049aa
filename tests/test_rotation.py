"""Tests for the rational-angle rotation extension."""

import math

import numpy as np
import pytest

from ktcy.pde import manufacture
from ktcy.field import GridSpec, ScalarField, evaluate, integrate, random_band_limited, sample
from ktcy.rotation import (
    RationalAngle,
    base_point_values,
    pullback_datum,
    rotated_grid,
    solve_rotated,
)
from ktcy.solver import NormalizationError, SolverConfig, solve

TAU = 2.0 * np.pi


def _admissible_datum(n=32, nt=16):
    grid = GridSpec(n, n, nt)
    u_star = sample(
        lambda x, y, t: 0.003 * np.sin(TAU * x) + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
        grid,
    )
    return manufacture(u_star)


class TestRationalAngle:
    @pytest.mark.parametrize("m,n,L", [(1, 0, 1.0), (0, 1, 1.0), (1, 1, math.sqrt(2.0)),
                                       (2, 1, math.sqrt(5.0)), (-1, 1, math.sqrt(2.0))])
    def test_valid_pairs(self, m, n, L):
        a = RationalAngle(m, n)
        assert a.length == pytest.approx(L)
        assert a.cos_theta == pytest.approx(m / L)
        assert a.sin_theta == pytest.approx(n / L)

    @pytest.mark.parametrize("m,n", [(0, 0), (2, 0), (2, 2), (4, 6)])
    def test_rejects_non_coprime(self, m, n):
        with pytest.raises(ValueError):
            RationalAngle(m, n)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            RationalAngle(1.0, 0)
        with pytest.raises(ValueError, match="m = True"):
            RationalAngle(True, 1)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, -2), (1, 4)])
    def test_lattice_property(self, m, n):
        # shifting p or q by L moves (x, y) by an integer lattice vector
        a = RationalAngle(m, n)
        L, c, s = a.length, a.cos_theta, a.sin_theta
        for shift in ((L * c, -L * s), (L * s, L * c)):
            assert shift[0] == pytest.approx(round(shift[0]), abs=1e-12)
            assert shift[1] == pytest.approx(round(shift[1]), abs=1e-12)


class TestPullback:
    def test_zero_datum(self):
        F = ScalarField.zeros(GridSpec(16, 16, 16))
        grid = rotated_grid(RationalAngle(1, 1), 16, 16, 16)
        G = pullback_datum(F, RationalAngle(1, 1), grid)
        assert np.max(np.abs(G.values)) < 1e-13

    def test_identity_angle(self):
        # white noise: every mode of F, Nyquist included, must come back
        F = ScalarField(GridSpec(16, 12, 8), np.random.default_rng(3).standard_normal((16, 12, 8)))
        angle = RationalAngle(1, 0)
        G = pullback_datum(F, angle, rotated_grid(angle, 16, 12, 8))
        assert np.max(np.abs(G.values - F.values)) <= 1e-14 * np.max(np.abs(F.values))

    @pytest.mark.parametrize(
        "data,m,n,cell",
        [
            ((16, 16, 16), 1, 1, (24, 24, 16)),
            ((16, 16, 16), 2, 1, (36, 36, 16)),
            ((12, 8, 6), -1, 2, (20, 14, 10)),    # non-cubic data, cell n_t above F's
            ((8, 12, 10), 3, -2, (30, 26, 4)),    # cell n_t below F's
            ((16, 16, 8), 0, 1, (16, 16, 8)),
            ((16, 16, 16), 1, 1, (8, 8, 8)),      # cell grid coarser than F's
            ((10, 10, 12), 2, 1, (12, 18, 20)),
            ((8, 8, 8), 1, -1, (6, 10, 6)),
            ((9, 9, 9), 1, 1, (13, 13, 9)),       # odd data and cell
            ((9, 8, 7), 2, 1, (21, 22, 8)),       # mixed parity
            ((8, 8, 8), 1, 1, (11, 11, 7)),       # even data, odd cell
        ],
    )
    def test_equals_interpolant_at_cell_points(self, data, m, n, cell):
        # white noise fills every mode of F, Nyquist included, and most cells
        # here alias the remapped band, so this pins the remap to point
        # evaluation of the interpolant on the full band
        F = ScalarField(GridSpec(*data), np.random.default_rng(5).standard_normal(data))
        angle = RationalAngle(m, n)
        grid = rotated_grid(angle, *cell)
        G = pullback_datum(F, angle, grid)
        c, s = angle.cos_theta, angle.sin_theta
        p, q, t = grid.meshgrid()
        want = evaluate(F, np.mod(c * p + s * q, 1.0), np.mod(-s * p + c * q, 1.0), t)
        assert np.max(np.abs(G.values - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_wrong_cell(self, rng):
        F = random_band_limited(GridSpec(16, 16, 16), rng, max_mode=3)
        with pytest.raises(ValueError, match="cell"):
            pullback_datum(F, RationalAngle(1, 1), GridSpec(16, 16, 16))

    def test_rejects_non_unit_datum_box(self, rng):
        g = GridSpec(16, 16, 16, L_x=2.0)
        F = random_band_limited(g, rng, max_mode=3)
        with pytest.raises(ValueError, match="unit box"):
            pullback_datum(F, RationalAngle(1, 1), rotated_grid(RationalAngle(1, 1), 16, 16, 16))

    def test_against_direct_composition(self, rng):
        # band-limited F composed with the rotation is exactly resolved on
        # the cell grid, so the pulled-back interpolant must match the
        # direct composition at arbitrary points
        F = random_band_limited(GridSpec(16, 16, 16), rng, max_mode=3)
        angle = RationalAngle(1, 1)
        grid = rotated_grid(angle, 32, 32, 16)
        G = pullback_datum(F, angle, grid)
        c, s = angle.cos_theta, angle.sin_theta
        pts_rng = np.random.default_rng(7)
        p = pts_rng.uniform(0, grid.L_x, 50)
        q = pts_rng.uniform(0, grid.L_y, 50)
        t = pts_rng.uniform(0, 1.0, 50)
        direct = evaluate(F, np.mod(c * p + s * q, 1.0), np.mod(-s * p + c * q, 1.0), t)
        interp = evaluate(G, p, q, t)
        assert np.max(np.abs(direct - interp)) <= 1e-11

    def test_cell_periodicity(self, rng):
        F = random_band_limited(GridSpec(16, 16, 16), rng, max_mode=3)
        angle = RationalAngle(1, 1)
        grid = rotated_grid(angle, 32, 32, 16)
        G = pullback_datum(F, angle, grid)
        L = angle.length
        pts_rng = np.random.default_rng(8)
        p = pts_rng.uniform(0, L, 20)
        q = pts_rng.uniform(0, L, 20)
        t = pts_rng.uniform(0, 1.0, 20)
        base = evaluate(G, p, q, t)
        assert np.allclose(evaluate(G, p + L, q, t), base, atol=1e-11)
        assert np.allclose(evaluate(G, p, q + L, t), base, atol=1e-11)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, -1), (2, 1), (3, 2)])
    def test_cell_normalization_counts_coverings(self, m, n):
        F, _ = _admissible_datum()
        angle = RationalAngle(m, n)
        G = pullback_datum(F, angle, rotated_grid(angle, 32, 32, 16))
        cell_normalization = integrate(G.with_values(np.exp(G.values)))
        assert cell_normalization == pytest.approx(float(m * m + n * n), abs=1e-10)


class TestSolveRotated:
    def test_identity_angle_matches_base_solve(self):
        F, _ = _admissible_datum()
        angle = RationalAngle(1, 0)
        grid = rotated_grid(angle, 32, 32, 16)
        rotated = solve_rotated(F, angle, SolverConfig(grid=grid))
        base = solve(F, SolverConfig(grid=F.grid))
        assert np.max(np.abs(rotated.v.values - base.u.values)) <= 1e-10

    def test_quarter_turn_trivial_datum(self):
        F = ScalarField.zeros(GridSpec(16, 16, 16))
        angle = RationalAngle(0, 1)
        grid = rotated_grid(angle, 16, 16, 16)
        rotated = solve_rotated(F, angle, SolverConfig(grid=grid))
        assert np.max(np.abs(rotated.v.values)) <= 1e-12

    def test_diagonal_angle(self):
        F, _ = _admissible_datum()
        angle = RationalAngle(1, 1)
        rotated = solve_rotated(F, angle, SolverConfig(grid=rotated_grid(angle, 32, 32, 16)))
        assert rotated.sup_vp <= math.sqrt(2.0) + 1e-8
        assert rotated.report.estimates.passed
        # the first-axis gradient bound in the audit carries the cell period
        check = rotated.report.estimates.check("a_sup_ux_bound")
        assert check.rhs == pytest.approx(math.sqrt(2.0))

    def test_rejects_unnormalized_datum(self, rng):
        F = ScalarField.constant(GridSpec(16, 16, 16), 0.5)
        angle = RationalAngle(1, 1)
        with pytest.raises(NormalizationError, match="normalized"):
            solve_rotated(F, angle, SolverConfig(grid=rotated_grid(angle, 16, 16, 16)))

    def test_base_point_values_invert_pullback(self, rng):
        # push-forward of a pulled-back field recovers the original values
        h = random_band_limited(GridSpec(16, 16, 16), rng, max_mode=3)
        angle = RationalAngle(1, 1)
        H = pullback_datum(h, angle, rotated_grid(angle, 32, 32, 16))
        pts_rng = np.random.default_rng(11)
        x = pts_rng.uniform(0, 1, 40)
        y = pts_rng.uniform(0, 1, 40)
        t = pts_rng.uniform(0, 1, 40)
        got = base_point_values(H, angle, x, y, t)
        want = evaluate(h, x, y, t)
        assert np.max(np.abs(got - want)) <= 1e-11

    def test_transplanted_solution_lives_on_the_unit_torus(self):
        # the solution for the rotated structure differs from the base
        # solution, but its transplant must be 1-periodic in x and y
        F, _ = _admissible_datum()
        angle = RationalAngle(1, 1)
        rotated = solve_rotated(F, angle, SolverConfig(grid=rotated_grid(angle, 32, 32, 16)))
        pts_rng = np.random.default_rng(12)
        x = pts_rng.uniform(0, 1, 30)
        y = pts_rng.uniform(0, 1, 30)
        t = pts_rng.uniform(0, 1, 30)
        u_rec = base_point_values(rotated.v, angle, x, y, t)
        shift_x = base_point_values(rotated.v, angle, x + 1.0, y, t)
        shift_y = base_point_values(rotated.v, angle, x, y + 1.0, t)
        scale = max(float(np.max(np.abs(u_rec))), 1e-30)
        assert np.max(np.abs(shift_x - u_rec)) <= 1e-8 * max(1.0, scale)
        assert np.max(np.abs(shift_y - u_rec)) <= 1e-8 * max(1.0, scale)
