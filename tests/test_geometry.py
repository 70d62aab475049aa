"""Tests for the invariant-form algebra."""

import numpy as np
import pytest

from ktcy.field import GridSpec, ScalarField, derivative, random_band_limited, sample
from ktcy.geometry import (
    OneForm,
    ThreeForm,
    TwoForm,
    alpha_from_u,
    check_j_invariance,
    exterior_d,
    exterior_d_two,
    metric_field,
    omega_theta,
    standard_form,
    wedge_ratio,
)
from ktcy.pde import ellipticity_report, ma_lhs

TAU = 2.0 * np.pi


def _second(u, a, b):
    return derivative(derivative(u, a, 1), b, 1)


class TestAlphaFromU:
    def test_zero(self, grid8):
        a = alpha_from_u(ScalarField.zeros(grid8))
        for c in (a.a1, a.a2, a.a3, a.a4):
            assert np.max(np.abs(c.values)) == 0.0

    def test_t_mode(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * t), grid8)
        a = alpha_from_u(u)
        expected_a1 = sample(lambda x, y, t: -TAU * np.cos(TAU * t) - np.sin(TAU * t), grid8)
        assert np.allclose(a.a1.values, expected_a1.values, atol=1e-13)
        assert np.max(np.abs(a.a3.values)) < 1e-14
        assert np.max(np.abs(a.a4.values)) < 1e-14

    def test_x_mode(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x), grid8)
        a = alpha_from_u(u)
        expected_a4 = sample(lambda x, y, t: -TAU * np.cos(TAU * x), grid8)
        expected_a1 = sample(lambda x, y, t: -np.sin(TAU * x), grid8)
        assert np.allclose(a.a4.values, expected_a4.values, atol=1e-13)
        assert np.allclose(a.a1.values, expected_a1.values, atol=1e-13)

    def test_warns_on_nonzero_mean(self, grid8):
        u = ScalarField.constant(grid8, 1.0)
        with pytest.warns(UserWarning, match="mean-zero"):
            alpha_from_u(u)


class TestExteriorD:
    def test_zero(self, grid8):
        zero = ScalarField.zeros(grid8)
        d = exterior_d(OneForm(zero, zero, zero, zero))
        for name in ("c12", "c13", "c14", "c23", "c24", "c34"):
            assert np.max(np.abs(getattr(d, name).values)) == 0.0

    def test_structure_equation(self, grid8):
        # d(e4) = e12: a constant e4 coefficient produces exactly c12 = 1
        zero = ScalarField.zeros(grid8)
        one = ScalarField.constant(grid8, 1.0)
        d = exterior_d(OneForm(zero, zero, zero, one))
        assert np.all(d.c12.values == 1.0)
        for name in ("c13", "c14", "c23", "c24", "c34"):
            assert np.max(np.abs(getattr(d, name).values)) < 1e-14

    def test_single_x_mode(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x), grid8)
        d = exterior_d(alpha_from_u(u))
        expected_c24 = sample(lambda x, y, t: TAU**2 * np.sin(TAU * x), grid8)
        assert np.allclose(d.c24.values, expected_c24.values, atol=1e-11)
        for name in ("c12", "c13", "c14", "c23", "c34"):
            assert np.max(np.abs(getattr(d, name).values)) < 1e-11

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_curvature_coefficients(self, grid16, seed):
        # the convention-validating identity: d(alpha(u)) must reproduce the
        # (1,1) expansion coefficient-by-coefficient
        u = random_band_limited(grid16, np.random.default_rng(seed), max_mode=3, amplitude=0.5)
        d = exterior_d(alpha_from_u(u))
        uyy = derivative(u, "y", 2)
        utt = derivative(u, "t", 2)
        ut = derivative(u, "t", 1)
        uxx = derivative(u, "x", 2)
        uxy = _second(u, "x", "y")
        uxt = _second(u, "x", "t")
        for got, want in [
            (d.c13, uyy + utt + ut),
            (d.c24, -uxx),
            (d.c23, uxy),
            (d.c14, -uxy),
            (d.c12, uxt),
            (d.c34, -uxt),
        ]:
            assert np.allclose(got.values, want.values, atol=1e-11)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_d_squared_vanishes(self, grid16, seed):
        rng = np.random.default_rng(seed)
        coeffs = [random_band_limited(grid16, rng, max_mode=3) for _ in range(4)]
        dd = exterior_d_two(exterior_d(OneForm(*coeffs)))
        assert dd.sup() < 1e-10


FORMS = pytest.mark.parametrize("form, count", [(OneForm, 4), (TwoForm, 6), (ThreeForm, 4)])


class TestFormGrid:
    @FORMS
    def test_grid_is_that_of_the_coefficients(self, form, count):
        grid = GridSpec(9, 9, 9)
        assert form(*[ScalarField.zeros(grid)] * count).grid == grid

    @FORMS
    def test_refuses_coefficients_on_different_grids(self, form, count):
        f9, f11 = ScalarField.zeros(GridSpec(9, 9, 9)), ScalarField.zeros(GridSpec(11, 11, 11))
        with pytest.raises(ValueError, match=f"{form.__name__} coefficients must share one grid"):
            form(f9, f11, *[f9] * (count - 2))

    def test_two_form_difference_is_coefficientwise(self, grid8, rng):
        a, b = (TwoForm(*[random_band_limited(grid8, rng, max_mode=3) for _ in range(6)]) for _ in range(2))
        for name in ("c12", "c13", "c14", "c23", "c24", "c34"):
            want = getattr(a, name).values - getattr(b, name).values
            assert np.array_equal(getattr(a - b, name).values, want)


class TestJInvariance:
    def test_standard_form(self, grid8):
        assert check_j_invariance(standard_form(grid8))["max_violation"] == 0.0

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_curvature_is_invariant(self, grid16, seed):
        u = random_band_limited(grid16, np.random.default_rng(seed), max_mode=3, amplitude=0.5)
        d = exterior_d(alpha_from_u(u))
        assert check_j_invariance(d)["max_violation"] <= 1e-12
        assert d.is_j_invariant()

    def test_constructed_failure(self, grid8):
        zero = ScalarField.zeros(grid8)
        one = ScalarField.constant(grid8, 1.0)
        omega = TwoForm(c12=zero, c13=zero, c14=one, c23=zero, c24=zero, c34=zero)
        assert check_j_invariance(omega)["max_violation"] == pytest.approx(1.0)
        assert not omega.is_j_invariant()


class TestWedgeRatio:
    def test_standard_form_is_one(self, grid8):
        r = wedge_ratio(standard_form(grid8))
        assert np.allclose(r.values, 1.0, atol=1e-15)

    @pytest.mark.parametrize("seed", [8, 9, 10])
    def test_independent_path_identity(self, grid16, seed):
        # wedge algebra against the direct scalar operator
        u = random_band_limited(grid16, np.random.default_rng(seed), max_mode=3, amplitude=0.05)
        omega = standard_form(grid16) + exterior_d(alpha_from_u(u))
        assert np.max(np.abs(wedge_ratio(omega).values - ma_lhs(u).values)) <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, 2.2])
    def test_rotated_forms_unit_volume(self, grid8, theta):
        r = wedge_ratio(omega_theta(theta, grid8))
        assert np.allclose(r.values, 1.0, atol=1e-15)


class TestOmegaTheta:
    def test_theta_zero_is_standard(self, grid8):
        w = omega_theta(0.0, grid8)
        assert np.all(w.c13.values == 1.0)
        assert np.all(w.c24.values == -1.0)
        for name in ("c12", "c14", "c23", "c34"):
            assert np.max(np.abs(getattr(w, name).values)) == 0.0

    def test_theta_half_pi(self, grid8):
        w = omega_theta(np.pi / 2, grid8)
        assert np.allclose(w.c14.values, 1.0, atol=1e-15)
        assert np.allclose(w.c23.values, 1.0, atol=1e-15)
        assert np.max(np.abs(w.c13.values)) < 1e-15
        assert np.max(np.abs(w.c24.values)) < 1e-15

    @pytest.mark.parametrize("theta", [0.0, 0.7, np.pi / 2, 4.0])
    def test_closed(self, grid8, theta):
        assert exterior_d_two(omega_theta(theta, grid8)).sup() < 1e-14


class TestMetricField:
    def test_flat_is_identity(self, grid8):
        g = metric_field(ScalarField.zeros(grid8))
        for i in range(4):
            for j in range(4):
                expect = 1.0 if i == j else 0.0
                assert np.allclose(g.entry(i, j).values, expect, atol=1e-15)
        assert np.allclose(g.trace().values, 4.0, atol=1e-14)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_trace_formula(self, grid16, seed):
        u = random_band_limited(grid16, np.random.default_rng(seed), max_mode=3, amplitude=0.5)
        lap = (
            derivative(u, "x", 2) + derivative(u, "y", 2) + derivative(u, "t", 2)
        )
        want = 2.0 * (lap + derivative(u, "t", 1) + 2.0)
        assert np.max(np.abs(metric_field(u).trace().values - want.values)) <= 1e-12

    def test_x_mode_entry(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x), grid8)
        g = metric_field(u)
        want = sample(lambda x, y, t: 1.0 - TAU**2 * np.sin(TAU * x), grid8)
        assert np.allclose(g.entry(1, 1).values, want.values, atol=1e-11)

    def test_positive_definite_matches_ellipticity(self, grid16):
        # metric eigenvalues against the closed-form smallest symbol root on
        # a manufactured pair, where e^F equals the determinant ratio exactly;
        # the closed-form root subtracts two O(1) squares under the sqrt, so
        # its accuracy floor near eigenvalue coalescence is sqrt(eps) ~ 1e-8
        from ktcy.pde import manufacture

        u_star = sample(
            lambda x, y, t: 0.01 * np.sin(TAU * x) + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
            grid16,
        )
        F, u0 = manufacture(u_star)
        g = metric_field(u0)
        report = ellipticity_report(u0, F)
        assert report.min_lambda > 0
        assert g.min_eigenvalue() > 0
        assert g.min_eigenvalue() == pytest.approx(report.min_lambda, abs=1e-6)

    def test_symmetry_enforced(self, grid8):
        from ktcy.geometry import MetricField

        zero = ScalarField.zeros(grid8)
        one = ScalarField.constant(grid8, 1.0)
        rows = [[one, zero, zero, zero],
                [ScalarField.zeros(grid8), one, zero, zero],  # distinct object breaks symmetry
                [zero, zero, one, zero],
                [zero, zero, zero, one]]
        with pytest.raises(ValueError, match="symmetric"):
            MetricField(rows)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3)], ids=str)
    def test_refuses_a_matrix_that_is_not_4x4(self, grid8, shape):
        from ktcy.geometry import MetricField

        zero = ScalarField.zeros(grid8)
        rows = [[zero] * shape[1] for _ in range(shape[0])]
        with pytest.raises(ValueError, match="4x4 matrix"):
            MetricField(rows)

