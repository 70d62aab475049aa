"""Tests for the scalar operator, linearization and ellipticity diagnostics."""

import math

import numpy as np
import pytest

from ktcy.field import (
    GridMismatchError,
    GridSpec,
    ScalarField,
    _derivatives,
    derivative,
    mean,
    operator_symbols,
    random_band_limited,
    sample,
)
from ktcy.pde import (
    LinearizedCoeffs,
    MeanPreconditioner,
    apply_linearized,
    ellipticity_report,
    is_solution,
    linearize,
    ma_lhs,
    residual,
)

TAU = 2.0 * np.pi


class TestMaLhs:
    def test_flat(self, grid8):
        out = ma_lhs(ScalarField.zeros(grid8))
        assert np.allclose(out.values, 1.0, atol=1e-15)

    def test_small_x_mode_at_quarter(self, grid8):
        u = sample(lambda x, y, t: 0.001 * np.sin(TAU * x), grid8)
        out = ma_lhs(u)
        # at x = 1/4 (grid index 2 of 8) the value is 1 - 0.001 * 4 pi^2
        want = 1.0 - 0.001 * TAU**2
        assert out.values[2, 0, 0] == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.960522, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mean_identity(self, grid16, seed):
        u = random_band_limited(grid16, np.random.default_rng(seed), max_mode=4, amplitude=0.05)
        assert abs(mean(ma_lhs(u)) - 1.0) <= 1e-12

    def test_mean_identity_general_box(self, rng):
        g = GridSpec(16, 8, 12, L_x=math.sqrt(2.0), L_y=math.sqrt(2.0))
        u = random_band_limited(g, rng, max_mode=3, amplitude=0.05)
        assert abs(mean(ma_lhs(u)) - 1.0) <= 1e-12


class TestResidual:
    def test_flat_zero(self, grid8):
        r = residual(ScalarField.zeros(grid8), ScalarField.zeros(grid8))
        assert np.max(np.abs(r.values)) == 0.0

    @pytest.mark.parametrize("seed", [4, 5])
    def test_mean_residual_vanishes_for_normalized_data(self, grid16, seed):
        from ktcy.pde import renormalize

        rng = np.random.default_rng(seed)
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.05)
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.5))
        assert abs(mean(residual(u, F))) <= 1e-12

    def test_manufactured_residual_is_zero(self, grid16):
        from ktcy.pde import manufacture

        u_star = sample(lambda x, y, t: 0.01 * np.sin(TAU * x), grid16)
        F, u0 = manufacture(u_star)
        r = residual(u0, F)
        assert np.max(np.abs(r.values)) <= 1e-15

    def test_grid_mismatch(self, grid8, grid16):
        with pytest.raises(GridMismatchError):
            residual(ScalarField.zeros(grid8), ScalarField.zeros(grid16))


class TestLinearize:
    def test_flat_coefficients(self, grid8):
        c = linearize(ScalarField.zeros(grid8))
        assert np.allclose(c.P, 1.0, atol=1e-15)
        assert np.allclose(c.Q, 1.0, atol=1e-15)
        assert np.max(np.abs(c.R)) < 1e-15
        assert np.max(np.abs(c.S)) < 1e-15

    def test_flat_apply_is_heat_like(self, grid8):
        c = linearize(ScalarField.zeros(grid8))
        w = sample(lambda x, y, t: np.sin(TAU * t), grid8)
        out = apply_linearized(c, w)
        want = sample(
            lambda x, y, t: -TAU**2 * np.sin(TAU * t) + TAU * np.cos(TAU * t), grid8
        )
        assert np.allclose(out.values, want.values, atol=1e-11)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_central_differences_confirm_linearization(self, grid16, seed):
        # the operator is quadratic in u, so central differences of ma_lhs
        # agree with L w exactly; measured error is pure rounding and is
        # bounded by eps^2 for every tested eps (see the acceptance notes)
        rng = np.random.default_rng(seed)
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.05)
        w = random_band_limited(grid16, rng, max_mode=3, amplitude=0.05)
        want = apply_linearized(linearize(u), w)
        scale = np.max(np.abs(want.values))
        for eps in (1e-3, 1e-4, 1e-5):
            fd = (ma_lhs(u + eps * w) - ma_lhs(u - eps * w)) / (2.0 * eps)
            rel_err = np.max(np.abs(fd.values - want.values)) / scale
            assert rel_err <= eps**2
            assert rel_err <= 1e-9

    def test_coefficients_are_read_only_arrays(self, grid16, rng):
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.05)
        c = linearize(u)
        assert c.grid == grid16
        for name in "PQRS":
            a = getattr(c, name)
            assert isinstance(a, np.ndarray) and a.shape == grid16.shape
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0, 0] = 0.0

    @pytest.mark.parametrize("shape", [(16, 16, 16), (9, 9, 9)], ids=["16^3", "9^3"])
    def test_lhs_is_ma_lhs_bitwise(self, shape, rng):
        u = random_band_limited(GridSpec(*shape), rng, max_mode=3, amplitude=0.05)
        lhs = linearize(u).lhs()
        assert isinstance(lhs, np.ndarray)
        assert np.array_equal(lhs, ma_lhs(u).values)

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(9, 11, 7),
            GridSpec(12, 8, 6, L_x=1.5, L_y=0.7, L_t=2.0),
            GridSpec(18, 18, 8, L_x=math.sqrt(5.0), L_y=math.sqrt(5.0)),
        ],
        ids=["9x11x7", "12x8x6", "18x18x8-sqrt5"],
    )
    def test_kernel_is_bitwise_the_per_axis_derivatives(self, grid, rng):
        # one rfft per axis, and u_xy, u_xt from u_x: white noise excites
        # every mode, Nyquist included
        def d(f, a, k=1):
            return derivative(f, a, k)

        u = ScalarField(grid, rng.standard_normal(grid.shape))
        ux = d(u, "x")
        want = {
            "x": ux, "y": d(u, "y"), "t": d(u, "t"),
            "xx": d(u, "x", 2), "yy": d(u, "y", 2), "tt": d(u, "t", 2),
            "xy": d(ux, "y"), "xt": d(ux, "t"),
        }
        kernel = _derivatives(u)
        for name, field in want.items():
            assert np.array_equal(getattr(kernel, name), field.values), name
        for name in "xyt":
            assert np.array_equal(getattr(_derivatives(u, second=False), name), want[name].values)
        assert _derivatives(u, gradient=False).y is None
        c = linearize(u)
        assert np.array_equal(c.P, (want["yy"] + want["tt"] + want["t"] + 1.0).values)
        assert np.array_equal(c.Q, (want["xx"] + 1.0).values)
        assert np.array_equal(c.R, want["xy"].values)
        assert np.array_equal(c.S, want["xt"].values)

    def test_one_forward_transform_per_axis(self, grid16, rng, fft_calls):
        # 3 forward transforms of u and 2 of u_x; 7 inverse, one per derivative
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.05)
        fft_calls.clear()
        linearize(u)
        assert fft_calls == {"numpy.fft.rfft": 5, "numpy.fft.irfft": 7}

    def test_coefficients_vanish_for_x_only_states(self, grid8):
        u = sample(lambda x, y, t: 0.01 * np.sin(TAU * x), grid8)
        c = linearize(u)
        assert np.max(np.abs(c.R)) < 1e-14
        assert np.max(np.abs(c.S)) < 1e-14

    def test_grid_mismatch(self, grid8, grid16):
        c = linearize(ScalarField.zeros(grid8))
        with pytest.raises(GridMismatchError):
            apply_linearized(c, ScalarField.zeros(grid16))

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(16, 16, 16),
            GridSpec(12, 8, 6, L_x=1.5, L_y=0.7, L_t=2.0),
            GridSpec(18, 18, 8, L_x=math.sqrt(5.0), L_y=math.sqrt(5.0)),
            GridSpec(9, 9, 9),
            GridSpec(15, 8, 7, L_x=1.5, L_y=0.7, L_t=2.0),
        ],
        ids=["16^3", "12x8x6", "18x18x8-sqrt5", "9^3", "15x8x7"],
    )
    def test_apply_matches_per_axis_composition(self, grid, rng):
        # white noise excites every mode, Nyquist included, so the symbol
        # table must reproduce the per-axis Nyquist conventions exactly, on
        # even axes and on odd ones, which have no Nyquist mode
        def d(f, a, k=1):
            return derivative(f, a, k)

        u = random_band_limited(grid, rng, max_mode=1, amplitude=0.05)
        w = ScalarField(grid, rng.standard_normal(grid.shape))
        P = d(u, "y", 2) + d(u, "t", 2) + d(u, "t") + 1.0
        Q = d(u, "x", 2) + 1.0
        R = d(d(u, "x"), "y")
        S = d(d(u, "x"), "t")
        assert np.array_equal(ma_lhs(u).values, (Q * P - R * R - S * S).values)

        want = (
            P * d(w, "x", 2)
            + Q * (d(w, "y", 2) + d(w, "t", 2))
            - 2.0 * (R * d(d(w, "x"), "y"))
            - 2.0 * (S * d(d(w, "x"), "t"))
            + Q * d(w, "t")
        )
        got = apply_linearized(linearize(u), w)
        scale = np.max(np.abs(want.values))
        assert np.max(np.abs(got.values - want.values)) <= 1e-13 * scale

        # the grid-mean preconditioner, folded into the apply, equals
        # applying L to M^{-1} w
        c = linearize(u)
        want = apply_linearized(c, _mean_inverse(c, w))
        got = apply_linearized(c, w, preconditioner=MeanPreconditioner(c))
        scale = np.max(np.abs(want.values))
        assert np.max(np.abs(got.values - want.values)) <= 1e-13 * scale


def _mean_inverse(c, w):
    """M^{-1} w for the grid-mean operator M = Pbar d_xx + Qbar (d_yy + d_tt +
    d_t) of c in its frame, zero on the zero mode, built from the symbol table."""
    grid = w.grid
    symbols = operator_symbols(grid, c.angle)
    symbol = float(np.mean(c.P)) * symbols.xx + float(np.mean(c.Q)) * symbols.yy_tt_t
    symbol[0, 0, 0] = 1.0
    inverse = 1.0 / symbol
    inverse[0, 0, 0] = 0.0
    spec = np.fft.rfftn(w.values) * inverse
    return w.with_values(np.fft.irfftn(spec, s=grid.shape, axes=(0, 1, 2)))


PRECONDITIONED_CASES = pytest.mark.parametrize(
    "grid, angle",
    [
        (GridSpec(9, 11, 7), None),
        (GridSpec(12, 8, 6, L_x=2.0, L_y=1.5, L_t=0.7), None),
        (GridSpec(10, 9, 8), (0.6, 0.8)),
    ],
    ids=["9x11x7", "12x8x6", "rotated"],
)


class TestPreconditionedApply:
    """L M^{-1} w in one forward and three inverse transforms: the Q group of
    L M^{-1} is rewritten through the xx group and the mean-zero projection."""

    @staticmethod
    def _state(grid, angle, rng):
        # u varies in every direction and t, so R, S and the d_t part of M
        # all enter; white noise w excites every mode, Nyquist included
        u = random_band_limited(grid, rng, max_mode=1, amplitude=0.05)
        return linearize(u, angle), ScalarField(grid, rng.standard_normal(grid.shape))

    @PRECONDITIONED_CASES
    def test_equals_the_apply_of_the_explicit_inverse(self, grid, angle, rng):
        c, w = self._state(grid, angle, rng)
        want = apply_linearized(c, _mean_inverse(c, w)).values
        got = apply_linearized(c, w, preconditioner=MeanPreconditioner(c)).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @PRECONDITIONED_CASES
    def test_float32_matches_float64(self, grid, angle, rng):
        c, w = self._state(grid, angle, rng)
        want = apply_linearized(c, w, preconditioner=MeanPreconditioner(c)).values
        got = apply_linearized(c, w, preconditioner=MeanPreconditioner(c, np.float32)).values
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "dtype, backend", [(np.float64, "numpy.fft"), (np.float32, "scipy.fft")]
    )
    def test_one_forward_and_three_inverse_transforms(self, grid16, rng, fft_calls, dtype, backend):
        c, w = self._state(grid16, None, rng)
        K = MeanPreconditioner(c, dtype)
        fft_calls.clear()
        apply_linearized(c, w, preconditioner=K)
        assert fft_calls == {f"{backend}.rfftn": 1, f"{backend}.irfftn": 3}
        fft_calls.clear()
        assert K.solve(w.values).dtype == dtype
        assert fft_calls == {f"{backend}.rfftn": 1, f"{backend}.irfftn": 1}

    def test_refuses_the_preconditioner_of_another_frame(self, grid16, rng):
        c, w = self._state(grid16, None, rng)
        K = MeanPreconditioner(linearize(ScalarField.zeros(grid16), (0.6, 0.8)))
        with pytest.raises(ValueError, match="preconditioner"):
            apply_linearized(c, w, preconditioner=K)


class TestSinglePrecisionApply:
    """The preconditioned apply runs in the precision of its preconditioner."""

    @pytest.mark.parametrize("angle", [None, (0.6, 0.8)], ids=["axes", "rotated"])
    def test_float32_coefficients_match_the_float64_apply(self, grid16, rng, angle):
        # u and w vary in t, so the d_t part of M and the complex composite
        # symbols both enter: dropping either imaginary part misses by far
        # more than the bound
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.02)
        w = random_band_limited(grid16, rng, max_mode=4)
        assert np.max(np.abs(derivative(u, "t", 1).values)) > 0.01
        c = linearize(u, angle)
        single = MeanPreconditioner(c, np.float32)
        assert single.dtype == np.float32
        for name in ("P_fold", "Q_fold", "R", "S"):
            assert getattr(single, name).dtype == np.float32
        for name in ("xx", "xy", "xt", "inverse"):
            assert getattr(single, name).dtype == np.complex64
        want = apply_linearized(c, w, preconditioner=MeanPreconditioner(c)).values
        got = apply_linearized(c, w, preconditioner=single).values
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


class TestSymbolEigenvalues:
    """The smallest eigenvalue Lambda of the principal symbol [[P, R, S],
    [R, Q, 0], [S, 0, Q]], as ``ellipticity_report`` takes it from the trace
    factor and e^F."""

    def test_diagonal_case(self, grid8):
        # no mixed derivatives: the eigenvalues are {P, Q, Q}, and at
        # F = log ma_lhs(u) = log PQ the report's min Lambda is min(P, Q)
        u = sample(
            lambda x, y, t: 0.002 * np.sin(TAU * x) + 0.003 * np.sin(TAU * y), grid8
        )
        c = linearize(u)
        rep = ellipticity_report(u, u.with_values(np.log(c.lhs())), coeffs=c)
        assert rep.min_lambda == pytest.approx(float(np.min(np.minimum(c.P, c.Q))), abs=1e-12)
        assert not rep.sqrt_clamped

    @pytest.mark.parametrize("seed", [8, 9, 10])
    def test_eigenvalue_sandwich(self, grid16, seed):
        # at F = log ma_lhs(u) the discriminant is (P - Q)^2 + 4 R^2 + 4 S^2,
        # never negative, and 0 < Lambda <= Q pointwise; the amplitude keeps
        # ma_lhs(u) positive, with |R| and |S| up to about 0.3
        u = random_band_limited(grid16, np.random.default_rng(seed), max_mode=3, amplitude=0.002)
        lhs = ma_lhs(u)
        assert np.min(lhs.values) > 0.0
        rep = ellipticity_report(u, lhs.with_values(np.log(lhs.values)))
        assert not rep.sqrt_clamped
        assert 0.0 < rep.min_lambda <= rep.min_q + 1e-13


class TestEllipticityReport:
    def test_flat(self, grid8):
        rep = ellipticity_report(ScalarField.zeros(grid8), ScalarField.zeros(grid8))
        assert rep.min_trace == pytest.approx(2.0)
        assert rep.min_lambda == pytest.approx(1.0)
        assert rep.min_q == pytest.approx(1.0)
        assert rep.min_p == pytest.approx(1.0)
        assert rep.q_positive and rep.p_positive and rep.trace_bound_ok
        assert not rep.sqrt_clamped
        assert rep.admissible

    def test_closed_form_lambda(self, grid8):
        # e^F = 1/4 at the flat state: Lambda = (2 - sqrt(3)) / 2
        F = ScalarField.constant(grid8, math.log(0.25))
        rep = ellipticity_report(ScalarField.zeros(grid8), F)
        want = (2.0 - math.sqrt(3.0)) / 2.0
        assert rep.min_lambda == pytest.approx(want, abs=1e-14)
        assert want == pytest.approx(0.133975, abs=1e-6)

    def test_clamp_flag_off_solution(self, grid8):
        # flat state with e^F = 2 makes the square-root argument negative
        F = ScalarField.constant(grid8, math.log(2.0))
        rep = ellipticity_report(ScalarField.zeros(grid8), F)
        assert rep.sqrt_clamped
        assert rep.min_lambda == pytest.approx(1.0)  # clamped root

    @pytest.mark.parametrize("seed", [11, 12])
    def test_lambda_below_p_and_q_on_manufactured_pairs(self, grid16, seed):
        from ktcy.pde import manufacture

        u_star = random_band_limited(
            grid16, np.random.default_rng(seed), max_mode=2, amplitude=0.002
        )
        F, u0 = manufacture(u_star)
        rep = ellipticity_report(u0, F)
        assert rep.min_lambda <= min(rep.min_p, rep.min_q) + 1e-12

    def test_given_coefficients_match_fresh_linearization(self, grid16):
        u = random_band_limited(grid16, np.random.default_rng(13), max_mode=3, amplitude=0.003)
        F = random_band_limited(grid16, np.random.default_rng(14), max_mode=3, amplitude=0.2)
        assert ellipticity_report(u, F, coeffs=linearize(u)) == ellipticity_report(u, F)


class TestSolutionTest:
    def test_flat_is_solution(self, grid8):
        assert is_solution(ScalarField.zeros(grid8), ScalarField.zeros(grid8))

    def test_non_solution(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x) / TAU, grid8)
        assert not is_solution(u, ScalarField.zeros(grid8))

    def test_threshold_scales_with_datum(self, grid8):
        u = ScalarField.zeros(grid8)
        F = ScalarField.constant(grid8, 0.0)
        assert is_solution(u, F)
        # residual 5e-9 against tolerance 1e-10 * max(1, sup e^F)
        u2 = u.with_values(u.values + 0.0)
        r = residual(u2, F)
        assert np.max(np.abs(r.values)) < 1e-10
