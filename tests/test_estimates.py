"""Tests for the a-priori estimate audit and the empirical uniqueness probe."""

import numpy as np
import pytest

from ktcy.pde import ellipticity_report, is_solution, manufacture, renormalize, residual
from ktcy.estimates import uniqueness_probe, verify
from ktcy.field import GridSpec, ScalarField, random_band_limited, sample
from ktcy.solver import SolverConfig, solve

TAU = 2.0 * np.pi

CHECK_NAMES = (
    "a_sup_ux_bound",
    "b_uxx_above_minus_one",
    "c_p_factor_above_minus_one",
    "d_trace_floor",
    "e_l2_bound",
    "f_gradient_energy",
    "g_poincare",
    "h_ut_moment",
    "i_uniform_ellipticity",
    "j_mean_residual",
)


class TestVerify:
    def test_flat_state(self, grid8):
        report = verify(ScalarField.zeros(grid8), ScalarField.zeros(grid8))
        assert tuple(c.name for c in report.checks) == CHECK_NAMES
        assert report.passed
        assert not report.informative
        assert report.check("d_trace_floor").margin == pytest.approx(0.0, abs=1e-14)
        assert report.check("e_l2_bound").margin == pytest.approx(2.0)
        assert report.sup_u == 0.0
        assert report.sup_laplacian == 0.0

    def test_manufactured_solution_passes(self, grid16):
        u_star = sample(
            lambda x, y, t: 0.01 * np.sin(TAU * x)
            + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
            grid16,
        )
        F, u0 = manufacture(u_star)
        report = verify(u0, F)
        assert report.passed
        assert not report.informative
        for c in report.checks:
            assert c.margin >= -1e-8 * (1.0 + abs(c.rhs))

    def test_non_solution_is_informative(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x) / TAU, grid8)
        report = verify(u, ScalarField.zeros(grid8))
        assert report.informative
        # the mean-residual identity is state-independent
        assert report.check("j_mean_residual").passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identity_checks_hold_off_solutions(self, grid16, seed):
        # (g), (h), (j) hold for arbitrary mean-zero fields
        rng = np.random.default_rng(seed)
        u = random_band_limited(grid16, rng, max_mode=4, amplitude=0.05)
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.5))
        report = verify(u, F)
        assert report.check("g_poincare").passed
        assert report.check("h_ut_moment").passed
        assert report.check("j_mean_residual").passed

    def test_deterministic_margins(self, grid16, rng):
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.01)
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.4))
        first = verify(u, F)
        second = verify(u, F)
        for a, b in zip(first.checks, second.checks):
            assert a.margin == b.margin  # bitwise

    def test_linearizes_once(self, grid16, rng, monkeypatch, pde_calls):
        # a fresh audit takes its derivatives from one kernel call and calls
        # no linearize; given the coefficients it asks the kernel for the gradient
        import ktcy.estimates
        from ktcy.pde import linearize

        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.01)
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.4))
        fresh = verify(u, F)
        calls, kernel = [], ktcy.estimates._derivatives

        def counting(v, **kwargs):
            calls.append(kwargs)
            return kernel(v, **kwargs)

        monkeypatch.setattr(ktcy.estimates, "_derivatives", counting)
        linearizes = pde_calls("linearize")
        verify(u, F)
        assert calls == [{"second": True}] and linearizes == []
        given = verify(u, F, coeffs=linearize(u))
        assert calls[1:] == [{"second": False}]
        assert [c.margin for c in given.checks] == [c.margin for c in fresh.checks]
        assert given.informative == fresh.informative

    def test_transform_counts(self, grid16, rng, fft_calls):
        # a fresh audit: the 5 + 7 of linearize and u_y; given the
        # coefficients, the gradient alone
        from ktcy.pde import linearize

        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.01)
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.4))
        c = linearize(u)
        fft_calls.clear()
        verify(u, F)
        assert fft_calls == {"numpy.fft.rfft": 5, "numpy.fft.irfft": 8}
        fft_calls.clear()
        verify(u, F, coeffs=c)
        assert fft_calls == {"numpy.fft.rfft": 3, "numpy.fft.irfft": 3}

    def test_fresh_and_given_audits_agree_on_a_solution(self, grid16, rng):
        # the benchmark re-audits a solve's solution and gates on the
        # solve's own margins, bitwise
        from ktcy.pde import linearize

        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.4))
        report = solve(F, SolverConfig(grid=grid16))
        fresh = verify(report.u, F)
        assert fresh.passed and not fresh.informative
        for given in (report.estimates, verify(report.u, F, coeffs=linearize(report.u))):
            assert [c.margin for c in given.checks] == [c.margin for c in fresh.checks]
            assert given == fresh

    def test_grid_mismatch(self, grid8, grid16):
        from ktcy.field import GridMismatchError

        with pytest.raises(GridMismatchError):
            verify(ScalarField.zeros(grid16), ScalarField.zeros(grid8))

    @pytest.mark.parametrize("solved", [False, True], ids=["state", "solution"])
    def test_takes_the_residual_once(self, grid16, rng, monkeypatch, solved):
        # from its one linearization: ma_lhs(u) is taken once, and the
        # solution test reads that residual instead of taking its own
        from ktcy.pde import LinearizedCoeffs

        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.4))
        if solved:
            u = solve(F, SolverConfig(grid=grid16)).u
        else:
            u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.01)
        calls, lhs = [], LinearizedCoeffs.lhs

        def counting(coeffs):
            calls.append(1)
            return lhs(coeffs)

        monkeypatch.setattr(LinearizedCoeffs, "lhs", counting)
        report = verify(u, F)
        assert len(calls) == 1
        assert report.informative == (not is_solution(u, F))

    @pytest.mark.parametrize("solved", [False, True], ids=["state", "solution"])
    def test_carries_ellipticity_and_residual_norms(self, grid16, rng, solved):
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.4))
        if solved:
            u = solve(F, SolverConfig(grid=grid16)).u
        else:
            u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.01)
        report = verify(u, F)
        assert report.ellipticity == ellipticity_report(u, F)
        res = residual(u, F).values
        assert report.residual_sup == float(np.max(np.abs(res)))
        assert report.residual_l2 == pytest.approx(float(np.sqrt(np.mean(res**2))), rel=1e-14, abs=0.0)
        assert report.check("j_mean_residual").lhs == pytest.approx(
            float(np.mean(res)), rel=1e-12, abs=1e-30
        )
        assert report.informative == (not solved)

    def test_second_derivative_checks_match_direct_derivatives(self, grid16, rng):
        # (b), (c) and sup |laplacian u| come from the linearization's
        # coefficients; they agree with per-axis derivatives to rounding
        from ktcy.field import derivative

        u = random_band_limited(grid16, rng, max_mode=5, amplitude=0.02)
        report = verify(u, ScalarField.zeros(grid16))
        uxx, uyy, utt = (derivative(u, a, 2).values for a in "xyt")
        ut = derivative(u, "t", 1).values
        lhs_b = report.check("b_uxx_above_minus_one").lhs
        lhs_c = report.check("c_p_factor_above_minus_one").lhs
        assert lhs_b == pytest.approx(float(np.min(uxx)), abs=1e-14)
        assert lhs_c == pytest.approx(float(np.min(uyy + utt + ut)), abs=1e-14)
        assert report.sup_laplacian == pytest.approx(
            float(np.max(np.abs(uxx + uyy + utt))), abs=1e-13
        )

    def test_poincare_rescaled_label_off_unit_box(self, rng):
        g = GridSpec(16, 16, 16, L_x=2.0, L_y=2.0)
        u = random_band_limited(g, rng, max_mode=3, amplitude=0.01)
        report = verify(u, ScalarField.zeros(g))
        assert "rescaled" in report.check("g_poincare").note


class TestUniquenessProbe:
    def test_requires_two_trials(self, grid16):
        with pytest.raises(ValueError, match="trials"):
            uniqueness_probe(ScalarField.zeros(grid16), SolverConfig(grid=grid16), trials=1)

    def test_trivial_datum(self, grid16):
        probe = uniqueness_probe(ScalarField.zeros(grid16), SolverConfig(grid=grid16), trials=3)
        assert probe.trials == 3
        assert probe.max_pairwise_sup_diff <= 1e-10

    def test_manufactured_datum(self, grid16):
        u_star = sample(
            lambda x, y, t: 0.01 * np.sin(TAU * x)
            + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
            grid16,
        )
        F, _ = manufacture(u_star)
        probe = uniqueness_probe(F, SolverConfig(grid=grid16), trials=3)
        assert probe.max_pairwise_sup_diff <= 1e-8

    def test_stiff_datum(self):
        # the first datum of the large-amplitude benchmark stream at 32^3: its
        # solution has min P = 0.054, and a bump of sup 1e-3 would move P
        # by about 0.09, out of the cone, where Newton refuses to start
        grid = GridSpec(32, 32, 32)
        X, Y, T = grid.meshgrid()
        rng = np.random.default_rng(1)
        F = renormalize(
            ScalarField(grid, 3.0 * np.sin(TAU * X) * np.sin(TAU * Y) * np.sin(TAU * T))
            + random_band_limited(grid, rng, max_mode=3, amplitude=0.3)
        )
        probe = uniqueness_probe(F, SolverConfig(grid=grid), trials=3)
        assert probe.max_pairwise_sup_diff <= 1e-8


class TestSolverAuditIntegration:
    def test_solve_report_carries_passing_audit(self, grid16, rng):
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.5))
        report = solve(F, SolverConfig(grid=grid16))
        assert report.estimates.passed
        assert not report.estimates.informative
        sup_ux = report.estimates.check("a_sup_ux_bound").lhs
        assert sup_ux <= 1.0 + 1e-8
