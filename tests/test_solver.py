"""Tests for the continuity-method solver and its Newton/Krylov machinery."""

import math

import numpy as np
import pytest

from ktcy.pde import manufacture, renormalize
from ktcy.field import (
    GridSpec,
    ScalarField,
    mean,
    project_mean_zero,
    random_band_limited,
    resample,
    sample,
)
from ktcy.pde import apply_linearized, continuity_datum, linearize, residual
from ktcy.solver import (
    ContinuationStalled,
    DampingConfig,
    EllipticityLost,
    NewtonStalled,
    NormalizationError,
    SolverConfig,
    newton_solve,
    newton_step,
    solve,
    solve_linearized,
)

TAU = 2.0 * np.pi


def _sup(values):
    return float(np.max(np.abs(values)))


@pytest.fixture
def cfg16(grid16):
    return SolverConfig(grid=grid16)


@pytest.fixture
def step_calls(monkeypatch):
    """List that grows by one per ``newton_step`` call the solver makes."""
    import ktcy.solver as solver_module

    calls = []
    step = solver_module.newton_step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(solver_module, "newton_step", counting_step)
    return calls


class TestSolverConfig:
    def test_defaults_valid(self, grid16):
        cfg = SolverConfig(grid=grid16)
        assert cfg.newton_tol > 0 and 0 < cfg.tau_initial_step <= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"newton_tol": 0.0},
            {"krylov_tol": -1e-9},
            {"tau_initial_step": 0.0},
            {"tau_initial_step": 1.5},
            {"tau_min_step": 0.0},
            {"newton_max_iters": 0},
            {"krylov_tol": 1.0},
            {"krylov_tol": 2.0},
        ],
    )
    def test_rejects_bad_values(self, grid16, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(grid=grid16, **kwargs)

    def test_damping_validation(self):
        with pytest.raises(ValueError):
            DampingConfig(factor=1.0)
        with pytest.raises(ValueError):
            DampingConfig(max_backtracks=-1)


class TestKrylov:
    def test_flat_case_single_iteration(self, grid16, cfg16, rng):
        # at u = 0 the preconditioner equals the operator, so GMRES needs one
        # inner iteration (two operator applications counting the initial
        # residual)
        rhs = random_band_limited(grid16, rng, max_mode=4)
        coeffs = linearize(ScalarField.zeros(grid16))
        w, applications = solve_linearized(coeffs, rhs, cfg16)
        assert applications <= 2
        out = apply_linearized(coeffs, w)
        assert np.allclose(out.values, project_mean_zero(rhs).values, atol=1e-12)

    def test_solution_is_mean_zero(self, grid16, cfg16, rng):
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.001)
        rhs = random_band_limited(grid16, rng, max_mode=3)
        w, _ = solve_linearized(linearize(u), rhs, cfg16)
        assert abs(mean(w)) < 1e-15

    def test_variable_coefficients_converge(self, grid16, cfg16, rng):
        # amplitude keeps the second derivatives well inside the elliptic cone
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.001)
        coeffs = linearize(u)
        rhs = project_mean_zero(random_band_limited(grid16, rng, max_mode=4))
        w, applications = solve_linearized(coeffs, rhs, cfg16)
        out = apply_linearized(coeffs, w)
        rel = _sup(out.values - rhs.values) / _sup(rhs.values)
        assert rel < 1e-7
        assert applications < 100

    @pytest.mark.parametrize("rtol", [1e-1, 1e-4, 1e-9])
    def test_true_residual_meets_rtol(self, grid16, cfg16, rng, rtol):
        # right preconditioning: GMRES stops on ||b - L w||_2 itself, not on
        # a preconditioned residual
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.001)
        coeffs = linearize(u)
        rhs = project_mean_zero(random_band_limited(grid16, rng, max_mode=4))
        w, _ = solve_linearized(coeffs, rhs, cfg16, rtol=rtol)
        r = apply_linearized(coeffs, w).values - rhs.values
        assert np.linalg.norm(r) <= rtol * np.linalg.norm(rhs.values)


class TestNewtonStep:
    def test_zero_residual_returns_input(self, grid16, cfg16):
        u = ScalarField.zeros(grid16)
        F = ScalarField.zeros(grid16)
        result = newton_step(u, F, cfg16)
        assert result.krylov_iters == 0
        assert result.step_norm == 0.0
        assert np.array_equal(result.u_next.values, u.values)

    def test_refuses_inadmissible_state(self, grid16, cfg16):
        # u_xx dips below -1: outside the admissible cone
        u = sample(lambda x, y, t: 0.2 * np.sin(TAU * x), grid16)
        with pytest.raises(EllipticityLost):
            newton_step(u, ScalarField.zeros(grid16), cfg16)

    def test_first_step_contracts_residual(self, grid16, cfg16, rng):
        # near tau = 0 the start u = 0 is close to the path solution and one
        # step must reduce the sup-residual by a wide factor
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.5))
        F_tau = continuity_datum(F, 0.1)
        u = ScalarField.zeros(grid16)
        before = _sup(residual(u, F_tau).values)
        result = newton_step(u, F_tau, cfg16)
        after = _sup(residual(result.u_next, F_tau).values)
        assert after <= before / 10.0

    def test_accepted_step_is_mean_zero(self, grid16, cfg16, rng):
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.5))
        F_tau = continuity_datum(F, 0.2)
        result = newton_step(ScalarField.zeros(grid16), F_tau, cfg16)
        assert abs(mean(result.u_next)) < 1e-15

    def test_residual_strictly_decreases_along_iteration(self, grid16, cfg16, rng):
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.8))
        u = ScalarField.zeros(grid16)
        history = [_sup(residual(u, F).values)]
        while history[-1] > cfg16.newton_tol:
            u = newton_step(u, F, cfg16).u_next
            history.append(_sup(residual(u, F).values))
        assert len(history) >= 3
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_grid_mismatch_rejected(self, grid8, grid16, cfg16):
        with pytest.raises(Exception, match="grid"):
            newton_step(ScalarField.zeros(grid8), ScalarField.zeros(grid8), cfg16)

    @pytest.mark.parametrize("damping", [True, False])
    def test_carried_coefficients_are_those_of_the_next_state(self, grid16, rng, damping):
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.5))
        cfg = SolverConfig(grid=grid16, damping=DampingConfig(enabled=damping))
        first = newton_step(ScalarField.zeros(grid16), F, cfg)
        fresh = linearize(first.u_next)
        for name in "PQRS":
            assert np.array_equal(getattr(first.coeffs, name).values, getattr(fresh, name).values)
        # reusing them gives the step a fresh linearization would give
        reused = newton_step(first.u_next, F, cfg, coeffs=first.coeffs)
        recomputed = newton_step(first.u_next, F, cfg)
        assert np.array_equal(reused.u_next.values, recomputed.u_next.values)
        assert reused.residual_sup == recomputed.residual_sup


class TestSolve:
    def test_trivial_datum(self, grid16, cfg16):
        report = solve(ScalarField.zeros(grid16), cfg16)
        assert _sup(report.u.values) <= 1e-12
        assert len(report.trace.records) == 1
        assert report.trace.records[0].tau == 1.0
        assert report.trace.records[0].newton_iters == 0

    def test_rejects_unnormalized_datum(self, grid16, cfg16):
        F = ScalarField.constant(grid16, math.log(2.0))
        with pytest.raises(NormalizationError, match="expected"):
            solve(F, cfg16)

    def test_grid_mismatch(self, grid8, cfg16):
        from ktcy.field import GridMismatchError

        with pytest.raises(GridMismatchError):
            solve(ScalarField.zeros(grid8), cfg16)

    def test_manufactured_recovery(self, grid16, cfg16):
        u_star = sample(
            lambda x, y, t: 0.01 * np.sin(TAU * x)
            + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
            grid16,
        )
        F, u0 = manufacture(u_star)
        report = solve(F, cfg16)
        assert _sup(report.u.values - u0.values) <= 1e-9
        assert abs(mean(report.u)) < 1e-15
        assert report.final_residual_sup <= cfg16.newton_tol
        assert not report.estimates.informative
        assert report.estimates.passed

    def test_trace_structure(self, grid16, cfg16, rng):
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.6))
        report = solve(F, cfg16)
        accepted = report.trace.accepted
        taus = [r.tau for r in accepted]
        assert taus == sorted(taus)
        assert len(set(taus)) == len(taus)
        assert taus[-1] == 1.0
        assert all(r.lambda_min > 0 for r in accepted)

    def test_forcing_terms_match_fixed_tolerance_newton(self, grid16, cfg16, rng):
        # Newton steps to krylov_tol along the forced solve's accepted taus
        # land on the same solution with more Krylov work
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.6))
        report = solve(F, cfg16)
        assert report.final_residual_sup <= cfg16.newton_tol
        u, fixed_applications = ScalarField.zeros(grid16), 0
        for record in report.trace.accepted:
            F_tau = continuity_datum(F, record.tau)
            while True:
                step = newton_step(u, F_tau, cfg16)
                if step.krylov_iters == 0:
                    break
                u, fixed_applications = step.u_next, fixed_applications + step.krylov_iters
        assert _sup(u.values - report.u.values) <= 1e-12
        forced = sum(r.krylov_applications for r in report.trace.records)
        assert 0 < forced < fixed_applications

    def test_warm_start_agrees_with_continuation(self, grid16, cfg16):
        u_star = sample(
            lambda x, y, t: 0.01 * np.sin(TAU * x)
            + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
            grid16,
        )
        F, u0 = manufacture(u_star)
        from_path = solve(F, cfg16).u
        bump = random_band_limited(grid16, np.random.default_rng(99), max_mode=2, amplitude=1e-3)
        from_warm = newton_solve(project_mean_zero(u0 + bump), F, cfg16)
        assert _sup(from_path.values - from_warm.values) <= 1e-8

    def test_continuation_stalls_on_impossible_budget(self, grid16, rng):
        # one Newton iteration per tau step cannot converge, so the step
        # halves to the floor and the solver reports the stall honestly
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.6))
        cfg = SolverConfig(grid=grid16, newton_max_iters=1, tau_min_step=0.1)
        with pytest.raises(ContinuationStalled):
            solve(F, cfg)

    def test_newton_solve_raises_when_stalled(self, grid16, rng):
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.6))
        cfg = SolverConfig(grid=grid16, newton_max_iters=1)
        with pytest.raises(NewtonStalled):
            newton_solve(ScalarField.zeros(grid16), F, cfg)

    def test_newton_budget_caps_steps(self, grid16, rng, step_calls):
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.6))
        cfg = SolverConfig(grid=grid16, newton_max_iters=1)
        with pytest.raises(NewtonStalled, match="after 1 iterations"):
            newton_solve(ScalarField.zeros(grid16), F, cfg)
        assert len(step_calls) == 1

    def test_convergence_on_the_last_budgeted_step_succeeds(self, grid16, rng, step_calls):
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.3))
        u0 = ScalarField.zeros(grid16)
        free = newton_solve(u0, F, SolverConfig(grid=grid16))
        needed = len(step_calls)
        assert needed >= 2
        step_calls.clear()
        capped = newton_solve(u0, F, SolverConfig(grid=grid16, newton_max_iters=needed))
        assert len(step_calls) == needed
        assert np.array_equal(capped.values, free.values)


class TestGridRefinement:
    def test_solutions_agree_after_interpolation(self):
        f = lambda x, y, t: 0.3 * np.sin(TAU * x) * np.sin(TAU * y) * np.sin(TAU * t)
        g16, g32 = GridSpec(16, 16, 16), GridSpec(32, 32, 32)
        u16 = solve(renormalize(sample(f, g16)), SolverConfig(grid=g16)).u
        u32 = solve(renormalize(sample(f, g32)), SolverConfig(grid=g32)).u
        diff = _sup(resample(u16, g32).values - u32.values)
        assert diff <= 1e-6
