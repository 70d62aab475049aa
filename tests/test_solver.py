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
        assert cfg.newton_tol > 0 and 0 < cfg.tau_min_step <= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"newton_tol": 0.0},
            {"tau_min_step": 0.0},
            {"tau_min_step": 1.5},
            {"newton_max_iters": 0},
        ],
    )
    def test_rejects_bad_values(self, grid16, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(grid=grid16, **kwargs)


class TestKrylov:
    def test_flat_case_single_iteration(self, grid16, rng):
        # at u = 0 the preconditioner equals the operator, so GMRES needs one
        # inner iteration (two operator applications counting the initial
        # residual)
        rhs = random_band_limited(grid16, rng, max_mode=4)
        coeffs = linearize(ScalarField.zeros(grid16))
        w, applications = solve_linearized(coeffs, rhs)
        assert applications <= 2
        out = apply_linearized(coeffs, w)
        assert np.allclose(out.values, project_mean_zero(rhs).values, atol=1e-12)

    def test_solution_is_mean_zero(self, grid16, rng):
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.001)
        rhs = random_band_limited(grid16, rng, max_mode=3)
        w, _ = solve_linearized(linearize(u), rhs)
        assert abs(mean(w)) < 1e-15

    def test_variable_coefficients_converge(self, grid16, rng):
        # amplitude keeps the second derivatives well inside the elliptic cone
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.001)
        coeffs = linearize(u)
        rhs = project_mean_zero(random_band_limited(grid16, rng, max_mode=4))
        w, applications = solve_linearized(coeffs, rhs)
        out = apply_linearized(coeffs, w)
        rel = _sup(out.values - rhs.values) / _sup(rhs.values)
        assert rel < 1e-7
        assert applications < 100

    @pytest.mark.parametrize("rtol", [1e-1, 1e-4, 1e-9])
    def test_true_residual_meets_rtol(self, grid16, rng, rtol):
        # right preconditioning: GMRES stops on ||b - L w||_2 itself, not on
        # a preconditioned residual
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.001)
        coeffs = linearize(u)
        rhs = project_mean_zero(random_band_limited(grid16, rng, max_mode=4))
        w, _ = solve_linearized(coeffs, rhs, rtol=rtol)
        r = apply_linearized(coeffs, w).values - rhs.values
        assert np.linalg.norm(r) <= rtol * np.linalg.norm(rhs.values)

    @pytest.mark.parametrize("rtol", [1e-1, 1e-4, 1e-9])
    def test_true_residual_meets_rtol_at_large_amplitude(self, large_state, rng, rtol):
        # P + Q spans 0.5 to 6.8 here: the trace scaling acts, and the right
        # preconditioner still leaves GMRES stopping on ||b - L w||_2
        cfg, coeffs = large_state
        rhs = project_mean_zero(random_band_limited(cfg.grid, rng, max_mode=4))
        w, _ = solve_linearized(coeffs, rhs, rtol=rtol)
        r = apply_linearized(coeffs, w).values - rhs.values
        assert np.linalg.norm(r) <= rtol * np.linalg.norm(rhs.values)
        assert abs(mean(w)) < 1e-15

    def test_trace_scaling_cuts_krylov_work(self, large_state, rng):
        # the grid-mean operator alone takes 46 applications here, the trace
        # scaled one 22
        cfg, coeffs = large_state
        rhs = project_mean_zero(random_band_limited(cfg.grid, rng, max_mode=4))
        _, applications = solve_linearized(coeffs, rhs)
        assert applications <= 32

    def test_refuses_nonpositive_trace(self, grid16, rng):
        # P + Q = 2 - 6 sin 2 pi x sin 2 pi y reaches -4
        u = sample(lambda x, y, t: 3.0 / TAU**2 * np.sin(TAU * x) * np.sin(TAU * y), grid16)
        rhs = random_band_limited(grid16, rng, max_mode=4)
        with pytest.raises(EllipticityLost, match="P \\+ Q"):
            solve_linearized(linearize(u), rhs)


@pytest.fixture(scope="module")
def large_state():
    """Config and coefficients at the 15^3 solution of 3 sin 2 pi x sin 2 pi y sin 2 pi t."""
    grid = GridSpec(15, 15, 15)
    F = renormalize(
        sample(lambda x, y, t: 3.0 * np.sin(TAU * x) * np.sin(TAU * y) * np.sin(TAU * t), grid)
    )
    cfg = SolverConfig(grid=grid)
    return cfg, linearize(solve(F, cfg).u)


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

    def test_carried_coefficients_are_those_of_the_next_state(self, grid16, cfg16, rng):
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.5))
        first = newton_step(ScalarField.zeros(grid16), F, cfg16)
        fresh = linearize(first.u_next)
        for name in "PQRS":
            assert np.array_equal(getattr(first.coeffs, name), getattr(fresh, name))
        # reusing them gives the step a fresh linearization would give
        reused = newton_step(first.u_next, F, cfg16, coeffs=first.coeffs)
        recomputed = newton_step(first.u_next, F, cfg16)
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
        for shape in {r.grid for r in accepted}:
            taus = [r.tau for r in accepted if r.grid == shape]
            assert all(a < b for a, b in zip(taus, taus[1:]))
        last = report.trace.records[-1]
        assert (last.grid, last.tau, last.accepted) == (grid16.shape, 1.0, True)
        assert all(r.lambda_min > 0 for r in accepted)

    def test_forcing_terms_match_fixed_tolerance_newton(self, grid16, cfg16, rng):
        # Newton steps to the 1e-9 floor along the forced solve's accepted taus
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

    def test_newton_solve_raises_the_failure_that_ended_it(self):
        # the 9^3 solution prolonged to 17^3 has min P = -0.31 there, so the
        # first step refuses it: that is the error, not a stall after 0 steps
        F = renormalize(random_band_limited(
            GridSpec(17, 17, 17), np.random.default_rng(5), max_mode=3, amplitude=3.0
        ))
        coarse = GridSpec(9, 9, 9)
        u9 = solve(renormalize(resample(F, coarse)), SolverConfig(grid=coarse)).u
        with pytest.raises(EllipticityLost, match="min\\(u_yy"):
            newton_solve(resample(u9, F.grid), F, SolverConfig(grid=F.grid))

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


def _band_limited_datum(n):
    grid = GridSpec(n, n, n)
    return renormalize(random_band_limited(grid, np.random.default_rng(5), max_mode=3, amplitude=0.6))


def _continuation_only(F, cfg):
    """The solve of F with sequencing unavailable."""
    import ktcy.solver as solver_module

    original = solver_module._coarse_grid
    solver_module._coarse_grid = lambda grid: None
    try:
        return solve(F, cfg)
    finally:
        solver_module._coarse_grid = original


class TestGridSequencing:
    def test_agrees_with_continuation_only(self):
        F = _band_limited_datum(24)
        cfg = SolverConfig(grid=F.grid)
        report = solve(F, cfg)
        assert report.coarse_grid == (15, 15, 15)
        assert {r.grid for r in report.trace.records} == {(15, 15, 15), (24, 24, 24)}
        assert report.final_residual_sup <= cfg.newton_tol
        assert report.estimates.passed and not report.estimates.informative
        full = _continuation_only(F, cfg)
        assert full.coarse_grid is None and full.coarse_fine_sup is None
        assert _sup(report.u.values - full.u.values) <= 1e-12
        assert 0.0 < report.coarse_fine_sup <= 1e-3 * _sup(report.u.values)

    @pytest.mark.parametrize("stage", ["coarse", "fine"])
    def test_failed_stage_falls_back_bitwise(self, monkeypatch, stage):
        import ktcy.solver as solver_module

        F = _band_limited_datum(24)
        cfg = SolverConfig(grid=F.grid)
        full = _continuation_only(F, cfg)
        continuation, attempt, fine_calls = solver_module._continuation, solver_module._newton_attempt, []

        def failing_continuation(F_, cfg_, records):
            if cfg_.grid != cfg.grid:
                raise ContinuationStalled("forced")
            return continuation(F_, cfg_, records)

        def failing_attempt(u0, F_target, cfg_, carried):
            if cfg_.grid == cfg.grid and not fine_calls:  # the Newton finish
                fine_calls.append(1)
                return NewtonStalled("forced"), u0, 1, 1.0, 0
            return attempt(u0, F_target, cfg_, carried)

        if stage == "coarse":
            monkeypatch.setattr(solver_module, "_continuation", failing_continuation)
        else:
            monkeypatch.setattr(solver_module, "_newton_attempt", failing_attempt)
        report = solve(F, cfg)
        assert report.coarse_grid is None and report.coarse_fine_sup is None
        assert np.array_equal(report.u.values, full.u.values)
        assert [c.margin for c in report.estimates.checks] == [c.margin for c in full.estimates.checks]
        fine = [r for r in report.trace.records if r.grid == F.grid.shape]
        assert fine[-len(full.trace.records):] == list(full.trace.records)

    def test_unresolved_datum_takes_the_continuation_path(self, grid16, cfg16):
        # log of a trigonometric polynomial has a spectral tail far above
        # newton_tol on the 9^3 grid
        u_star = sample(
            lambda x, y, t: 0.01 * np.sin(TAU * x)
            + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
            grid16,
        )
        F, _ = manufacture(u_star)
        report = solve(F, cfg16)
        assert report.coarse_grid is None and report.coarse_fine_sup is None
        assert all(r.grid == grid16.shape for r in report.trace.records)
        assert np.array_equal(report.u.values, _continuation_only(F, cfg16).u.values)


class TestContinuation:
    def test_failed_attempt_hands_its_kept_state_on(self, monkeypatch):
        # the linearization taken for a failed attempt's record starts the
        # next attempt, so every Newton step gets the coefficients of its state
        import ktcy.solver as solver_module

        grid = GridSpec(9, 9, 9)
        F = renormalize(random_band_limited(grid, np.random.default_rng(1234), max_mode=2, amplitude=2.0))
        cfg = SolverConfig(grid=grid, newton_max_iters=5)
        given, step = [], solver_module.newton_step

        def checking(u, F_target, cfg_, forcing=None, coeffs=None):
            fresh = linearize(u)
            given.append(coeffs is not None and all(
                np.array_equal(getattr(coeffs, name), getattr(fresh, name)) for name in "PQRS"
            ))
            return step(u, F_target, cfg_, forcing=forcing, coeffs=coeffs)

        monkeypatch.setattr(solver_module, "newton_step", checking)
        records = []
        solver_module._continuation(F, cfg, records)
        assert not records[0].accepted and records[-1].accepted
        assert len(given) > 1 and all(given)

    def test_exhausted_budget_reads_newton_stalled(self, grid16, rng):
        import ktcy.solver as solver_module

        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.6))
        cfg = SolverConfig(grid=grid16, newton_max_iters=1, tau_min_step=0.1)
        records = []
        with pytest.raises(ContinuationStalled):
            solver_module._continuation(F, cfg, records)
        assert records and {r.failure for r in records} == {"NewtonStalled"}
        assert not any(r.accepted for r in records)

    def test_starts_with_the_full_datum(self):
        # this datum walked tau = 0.25, 0.5, 0.75, 1 on the coarse grid while
        # the march started at a quarter step (65 Krylov applications); it
        # takes one attempt at tau = 1 there and the Newton finish on 16^3
        F = renormalize(random_band_limited(
            GridSpec(16, 16, 16), np.random.default_rng(21), max_mode=2, amplitude=0.6
        ))
        report = solve(F, SolverConfig(grid=F.grid))
        records = report.trace.records
        assert [(r.grid, r.tau, r.failure) for r in records] == [
            ((9, 9, 9), 1.0, None), ((16, 16, 16), 1.0, None),
        ]
        assert sum(r.krylov_applications for r in records) <= 28
        assert report.estimates.passed and not report.estimates.informative

    def test_failed_attempt_names_its_failure(self):
        # the start prolonged from the 9^3 solution has min P = -0.31 on the
        # 17^3 grid, so the Newton finish is refused at its first step and
        # the continuation runs on 17^3 from u = 0
        F = renormalize(random_band_limited(
            GridSpec(17, 17, 17), np.random.default_rng(5), max_mode=3, amplitude=3.0
        ))
        cfg = SolverConfig(grid=F.grid)
        report = solve(F, cfg)
        fine = [r for r in report.trace.records if r.grid == F.grid.shape]
        assert (fine[0].failure, fine[0].newton_iters, fine[0].accepted) == ("EllipticityLost", 0, False)
        assert all(r.failure is None for r in fine[1:])
        assert report.coarse_grid is None
        assert report.final_residual_sup <= cfg.newton_tol and report.estimates.passed

    def test_stall_reports_the_measured_residual(self):
        # on this even grid the failed attempt's residual is all mean (the
        # Nyquist mean floor), which the message shows instead of guessing
        import re

        F = _band_limited_datum(16)
        with pytest.raises(ContinuationStalled) as info:
            solve(F, SolverConfig(grid=F.grid))
        message = str(info.value)
        assert "rounding floor" not in message
        found = re.search(
            r"residual sup (\S+) \(newton_tol \S+\), mean (\S+) and sup \|residual - mean\| (\S+)$",
            message,
        )
        sup, res_mean, spread = (float(g) for g in found.groups())
        assert sup > SolverConfig(grid=F.grid).newton_tol
        assert res_mean == pytest.approx(sup, rel=1e-3)
        assert spread <= 1e-3 * sup


class TestGridRefinement:
    def test_solutions_agree_after_interpolation(self):
        f = lambda x, y, t: 0.3 * np.sin(TAU * x) * np.sin(TAU * y) * np.sin(TAU * t)
        g16, g32 = GridSpec(16, 16, 16), GridSpec(32, 32, 32)
        u16 = solve(renormalize(sample(f, g16)), SolverConfig(grid=g16)).u
        u32 = solve(renormalize(sample(f, g32)), SolverConfig(grid=g32)).u
        diff = _sup(resample(u16, g32).values - u32.values)
        assert diff <= 1e-6


def test_import_leaves_scipy_sparse_unloaded():
    # GMRES is imported by the linear solve that runs it, so the commands
    # that solve nothing (verify, manufacture, export) do not pay for it
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ktcy; print('scipy.sparse' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
