"""Tests for the continuity-method solver and its Newton/Krylov machinery."""

import math

import numpy as np
import pytest

from ktcy.pde import manufacture, renormalize
from ktcy.field import (
    GridMismatchError,
    GridSpec,
    ScalarField,
    mean,
    project_mean_zero,
    random_band_limited,
    resample,
    sample,
)
from ktcy.pde import apply_linearized, ellipticity_report, linearize, residual
from ktcy.solver import (
    ContinuationStalled,
    EllipticityLost,
    KrylovStalled,
    LineSearchFailed,
    NewtonStalled,
    NormalizationError,
    NyquistFloor,
    SolverConfig,
    TraceRecord,
    _gmres,
    newton_solve,
    solve,
    solve_linearized,
)

TAU = 2.0 * np.pi
# grids that differ from the 16^3 unit grid in shape, and in periods alone
OTHER_GRIDS = pytest.mark.parametrize(
    "other", [GridSpec(8, 8, 8), GridSpec(16, 16, 16, 2.0, 1.0, 1.0)], ids=["shape", "periods"]
)


def _sup(values):
    return float(np.max(np.abs(values)))


@pytest.fixture
def cfg16(grid16):
    return SolverConfig(grid=grid16)


@pytest.fixture
def step_calls(monkeypatch):
    """List that grows by one per Newton step the solver takes: each step
    runs one ``solve_linearized``."""
    import ktcy.solver as solver_module

    calls = []
    linear_solve = solver_module.solve_linearized

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return linear_solve(*args, **kwargs)

    monkeypatch.setattr(solver_module, "solve_linearized", counting_solve)
    return calls


def _attempt(u, g, cfg):
    """One Newton attempt from u against the target g, as ``_newton_attempt``
    returns it."""
    import ktcy.solver as solver_module

    return solver_module._newton_attempt(u, linearize(u), g, cfg)


def _path_target(F, tau):
    """The continuation's target at tau, 1 - tau + tau e^F."""
    return 1.0 - tau + tau * np.exp(F.values)


@pytest.fixture
def linearize_calls(pde_calls):
    """List that grows by one per ``linearize`` call, in every module that imports it."""
    return pde_calls("linearize")


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
            {"newton_tol": float("nan")},
            {"newton_tol": float("inf")},
            {"newton_max_iters": 2.5},
            {"newton_max_iters": True},
        ],
    )
    def test_rejects_bad_values(self, grid16, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(grid=grid16, **kwargs)


class TestKrylov:
    def test_flat_case_single_iteration(self, grid16, rng):
        # at u = 0 the preconditioner equals the operator, so GMRES needs one
        # iteration, one operator application: it stops on its least-squares
        # residual, with no application to confirm it
        rhs = random_band_limited(grid16, rng, max_mode=4)
        coeffs = linearize(ScalarField.zeros(grid16))
        w, applications = solve_linearized(coeffs, rhs)
        assert applications == 1
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

    @pytest.mark.parametrize("rtol", [1e-1, 1e-4, 1e-5, 5e-6, 1e-9])
    def test_true_residual_meets_rtol(self, grid16, rng, rtol):
        # right preconditioning: GMRES stops on ||b - L w||_2 itself, not on
        # a preconditioned residual; from rtol = 1e-5 up it stops on the
        # float32 operator, and the float64 residual still meets rtol
        u = random_band_limited(grid16, rng, max_mode=3, amplitude=0.001)
        coeffs = linearize(u)
        rhs = project_mean_zero(random_band_limited(grid16, rng, max_mode=4))
        w, _ = solve_linearized(coeffs, rhs, rtol=rtol)
        r = apply_linearized(coeffs, w).values - rhs.values
        assert np.linalg.norm(r) <= rtol * np.linalg.norm(rhs.values)

    @pytest.mark.parametrize("rtol", [1e-1, 1e-4, 1e-5, 5e-6, 1e-9])
    def test_true_residual_meets_rtol_at_large_amplitude(self, large_state, rng, rtol):
        # P + Q spans 0.5 to 6.8 here: the trace scaling acts, and the right
        # preconditioner still leaves GMRES stopping on ||b - L w||_2
        cfg, coeffs = large_state
        rhs = project_mean_zero(random_band_limited(cfg.grid, rng, max_mode=4))
        w, _ = solve_linearized(coeffs, rhs, rtol=rtol)
        r = apply_linearized(coeffs, w).values - rhs.values
        assert np.linalg.norm(r) <= rtol * np.linalg.norm(rhs.values)
        assert abs(mean(w)) < 1e-15

    @pytest.mark.parametrize("rtol, dtype", [(1e-5, np.float32), (5e-6, np.float64)])
    def test_operator_precision_follows_rtol(self, grid16, rng, monkeypatch, fft_calls, rtol, dtype):
        # every application gets the grid-mean preconditioner of the float64
        # coefficients in the operator's precision, and the recovery of w
        # runs in it too: a float32 solve takes no numpy.fft transform
        import ktcy.solver as solver_module

        seen = []

        def recording_apply(c, w, preconditioner=None):
            seen.append((c.P.dtype, preconditioner.dtype, preconditioner.xx.dtype))
            return apply_linearized(c, w, preconditioner=preconditioner)

        monkeypatch.setattr(solver_module, "apply_linearized", recording_apply)
        coeffs = linearize(random_band_limited(grid16, rng, max_mode=3, amplitude=0.001))
        rhs = random_band_limited(grid16, rng, max_mode=4)
        fft_calls.clear()
        _, applications = solve_linearized(coeffs, rhs, rtol=rtol)
        symbol, backend = (
            (np.complex64, "scipy.fft") if dtype == np.float32 else (np.complex128, "numpy.fft")
        )
        assert seen and set(seen) == {(np.dtype(np.float64), np.dtype(dtype), np.dtype(symbol))}
        # one forward and three inverse transforms per application, and one
        # of each for the recovery
        assert applications == len(seen)
        assert fft_calls == {
            f"{backend}.rfftn": applications + 1, f"{backend}.irfftn": 3 * applications + 1,
        }

    def test_trace_scaling_cuts_krylov_work(self, large_state, rng):
        # the grid-mean operator alone takes 45 applications here, the trace
        # scaled one 21
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

    @OTHER_GRIDS
    def test_rhs_grid_mismatch_rejected(self, grid16, rng, other):
        rhs = random_band_limited(other, rng, max_mode=3)
        with pytest.raises(GridMismatchError, match="rhs grid"):
            solve_linearized(linearize(ScalarField.zeros(grid16)), rhs)


def _counted(matvec):
    """``matvec`` with a list that grows by one per application."""
    calls = []

    def apply(v):
        calls.append(1)
        return matvec(v)

    return apply, calls


class TestGmres:
    @staticmethod
    def _dense(seed=0, n=40):
        rng = np.random.default_rng(seed)
        return 8.0 * np.eye(n) + rng.standard_normal((n, n)), rng.standard_normal(n)

    def test_dense_nonsymmetric_system(self):
        A, b = self._dense()
        assert not np.allclose(A, A.T)
        y, ok = _gmres(lambda v: A @ v, b, 1e-12)
        assert ok
        assert np.allclose(y, np.linalg.solve(A, b), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("rtol", [1e-1, 1e-5, 1e-9])
    def test_true_residual_meets_rtol(self, rtol):
        # the stop test reads the least-squares residual; the residual of
        # the returned y meets it without an application to confirm it
        A, b = self._dense(1)
        apply, calls = _counted(lambda v: A @ v)
        y, ok = _gmres(apply, b, rtol)
        assert ok and len(calls) < len(b)
        assert np.linalg.norm(b - A @ y) <= rtol * np.linalg.norm(b)

    def test_restarts_from_the_true_residual(self):
        # eigenvalues 1 to 1000: more than one cycle of 50 iterations
        spectrum = np.linspace(1.0, 1000.0, 400)
        b = np.ones_like(spectrum)
        apply, calls = _counted(lambda v: spectrum * v)
        y, ok = _gmres(apply, b, 1e-9)
        assert ok and len(calls) > 51
        assert np.linalg.norm(b - spectrum * y) <= 1e-9 * np.linalg.norm(b)

    def test_stagnation_ends_after_twelve_cycles(self):
        # the cyclic shift maps e_k to e_{k+1}, so it maps the Krylov space
        # of b = e_1 to span(e_2, ..., e_{k+1}), orthogonal to b for k < 700:
        # no cycle reduces the residual
        b = np.zeros(700)
        b[0] = 1.0
        apply, calls = _counted(lambda v: np.roll(v, 1))
        y, ok = _gmres(apply, b, 1e-9)
        assert not ok and not y.any()
        assert len(calls) == 12 * 50 + 11  # eleven restart residuals

    def test_stagnation_raises_krylov_stalled(self, monkeypatch):
        # on 9^3 the mean-zero cyclic shift has 729 > 600 unknowns
        import ktcy.solver as solver_module

        grid = GridSpec(9, 9, 9)
        monkeypatch.setattr(
            solver_module, "apply_linearized",
            lambda c, w, preconditioner=None: w.with_values(np.roll(w.values.ravel(), 1).reshape(grid.shape)),
        )
        rhs = np.zeros(grid.shape)
        rhs[0, 0, 0] = 1.0
        with pytest.raises(KrylovStalled, match="611 operator applications"):
            solve_linearized(linearize(ScalarField.zeros(grid)), ScalarField(grid, rhs))

    def test_breakdown_returns_not_ok(self):
        # the zero operator leaves h_kk = h_{k+1,k} = 0 at the first Arnoldi
        # step: the Givens rotation is undefined, and no iterate helps
        apply, calls = _counted(lambda v: np.zeros_like(v))
        y, ok = _gmres(apply, np.ones(10), 1e-3)
        assert not ok and not y.any() and len(calls) == 1

    def test_breakdown_raises_krylov_stalled(self, monkeypatch):
        import ktcy.solver as solver_module

        grid = GridSpec(9, 9, 9)
        monkeypatch.setattr(
            solver_module, "apply_linearized",
            lambda c, w, **kwargs: w.with_values(np.zeros(grid.shape)),
        )
        rhs = random_band_limited(grid, np.random.default_rng(0), max_mode=2)
        with pytest.raises(KrylovStalled, match="after 1 operator applications"):
            solve_linearized(linearize(ScalarField.zeros(grid)), rhs)

    def test_zero_rhs_takes_no_application(self):
        apply, calls = _counted(lambda v: 2.0 * v)
        y, ok = _gmres(apply, np.zeros(30), 1e-9)
        assert ok and calls == [] and not y.any()

    def test_identity_takes_one_application(self):
        b = np.random.default_rng(2).standard_normal(30)
        apply, calls = _counted(lambda v: v)
        y, ok = _gmres(apply, b, 1e-9)
        assert ok and len(calls) == 1
        assert np.allclose(y, b, rtol=1e-15, atol=0.0)


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
    def test_zero_residual_returns_input(self, grid16, cfg16, step_calls):
        # a start that meets newton_tol comes back unchanged with no Krylov work
        u = ScalarField.zeros(grid16)
        record, failure, u_end, _ = _attempt(u, np.ones(grid16.shape), cfg16)
        assert failure is None and u_end is u and not step_calls
        assert (record.newton_iters, record.krylov_applications) == (0, 0)

    def test_refuses_inadmissible_state(self, grid16, cfg16, step_calls):
        # u_xx dips below -1: outside the admissible cone
        u = sample(lambda x, y, t: 0.2 * np.sin(TAU * x), grid16)
        with pytest.raises(EllipticityLost):
            newton_solve(u, ScalarField.zeros(grid16), cfg16)
        assert not step_calls

    def test_first_step_contracts_residual(self, grid16, rng):
        # near tau = 0 the start u = 0 is close to the path solution and one
        # step must reduce the sup-residual by a wide factor
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.5))
        g_tau = _path_target(F, 0.1)
        u = ScalarField.zeros(grid16)
        before = _sup(linearize(u).lhs() - g_tau)
        record, _, u_next, _ = _attempt(u, g_tau, SolverConfig(grid=grid16, newton_max_iters=1))
        assert record.newton_iters == 1
        assert _sup(linearize(u_next).lhs() - g_tau) <= before / 10.0

    def test_accepted_step_is_mean_zero(self, grid16, rng):
        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.5))
        cfg = SolverConfig(grid=grid16, newton_max_iters=1)
        record, _, u_next, _ = _attempt(ScalarField.zeros(grid16), _path_target(F, 0.2), cfg)
        assert record.newton_iters == 1
        assert abs(mean(u_next)) < 1e-15

    def test_residual_strictly_decreases_along_iteration(self, grid16, cfg16, rng, monkeypatch):
        import ktcy.solver as solver_module

        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.8))
        u = ScalarField.zeros(grid16)
        history, line_search = [_sup(residual(u, F).values)], solver_module._line_search

        def recording(*args):
            accepted = line_search(*args)
            history.append(_sup(residual(accepted[0], F).values))
            return accepted

        monkeypatch.setattr(solver_module, "_line_search", recording)
        newton_solve(u, F, cfg16)
        assert len(history) >= 3 and history[-1] <= cfg16.newton_tol
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_grid_mismatch_rejected(self, grid8, grid16, cfg16):
        with pytest.raises(Exception, match="grid"):
            newton_solve(ScalarField.zeros(grid8), ScalarField.zeros(grid8), cfg16)

    @OTHER_GRIDS
    def test_datum_grid_mismatch_rejected(self, grid16, cfg16, other):
        # a zero datum on other periods is solved by u = 0 in numbers alone
        with pytest.raises(GridMismatchError, match="datum grid"):
            newton_solve(ScalarField.zeros(grid16), ScalarField.zeros(other), cfg16)

    def test_carried_coefficients_are_those_of_the_next_state(self, grid16, cfg16, rng):
        # the line search hands the next step the coefficients and residual
        # of the state it accepts, bitwise those a fresh evaluation gives
        import ktcy.solver as solver_module

        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.5))
        ef = np.exp(F.values)
        u = ScalarField.zeros(grid16)
        coeffs = linearize(u)
        res = coeffs.lhs() - ef
        w, _ = solve_linearized(coeffs, u.with_values(-res))
        u_next, carried, res_next = solver_module._line_search(u, w, None, ef, _sup(res), cfg16)
        fresh = linearize(u_next)
        for name in "PQRS":
            assert np.array_equal(getattr(carried, name), getattr(fresh, name))
        assert np.array_equal(res_next, residual(u_next, F).values)
        assert _sup(res_next) < _sup(res)

    def test_line_search_failure_reports_the_last_trial(self, grid16, cfg16, rng):
        # w_xx = -1e4 sin 2 pi x: even at step factor 2^-10 the trial has
        # min(u_xx + 1) near -8.8, so every trial leaves the cone
        import re

        import ktcy.solver as solver_module

        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.5))
        ef = np.exp(F.values)
        u = ScalarField.zeros(grid16)
        res_sup = _sup(linearize(u).lhs() - ef)
        w = sample(lambda x, y, t: 1e4 / TAU**2 * np.sin(TAU * x), grid16)
        with pytest.raises(LineSearchFailed) as info:
            solver_module._line_search(u, w, None, ef, res_sup, cfg16)
        found = re.search(
            r"step factor (\S+): the last trial has sup residual (\S+) \(start (\S+)\), "
            r"min\(u_xx \+ 1\) = (\S+) and min\(u_yy \+ u_tt \+ u_t \+ 1\) = (\S+)$",
            str(info.value),
        )
        factor, res_last, start, min_q, min_p = (float(g) for g in found.groups())
        last = linearize(project_mean_zero(w * 2.0**-10))
        assert factor == float(f"{2.0**-10:.3e}") and start == float(f"{res_sup:.3e}")
        assert res_last == float(f"{_sup(last.lhs() - ef):.3e}")
        assert (min_q, min_p) == (float(f"{np.min(last.Q):.3e}"), float(f"{np.min(last.P):.3e}"))
        assert min_q < 0.0 < min_p


class TestNewtonAttempt:
    @pytest.mark.parametrize("angle", [None, (0.6, 0.8)], ids=["axes", "rotated"])
    def test_failed_attempt_returns_the_state_it_ended_on(self, angle):
        # a budget of two steps stops this attempt after two accepted steps;
        # the record, the state and the coefficients all describe that state
        import ktcy.solver as solver_module

        grid = GridSpec(9, 9, 9)
        F = renormalize(random_band_limited(grid, np.random.default_rng(3), max_mode=2, amplitude=1.5))
        g_tau = _path_target(F, 0.5)
        cfg = SolverConfig(grid=grid, newton_max_iters=2)
        u0 = ScalarField.zeros(grid)
        record, failure, u, coeffs = solver_module._newton_attempt(
            u0, linearize(u0, angle), g_tau, cfg, 0.5
        )
        assert isinstance(failure, NewtonStalled) and record.failure == "NewtonStalled"
        assert (record.tau, record.newton_iters, record.grid) == (0.5, 2, grid.shape)
        assert record.krylov_applications > 0 and not np.array_equal(u.values, u0.values)
        fresh = linearize(u, angle)
        assert coeffs.angle == angle
        for name in "PQRS":
            assert np.array_equal(getattr(coeffs, name), getattr(fresh, name))
        assert record.final_residual_sup == _sup(fresh.lhs() - g_tau) > cfg.newton_tol
        F_tau = u.with_values(np.log(g_tau))
        assert record.lambda_min == pytest.approx(
            ellipticity_report(u, F_tau, coeffs=fresh).min_lambda, rel=0.0, abs=1e-15
        )

    def test_failing_solves_linearize_each_state_once(self, linearize_calls):
        # the first 10^3 draw of the even-grid survey ends on the Nyquist
        # floor: a 5^3 march of 3 steps, stopped at its truncation level, a
        # 10^3 finish of 11 steps whose next line search fails, and one
        # failed 10^3 attempt of 10 steps from u = 0.  The 17^3 datum falls
        # back to the continuation after its Newton finish from a 9^3 march
        # of 4 steps is refused.  Linearizing the end state again after each
        # failed attempt would raise these counts (to 56 and 17)
        rng = np.random.default_rng(1000)
        amplitude = 0.2 + 1.8 * rng.uniform()
        F = renormalize(random_band_limited(GridSpec(10, 10, 10), rng, 1, amplitude))
        with pytest.raises(NyquistFloor):
            solve(F, SolverConfig(grid=F.grid))
        assert len(linearize_calls) == 54
        linearize_calls.clear()
        F = renormalize(random_band_limited(
            GridSpec(17, 17, 17), np.random.default_rng(5), max_mode=3, amplitude=3.0
        ))
        report = solve(F, SolverConfig(grid=F.grid))
        assert report.coarse_grid is None and not report.trace.records[1].accepted
        assert len(linearize_calls) == 16


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
        import ktcy.solver as solver_module

        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.6))
        report = solve(F, cfg16)
        assert report.final_residual_sup <= cfg16.newton_tol
        u, fixed_applications = ScalarField.zeros(grid16), 0
        for record in report.trace.accepted:
            ef = _path_target(F, record.tau)
            coeffs = linearize(u)
            res = coeffs.lhs() - ef
            while _sup(res) > cfg16.newton_tol:
                w, applications = solve_linearized(coeffs, u.with_values(-res))
                u, coeffs, res = solver_module._line_search(u, w, None, ef, _sup(res), cfg16)
                fixed_applications += applications
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

    @OTHER_GRIDS
    def test_newton_solve_rejects_a_datum_grid_up_front(self, grid16, cfg16, linearize_calls, other):
        # a datum on other periods used to run every step before the record's
        # ellipticity report refused it, and one of another shape died in
        # numpy broadcasting; newton_solve now refuses either before it
        # linearizes its start
        F = renormalize(random_band_limited(grid16, np.random.default_rng(2), max_mode=2, amplitude=0.3))
        u = solve(F, cfg16).u
        moved = ScalarField(other, resample(F, GridSpec(*other.shape)).values)
        linearize_calls.clear()
        with pytest.raises(GridMismatchError, match="datum grid"):
            newton_solve(u, moved, cfg16)
        assert not linearize_calls

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


def _large_amplitude_datum(n, amplitude, seed):
    """a sin 2 pi x sin 2 pi y sin 2 pi t plus band-limited noise of a tenth
    of its size, renormalized: a small ``large-amp-32`` datum."""
    grid = GridSpec(n, n, n)
    sss = sample(lambda x, y, t: np.sin(TAU * x) * np.sin(TAU * y) * np.sin(TAU * t), grid)
    noise = random_band_limited(grid, np.random.default_rng(seed), max_mode=2, amplitude=0.1 * amplitude)
    return renormalize(amplitude * sss + noise)


@pytest.fixture
def without_truncation_stop(monkeypatch):
    """Calls ``solve`` with the coarse march's truncation level patched to 0,
    so that the march runs to newton_tol as it did before the stop."""
    import ktcy.solver as solver_module

    def run(F, cfg):
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_truncation_level", lambda u: 0.0)
            return solve(F, cfg)

    return run


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

        def failing_continuation(g, cfg_, records, angle=None, truncation_stop=False):
            if cfg_.grid != cfg.grid:
                raise ContinuationStalled("forced")
            return continuation(g, cfg_, records, angle, truncation_stop)

        def failing_attempt(u0, coeffs0, g, cfg_, tau=1.0, truncation_stop=False):
            if cfg_.grid == cfg.grid and not fine_calls:  # the Newton finish
                fine_calls.append(1)
                record = TraceRecord(tau, 1, 1.0, 1.0, "NewtonStalled", 0, cfg_.grid.shape)
                return record, NewtonStalled("forced"), u0, coeffs0
            return attempt(u0, coeffs0, g, cfg_, tau, truncation_stop)

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


    def test_coarse_march_stops_at_its_truncation_level(self, without_truncation_stop):
        # the 15^3 march ends once its predicted next correction is below
        # the grid's top Fourier shell; the 24^3 finish takes as many steps
        # as from the start marched to newton_tol, and lands on the same u
        F = _large_amplitude_datum(24, 3.0, 1)
        cfg = SolverConfig(grid=F.grid)
        stopped, full = solve(F, cfg), without_truncation_stop(F, cfg)
        (coarse, fine), (coarse_full, fine_full) = stopped.trace.records, full.trace.records
        assert coarse.grid == coarse_full.grid == (15, 15, 15) and coarse.accepted
        assert coarse.final_residual_sup > cfg.newton_tol >= coarse_full.final_residual_sup
        assert coarse.newton_iters < coarse_full.newton_iters
        assert coarse.krylov_applications < coarse_full.krylov_applications
        assert fine.newton_iters == fine_full.newton_iters and fine.final_residual_sup <= cfg.newton_tol
        assert _sup(stopped.u.values - full.u.values) <= 1e-12
        assert stopped.estimates.passed

    def test_resolved_datum_runs_as_without_the_stop(self, without_truncation_stop):
        # u is resolved on 15^3: its top shell is at rounding level, far
        # below any predicted correction, so the march never stops early
        F = _band_limited_datum(24)
        cfg = SolverConfig(grid=F.grid)
        stopped, full = solve(F, cfg), without_truncation_stop(F, cfg)
        assert stopped.trace.records == full.trace.records
        assert np.array_equal(stopped.u.values, full.u.values)
        assert stopped.coarse_fine_sup == full.coarse_fine_sup

    def test_truncation_level_reads_the_outer_shell(self):
        # modes with |m| = 3 on some axis of a 7^3 grid, of coefficient 0.02
        # (x), 0.05 (y) and 0.015 (t); the larger inner mode m = 2 is not read
        import ktcy.solver as solver_module

        u = sample(
            lambda x, y, t: 0.04 * np.cos(3 * TAU * x) + 0.1 * np.sin(3 * TAU * y - 0.4)
            + 0.03 * np.cos(TAU * x + 3 * TAU * t) + 0.5 * np.sin(2 * TAU * x),
            GridSpec(7, 7, 7),
        )
        assert solver_module._truncation_level(u) == pytest.approx(0.05, rel=1e-13)
        assert solver_module._truncation_level(u - u.with_values(
            0.1 * np.sin(3 * TAU * u.grid.meshgrid()[1] - 0.4)
        )) == pytest.approx(0.02, rel=1e-13)


def _hard_datum(name):
    """A hard 25^3 datum by name: a.sss is renormalize(a sin 2 pi x sin 2 pi y
    sin 2 pi t), seed s a = A a ``random_band_limited`` draw of max_mode 3."""
    grid = GridSpec(25, 25, 25)
    if name.endswith("sss"):
        sss = sample(lambda x, y, t: np.sin(TAU * x) * np.sin(TAU * y) * np.sin(TAU * t), grid)
        return renormalize(float(name[0]) * sss)
    seed, amplitude = (int(part.split("=")[1]) for part in name.split())
    return renormalize(random_band_limited(grid, np.random.default_rng(seed), 3, amplitude))


class TestHardData:
    @pytest.mark.parametrize("name", ["5.sss", "8.sss", "seed=7 a=4", "seed=9 a=6"])
    def test_solves_and_counts_every_application(self, name, monkeypatch):
        # these stiff data take the coarse march, and seed 9 fails steps in
        # it and in the fallback: each record counts the operator
        # applications of all its linear solves, a failed step's included
        import ktcy.solver as solver_module

        spent, linear_solve = [], solver_module.solve_linearized

        def counting_solve(*args, **kwargs):
            w, applications = linear_solve(*args, **kwargs)
            spent.append(applications)
            return w, applications

        monkeypatch.setattr(solver_module, "solve_linearized", counting_solve)
        F = _hard_datum(name)
        cfg = SolverConfig(grid=F.grid)
        report = solve(F, cfg)
        assert report.final_residual_sup <= cfg.newton_tol and report.estimates.passed
        records = report.trace.records
        assert records[0].grid == (15, 15, 15)
        assert sum(r.krylov_applications for r in records) == sum(spent)
        if name == "seed=9 a=6":
            assert "LineSearchFailed" in {r.failure for r in records}


class TestContinuation:
    def test_one_ellipticity_report_per_solve(self, pde_calls, monkeypatch):
        # each attempt reads lambda_min off the coefficients it holds, by the
        # report's formula against its own target: the audit's report is the
        # solve's only one.  This march accepts tau = 0.5 before tau = 1
        import ktcy.solver as solver_module

        grid = GridSpec(9, 9, 9)
        F = renormalize(random_band_limited(grid, np.random.default_rng(1234), max_mode=2, amplitude=2.0))
        attempt, ended = solver_module._newton_attempt, []

        def recording_attempt(*args, **kwargs):
            ended.append(attempt(*args, **kwargs))
            return ended[-1]

        monkeypatch.setattr(solver_module, "_newton_attempt", recording_attempt)
        reports = pde_calls("ellipticity_report")
        _continuation_only(F, SolverConfig(grid=grid, newton_max_iters=5))
        assert len(reports) == 1
        inner = [(record, u) for record, _, u, _ in ended if record.tau < 1.0]
        assert inner and all(record.accepted for record, _ in inner)
        for record, u in inner:
            F_tau = u.with_values(np.log(_path_target(F, record.tau)))
            want = ellipticity_report(u, F_tau).min_lambda
            assert abs(record.lambda_min - want) <= 1e-15

    def test_path_targets(self, grid16, rng, monkeypatch):
        # the march hands each attempt the target 1 - tau + tau e^F: e^F
        # itself at tau = 1, and of mean 1 (the volume normalization) at
        # every tau.  A scripted attempt that refuses the first three taus
        # walks the dyadic taus 1/8, ..., 7/8 at a fixed step of 1/8
        import ktcy.solver as solver_module

        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.8))
        targets = []

        def scripted_attempt(u0, coeffs0, g, cfg_, tau=1.0, truncation_stop=False):
            targets.append((tau, g))
            failure = NewtonStalled("scripted") if len(targets) <= 3 else None
            name = None if failure is None else "NewtonStalled"
            record = TraceRecord(tau, 4, 0.0, 1.0, name, 0, cfg_.grid.shape)
            return record, failure, u0, coeffs0

        monkeypatch.setattr(solver_module, "_newton_attempt", scripted_attempt)
        solver_module._continuation(np.exp(F.values), SolverConfig(grid=grid16), [])
        taus = [tau for tau, _ in targets]
        assert taus == [1.0, 0.5, 0.25] + [k / 8 for k in range(1, 9)]
        for tau, g in targets:
            if tau == 1.0:
                assert np.array_equal(g, np.exp(F.values))
            else:
                assert np.min(g) > 0.0 and abs(np.mean(g) - 1.0) <= 1e-15

    def test_failed_attempt_hands_its_kept_state_on(self, monkeypatch):
        # the march keeps the coefficients of the state it restarts from, so
        # after a failed attempt every Newton step still gets those of its
        # state: the linear solve of each step runs on linearize(u) of the u
        # its line search starts from
        import ktcy.solver as solver_module

        grid = GridSpec(9, 9, 9)
        F = renormalize(random_band_limited(grid, np.random.default_rng(1234), max_mode=2, amplitude=2.0))
        cfg = SolverConfig(grid=grid, newton_max_iters=5)
        given, solved = [], []
        linear_solve, line_search = solver_module.solve_linearized, solver_module._line_search

        def recording_solve(coeffs, rhs, rtol):
            solved.append(coeffs)
            return linear_solve(coeffs, rhs, rtol)

        def checking_search(u, *args):
            fresh = linearize(u)
            given.append(all(
                np.array_equal(getattr(solved[-1], name), getattr(fresh, name)) for name in "PQRS"
            ))
            return line_search(u, *args)

        monkeypatch.setattr(solver_module, "solve_linearized", recording_solve)
        monkeypatch.setattr(solver_module, "_line_search", checking_search)
        records = []
        solver_module._continuation(np.exp(F.values), cfg, records)
        assert not records[0].accepted and records[-1].accepted
        assert len(given) > 1 and all(given)

    def test_exhausted_budget_reads_newton_stalled(self, grid16, rng):
        import ktcy.solver as solver_module

        F = renormalize(random_band_limited(grid16, rng, max_mode=2, amplitude=0.6))
        cfg = SolverConfig(grid=grid16, newton_max_iters=1, tau_min_step=0.1)
        records = []
        with pytest.raises(ContinuationStalled):
            solver_module._continuation(np.exp(F.values), cfg, records)
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

    def test_nyquist_floor_stops_the_march_at_once(self):
        # the same datum: its first attempt on 16^3 solves the mean-zero part,
        # so no tau halving is tried before the floor is named
        import ktcy.solver as solver_module

        F = _band_limited_datum(16)
        records = []
        with pytest.raises(NyquistFloor, match="odd grids 15x15x15 or 17x17x17") as info:
            solver_module._continuation(np.exp(F.values), SolverConfig(grid=F.grid), records)
        assert [(r.tau, r.accepted) for r in records] == [(1.0, False)]
        assert isinstance(info.value, ContinuationStalled)


class TestGridRefinement:
    def test_solutions_agree_after_interpolation(self):
        f = lambda x, y, t: 0.3 * np.sin(TAU * x) * np.sin(TAU * y) * np.sin(TAU * t)
        g16, g32 = GridSpec(16, 16, 16), GridSpec(32, 32, 32)
        u16 = solve(renormalize(sample(f, g16)), SolverConfig(grid=g16)).u
        u32 = solve(renormalize(sample(f, g32)), SolverConfig(grid=g32)).u
        diff = _sup(resample(u16, g32).values - u32.values)
        assert diff <= 1e-6


def _scipy_modules_after(code):
    """The scipy.sparse and scipy.linalg modules loaded after ``import ktcy``
    and ``code`` in a fresh interpreter."""
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    listing = "print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.linalg'))))"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, ktcy\n{code}\n{listing}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_sparse_unloaded():
    # the commands that solve nothing (verify, manufacture, export) load
    # neither scipy.sparse nor scipy.linalg
    assert _scipy_modules_after("") == "[]"


def test_solve_leaves_scipy_sparse_and_linalg_unloaded():
    # GMRES is the solver's own: a solve, float32 Krylov operator included,
    # loads no sparse or dense scipy linear algebra
    code = (
        "import numpy as np\n"
        "g = ktcy.GridSpec(9, 9, 9)\n"
        "X, Y, T = g.meshgrid()\n"
        "F = ktcy.renormalize(ktcy.ScalarField(g, 0.3 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)"
        " * np.sin(2 * np.pi * T)))\n"
        "assert ktcy.solve(F, ktcy.SolverConfig(grid=g)).estimates.passed\n"
        "assert 'scipy.fft' in sys.modules"
    )
    assert _scipy_modules_after(code) == "[]"
