"""Acceptance suite: one test per numbered criterion, at stated tolerance.

Each test prints one line ``ACCEPTANCE <n> <name>: PASS|FAIL`` (visible with
``pytest -s`` or in the failure output).

Criteria 2 and 8 were stated on u* = 0.01 sin(2 pi x)
+ 0.02 cos(2 pi y) sin(2 pi t).  That datum is not the solution for any F:
its mixed terms u_xy and u_xt vanish, so ma_lhs(u*) = P Q with
P = 1 - 0.04 pi^2 sin(2 pi x) and
Q = 1 - 0.16 pi^2 cos(2 pi y) sin(2 pi t) + 0.04 pi cos(2 pi y) cos(2 pi t).
The cos(2 pi y) sin(2 pi t) mode feeds both u_yy and u_tt, so Q drops to
1 - 0.16 pi^2 ~ -0.58 where cos(2 pi y) sin(2 pi t) = 1, and where also
sin(2 pi x) = -1 the product is (1 + 0.04 pi^2)(1 - 0.16 pi^2) ~ -0.808.
These points are grid points of 32^3.  No positive e^F matches a negative
product, and manufacture rejects the datum; criterion 2 checks that rejection
against the closed-form minimum.  The existence theorem gives a solution for
every F; it does not make every u* a solution.

Criteria 2 and 8 therefore solve the package's reference datum, the defaults
of the ``two_mode`` builtin: u* = 0.01 sin(2 pi x)
+ 0.005 cos(2 pi y) sin(2 pi t), with the same two modes and the same first
amplitude.  On the grid Q stays positive for second amplitudes below
1/(8 pi^2) ~ 0.0127, and 0.005 is well inside that edge (min ma_lhs ~ 0.366
on 32^3); 0.02 is 1.6 times past it.  Grid, tolerances, trial count and time
bound are as stated.
"""

import math
import time

import numpy as np
import pytest

from ktcy.pde import NonPositiveLHS, manufacture, renormalize
from ktcy.estimates import uniqueness_probe
from ktcy.field import (
    GridSpec,
    ScalarField,
    derivative,
    integrate,
    mean,
    random_band_limited,
    resample,
    sample,
)
from ktcy.geometry import alpha_from_u, exterior_d, metric_field, standard_form, wedge_ratio
from ktcy.pde import apply_linearized, ellipticity_report, linearize, ma_lhs
from ktcy.rotation import RationalAngle, pullback_datum, rotated_grid, solve_rotated
from ktcy.solver import SolverConfig, solve

TAU = 2.0 * np.pi

LITERAL_RECOVERY_EXPR = "0.01 sin(2 pi x) + 0.02 cos(2 pi y) sin(2 pi t)"
LITERAL_A2 = 0.02
# min over the grid of P Q for the literal datum: sin(2 pi x) = -1 and
# cos(2 pi y) sin(2 pi t) = 1 are attained on 32^3
LITERAL_MIN_LHS = (1.0 + 0.04 * np.pi**2) * (1.0 - 0.16 * np.pi**2)

RECOVERY_EXPR = "0.01 sin(2 pi x) + 0.005 cos(2 pi y) sin(2 pi t)"
RECOVERY_A2 = 0.005


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")


def _two_mode_state(grid, a2):
    """u* = 0.01 sin(2 pi x) + a2 cos(2 pi y) sin(2 pi t) on the unit cube."""
    return sample(
        lambda x, y, t: 0.01 * np.sin(TAU * x) + a2 * np.cos(TAU * y) * np.sin(TAU * t),
        grid,
    )


@pytest.fixture(scope="module")
def corpus16():
    """20 random band-limited mean-zero states, amplitude <= 0.05."""
    grid = GridSpec(16, 16, 16)
    rng = np.random.default_rng(31415)
    return [random_band_limited(grid, rng, max_mode=3, amplitude=0.05) for _ in range(20)]


@pytest.fixture(scope="module")
def admissible_manufactured():
    """Solver-ready manufactured datum for the rotation criteria."""
    grid = GridSpec(32, 32, 16)
    u_star = sample(
        lambda x, y, t: 0.003 * np.sin(TAU * x) + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
        grid,
    )
    return manufacture(u_star)


def test_01_trivial_solve():
    grid = GridSpec(16, 16, 16)
    started = time.perf_counter()
    report = solve(ScalarField.zeros(grid), SolverConfig(grid=grid))
    elapsed = time.perf_counter() - started
    sup_u = float(np.max(np.abs(report.u.values)))
    ok = sup_u <= 1e-12 and elapsed <= 1.0
    _line(1, "trivial solve", ok, f"sup|u| = {sup_u:.2e}, {elapsed:.2f} s")
    assert sup_u <= 1e-12
    assert elapsed <= 1.0


def test_02_manufactured_recovery_as_stated():
    grid = GridSpec(32, 32, 32)
    with pytest.raises(NonPositiveLHS) as rejected:
        manufacture(_two_mode_state(grid, LITERAL_A2))
    min_err = abs(rejected.value.min_value - LITERAL_MIN_LHS)

    started = time.perf_counter()
    F, u0 = manufacture(_two_mode_state(grid, RECOVERY_A2))
    report = solve(F, SolverConfig(grid=grid))
    elapsed = time.perf_counter() - started
    err_sup = float(np.max(np.abs(report.u.values - u0.values)))
    ok = (err_sup <= 1e-8 and report.estimates.passed and elapsed <= 60.0
          and min_err <= 1e-12)
    _line(2, "manufactured recovery", ok,
          f"u* = {RECOVERY_EXPR}: err = {err_sup:.2e}, {elapsed:.1f} s; "
          f"u* = {LITERAL_RECOVERY_EXPR} rejected, min ma_lhs = "
          f"{rejected.value.min_value:.6f} (closed form {LITERAL_MIN_LHS:.6f})")
    assert min_err <= 1e-12
    assert err_sup <= 1e-8
    assert report.estimates.passed
    assert elapsed <= 60.0


def test_03_independent_path_identity(corpus16):
    omega0 = standard_form(corpus16[0].grid)
    worst = 0.0
    for u in corpus16:
        omega = omega0 + exterior_d(alpha_from_u(u))
        diff = float(np.max(np.abs(wedge_ratio(omega).values - ma_lhs(u).values)))
        worst = max(worst, diff)
    ok = worst <= 1e-12
    _line(3, "independent-path identity", ok, f"worst sup diff = {worst:.2e}")
    assert worst <= 1e-12


def test_04_mean_residual_identity(corpus16):
    worst = max(abs(mean(ma_lhs(u)) - 1.0) for u in corpus16)
    ok = worst <= 1e-12
    _line(4, "mean-residual identity", ok, f"worst |mean - 1| = {worst:.2e}")
    assert worst <= 1e-12


def test_05_linearization_vs_finite_differences():
    # the operator is quadratic, so the central difference has no eps^2
    # truncation term at all: it equals L w exactly in exact arithmetic.
    # The measured error is pure rounding, growing like 1/eps: 9.6e-13,
    # 9.2e-12 and 8.4e-11 for eps = 1e-3, 1e-4 and 1e-5.  The last is 84% of
    # its eps^2 envelope, so the envelope binds there; a visible eps^2 decay
    # cannot exist for this operator.
    grid = GridSpec(16, 16, 16)
    rng = np.random.default_rng(2718)
    u = random_band_limited(grid, rng, max_mode=3, amplitude=0.05)
    w = random_band_limited(grid, rng, max_mode=3, amplitude=0.05)
    lw = apply_linearized(linearize(u), w)
    scale = float(np.max(np.abs(lw.values)))
    errors = {}
    for eps in (1e-3, 1e-4, 1e-5):
        fd = (ma_lhs(u + eps * w) - ma_lhs(u - eps * w)) / (2.0 * eps)
        errors[eps] = float(np.max(np.abs(fd.values - lw.values))) / scale
    ok = all(err <= eps**2 for eps, err in errors.items())
    detail = ", ".join(f"eps={eps:.0e}: rel err {err:.1e} <= {eps**2:.0e}"
                       for eps, err in errors.items())
    _line(5, "linearization vs finite differences", ok, detail)
    for eps, err in errors.items():
        assert err <= eps**2
        assert err <= 1e-9  # rounding floor, far below second order


def test_06_apriori_audit():
    grid = GridSpec(16, 16, 16)
    rng = np.random.default_rng(6021)
    worst_ux, worst_trace_margin = 0.0, np.inf
    for trial in range(10):
        F = renormalize(random_band_limited(grid, rng, max_mode=2, amplitude=0.5))
        assert float(np.max(np.abs(F.values))) <= 1.0
        report = solve(F, SolverConfig(grid=grid))
        audit = report.estimates
        assert audit.passed, f"datum {trial}: failed checks " + ", ".join(
            c.name for c in audit.checks if not c.passed
        )
        sup_ux = audit.check("a_sup_ux_bound").lhs
        assert sup_ux <= 1.0 + 1e-8
        ell = ellipticity_report(report.u, F)
        trace_margin = ell.min_trace - ell.trace_floor
        assert trace_margin >= -1e-8
        worst_ux = max(worst_ux, sup_ux)
        worst_trace_margin = min(worst_trace_margin, trace_margin)
    _line(6, "a-priori audit over corpus", True,
          f"worst sup|u_x| = {worst_ux:.3f}, worst trace margin = {worst_trace_margin:.2e}")


def test_07_grid_convergence():
    f = lambda x, y, t: 0.3 * np.sin(TAU * x) * np.sin(TAU * y) * np.sin(TAU * t)
    g16, g32 = GridSpec(16, 16, 16), GridSpec(32, 32, 32)
    u16 = solve(renormalize(sample(f, g16)), SolverConfig(grid=g16)).u
    u32 = solve(renormalize(sample(f, g32)), SolverConfig(grid=g32)).u
    diff = float(np.max(np.abs(resample(u16, g32).values - u32.values)))
    ok = diff <= 1e-6
    _line(7, "grid convergence", ok, f"sup diff after interpolation = {diff:.2e}")
    assert diff <= 1e-6


def test_08_empirical_uniqueness_as_stated():
    grid = GridSpec(32, 32, 32)
    F, _ = manufacture(_two_mode_state(grid, RECOVERY_A2))
    probe = uniqueness_probe(F, SolverConfig(grid=grid), trials=3)
    ok = probe.max_pairwise_sup_diff <= 1e-8
    _line(8, "empirical uniqueness", ok,
          f"F from u* = {RECOVERY_EXPR}: max diff = {probe.max_pairwise_sup_diff:.2e}")
    assert probe.max_pairwise_sup_diff <= 1e-8


def test_09_rotation_identity(admissible_manufactured):
    F, _ = admissible_manufactured
    angle = RationalAngle(1, 0)
    grid = rotated_grid(angle, *F.grid.shape)
    rotated = solve_rotated(F, angle, SolverConfig(grid=grid))
    base = solve(F, SolverConfig(grid=F.grid))
    diff = float(np.max(np.abs(rotated.v.values - base.u.values)))
    ok = diff <= 1e-10
    _line(9, "rotation identity (1,0)", ok, f"sup diff = {diff:.2e}")
    assert diff <= 1e-10


def test_10_rotation_bound(admissible_manufactured):
    F, _ = admissible_manufactured
    angle = RationalAngle(1, 1)
    cell = rotated_grid(angle, 32, 32, 16)
    rotated = solve_rotated(F, angle, SolverConfig(grid=cell))
    G = pullback_datum(F, angle, cell)
    norm_err = abs(integrate(G.with_values(np.exp(G.values))) - 2.0)
    bound_ok = rotated.sup_vp <= math.sqrt(2.0) + 1e-8

    quarter = RationalAngle(0, 1)
    zero_grid = rotated_grid(quarter, 16, 16, 16)
    trivial = solve_rotated(ScalarField.zeros(GridSpec(16, 16, 16)), quarter,
                            SolverConfig(grid=zero_grid))
    sup_v0 = float(np.max(np.abs(trivial.v.values)))

    ok = bound_ok and norm_err <= 1e-10 and sup_v0 <= 1e-12
    _line(10, "rotation bound (1,1) and (0,1)", ok,
          f"sup|v_p| = {rotated.sup_vp:.3f} <= sqrt(2), norm err = {norm_err:.1e}, "
          f"quarter-turn sup|v| = {sup_v0:.1e}")
    assert bound_ok
    assert norm_err <= 1e-10
    assert sup_v0 <= 1e-12


def test_11_trace_formula(corpus16):
    worst = 0.0
    for u in corpus16:
        lap = (
            derivative(u, "x", 2) + derivative(u, "y", 2) + derivative(u, "t", 2)
        )
        want = 2.0 * (lap + derivative(u, "t", 1) + 2.0)
        got = metric_field(u).trace()
        worst = max(worst, float(np.max(np.abs(got.values - want.values))))
    ok = worst <= 1e-12
    _line(11, "metric trace formula", ok, f"worst sup diff = {worst:.2e}")
    assert worst <= 1e-12


def test_12_lambda_closed_form():
    grid = GridSpec(16, 16, 16)
    F = ScalarField.constant(grid, math.log(0.25))
    report = ellipticity_report(ScalarField.zeros(grid), F)
    want = (2.0 - math.sqrt(3.0)) / 2.0
    err = abs(report.min_lambda - want)
    ok = err <= 1e-14
    _line(12, "smallest symbol root, closed form", ok,
          f"Lambda = {report.min_lambda:.15f}, err = {err:.1e}")
    assert err <= 1e-14
