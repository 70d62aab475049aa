"""Property test: every admissible band-limited datum on a small grid either
solves with a passing audit or fails with a typed reason.  On the even 10^3
grid that reason is the Nyquist floor: the band-limited data solve on 9^3."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ktcy.field import GridSpec, mean, random_band_limited
from ktcy.pde import renormalize
from ktcy.solver import NyquistFloor, SolverConfig, SolverError, solve


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(
    n=st.sampled_from([9, 10]),
    seed=st.integers(0, 2**32 - 1),
    max_mode=st.integers(1, 3),
    amplitude=st.floats(0.05, 2.0),
)
def test_solves_with_a_passing_audit_or_raises_a_typed_error(n, seed, max_mode, amplitude):
    grid = GridSpec(n, n, n)
    F = renormalize(random_band_limited(grid, np.random.default_rng(seed), max_mode=max_mode,
                                        amplitude=amplitude))
    cfg = SolverConfig(grid=grid)
    try:
        report = solve(F, cfg)
    except SolverError as exc:
        assert type(exc) is not SolverError
        assert n % 2 == 1 or type(exc) is NyquistFloor, f"{type(exc).__name__}: {exc}"
        return
    assert report.final_residual_sup <= cfg.newton_tol
    assert report.estimates.passed and not report.estimates.informative
    assert abs(mean(report.u)) < 1e-15
    last = report.trace.records[-1]
    assert (last.grid, last.failure) == (grid.shape, None)
