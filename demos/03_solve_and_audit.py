"""Continuity-method solve with a manufactured oracle and the full audit.
=========================================================================

Pick a potential u*, manufacture the datum F = log(ma_lhs(u*)) so u* is the
exact discrete solution, then recover it from scratch and audit every
a-priori bound.
"""

import numpy as np

from ktcy import GridSpec, SolverConfig, manufacture, sample, solve, uniqueness_probe

TAU = 2 * np.pi

grid = GridSpec(32, 32, 32)
u_star = sample(
    lambda x, y, t: 0.01 * np.sin(TAU * x) + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
    grid,
)
F, u_exact = manufacture(u_star)
print("datum range:", float(F.values.min()), "to", float(F.values.max()))

report = solve(F, SolverConfig(grid=grid))
print("recovery error:", np.max(np.abs(report.u.values - u_exact.values)))

# the manufactured datum is the log of a trigonometric polynomial, whose
# spectral tail is not resolved on the coarse grid, so no sequencing here
print(f"\ncontinuation trace, coarse grid {report.coarse_grid}:")
for r in report.trace.records:
    print(
        f"  grid = {r.grid}  tau = {r.tau:5.3f}  newton iters = {r.newton_iters}  "
        f"residual = {r.final_residual_sup:.2e}  lambda_min = {r.lambda_min:.3f}  "
        f"{'accepted' if r.accepted else 'rejected'}"
    )

print("\na-priori estimate audit:")
for c in report.estimates.checks:
    print(f"  {c.name:28s} margin = {c.margin:+.3e}  {'ok' if c.passed else 'VIOLATED'}")
print("informational: sup|u| =", report.estimates.sup_u,
      " sup|lap u| =", report.estimates.sup_laplacian)

probe = uniqueness_probe(F, SolverConfig(grid=grid), trials=3)
print("\nuniqueness probe over", probe.trials, "starts:",
      probe.max_pairwise_sup_diff)
