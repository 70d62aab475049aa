"""Rotated symplectic structures with rational angle.
=====================================================

For tan(theta) = n/m the rotated problem transplants to the base equation
on an enlarged (L, L, 1) periodic cell, L = sqrt(m^2 + n^2).  The cell
covers the unit torus m^2 + n^2 times, which shows up directly in the
normalization of the transformed datum, and the first-axis gradient bound
scales from 1 to L.
"""

import math

import numpy as np

from ktcy import (
    GridSpec,
    RationalAngle,
    SolverConfig,
    manufacture,
    pullback_datum,
    rotated_grid,
    sample,
    solve_rotated,
)
from ktcy.field import integrate

TAU = 2 * np.pi

base = GridSpec(32, 32, 16)
u_star = sample(
    lambda x, y, t: 0.003 * np.sin(TAU * x) + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
    base,
)
F, _ = manufacture(u_star)

angle = RationalAngle(1, 1)
print(f"angle (m, n) = ({angle.m}, {angle.n}), cell period L = {angle.length:.6f}")

cell = rotated_grid(angle, 32, 32, 16)
G = pullback_datum(F, angle, cell)
covering = integrate(G.with_values(np.exp(G.values)))
print("integral of e^G over the cell:", covering, "(= m^2 + n^2 coverings)")

result = solve_rotated(F, angle, SolverConfig(grid=cell))
print(f"sup |v_p| = {result.sup_vp:.4f} <= L = {angle.length:.4f}")
print("rotated-frame audit passed:", result.report.estimates.passed)

# theta = 0 collapses to the base problem bitwise-close
identity = RationalAngle(1, 0)
same = solve_rotated(F, identity, SolverConfig(grid=rotated_grid(identity, 32, 32, 16)))
from ktcy import solve

base_report = solve(F, SolverConfig(grid=base))
print("theta = 0 matches the base solve:",
      np.max(np.abs(same.v.values - base_report.u.values)))

# the quarter turn with trivial datum has the trivial solution
quarter = RationalAngle(0, 1)
qcell = rotated_grid(quarter, 16, 16, 16)
trivial = solve_rotated(
    sample(lambda x, y, t: np.zeros_like(x), GridSpec(16, 16, 16)), quarter,
    SolverConfig(grid=qcell),
)
print("quarter turn, zero datum: sup|v| =", np.max(np.abs(trivial.v.values)))
print("bound for a (2,1) cell would be", math.sqrt(5.0))
