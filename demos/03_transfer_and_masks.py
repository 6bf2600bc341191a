#!/usr/bin/env python3
"""Grid transfers and adaptive masking at points touching the obstacle.

Restriction averages 3x3 fine neighborhoods, prolongation is its scaled
transpose, and both match the membrane's boundary: the edges i = 1 and
j = 1 are free, so prolongation carries a constant onto them unchanged and
halves it only next to the clamped edges.  The adaptive variants zero out
coordinates whose penalty subdifferential is set-valued -- exactly the
coordinates sitting bit-exactly on the obstacle.  A heavy penalty weight
presses the solution onto the obstacle, so masks actually fire here (with
the benchmark's tiny lam = 1e-6 the membrane never touches and every mask
is empty).
"""

import numpy as np

from proxmg import (GridLevel, StoppingRule, adaptive_mask,
                    build_full_weighting, build_obstacle_hierarchy,
                    mgprox_solve, obstacle_values, prolong_adaptive,
                    restrict_adaptive)
from proxmg.transfer import PROLONG_SCALE

t = build_full_weighting(GridLevel(7))
print(f"restriction: {t.restrict.shape}, prolongation = {PROLONG_SCALE:g} * R^T")
row_sums = (t.restrict @ np.ones(49)).reshape(3, 3)
print(f"row sums (R @ 1): {row_sums[1, 1]:g} away from the free edges, "
      f"{row_sums[0, 1]:g} along one, {row_sums[0, 0]:g} at their corner")
spread = (t.prolong @ np.ones(9)).reshape(7, 7)
print(f"prolongation of ones (P @ 1): {spread[0, 0]:g} on the free edges and inside, "
      f"{spread[-1, 0]:g} on a clamped edge, {spread[-1, -1]:g} at the clamped corner")

rng = np.random.Generator(np.random.PCG64(0))
mask = rng.uniform(size=49) < 0.25
v_c, w_f = rng.standard_normal(9), rng.standard_normal(49)
lhs = prolong_adaptive(t, mask, v_c) @ w_f
rhs = PROLONG_SCALE * (v_c @ restrict_adaptive(t, mask, w_f))
print(f"adjoint identity under a random mask: {lhs:.12f} == {rhs:.12f}")

print("\n== a contact-rich problem: penalty weight 50 ==")
stack = build_obstacle_hierarchy(15, lam=50.0, num_levels=3)
x0 = rng.uniform(0, 1, size=225)
x, trace = mgprox_solve(stack, x0, StoppingRule(200, 1e-10))
phi = obstacle_values(15)
touching = int(np.sum(x == phi))
status = "solved" if trace.converged else "stopped unconverged"
print(f"{status} in {trace.iterations} cycles; {touching} of 225 points sit "
      "exactly on the obstacle")
print("mask sizes per cycle (finest level):",
      [c.mask_counts[0] for c in trace.cycles[:12]], "...")

g = stack.fine.problem.nonsmooth
m = adaptive_mask(g, x)
print(f"mask at the last iterate: {int(m.sum())} coordinates")
print("masked points receive zero coarse correction:",
      bool(np.all(prolong_adaptive(stack[0].transfer_down, m,
                                   rng.standard_normal(49))[m] == 0.0)))

print("\n== the benchmark weight lam = 1e-6 never touches ==")
stack = build_obstacle_hierarchy(15, lam=1e-6, num_levels=3)
x, trace = mgprox_solve(stack, x0.copy(), StoppingRule(200, 1e-10))
print(f"solved in {trace.iterations} cycles; max mask size over the run: "
      f"{max(max(c.mask_counts) for c in trace.cycles)}; "
      f"solution amplitude {np.max(x):.2e} vs obstacle height {np.max(phi):.1f}")
