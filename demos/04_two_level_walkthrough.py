#!/usr/bin/env python3
"""One two-level cycle, stage by stage, with its certificates.

A cycle is: smooth, restrict, build the linear correction tau, solve the
corrected coarse problem, prolong the coarse move through a halving line
search, smooth again.  The objective must not increase across any stage, the
correction must make a strictly obtuse angle with the fine subgradient, and
at the minimizer the whole cycle must be a no-op (the fixed-point property
that distinguishes a full-approximation scheme from naive nested iteration).
"""

import numpy as np

from proxmg import (CycleConfig, StoppingRule, build_obstacle_hierarchy,
                    check_fixed_point, mgprox_solve, reference_solution, vcycle)

stack = build_obstacle_hierarchy(7, lam=1e-6, num_levels=2)
rng = np.random.Generator(np.random.PCG64(0))
x0 = rng.uniform(0, 1, size=49)

x, ct = vcycle(stack, x0)
stages = ["entry           ", "after pre-smooth", "after correction", "after post-smooth"]
print("== stage objectives of the first cycle ==")
for name, F in zip(stages, ct.stage_objectives):
    print(f"  {name}  F = {F:.6f}")
print(f"line-search step alpha = {ct.alphas[0]:g}")
print(f"angle certificate <subgradient, correction> = {ct.angle_products[0]:.3e}  (< 0)")
print(f"coarse problem moved by {ct.coarse_moves[0]:.3e} (inf-norm)")
print(f"smoothing steps per level: {ct.smoothing_steps} "
      f"(work budget: at most 2.67 fine blocks)")

print("\n== run to convergence ==")
x, trace = mgprox_solve(stack, x0, StoppingRule(100, 1e-10))
print(f"{trace.iterations} cycles to relative residual {trace.rel_g_norms[-1]:.2e}")

print("\n== fixed point: one cycle from the solution does nothing ==")
ref = reference_solution(stack, tol=1e-12, seed=0)
for r in check_fixed_point(stack, ref.x, CycleConfig(coarse_mode="exact")):
    print(f"  {r.line()}")

print("\n== negative control: flip tau's sign and the certificate must fail ==")
bad = CycleConfig(coarse_mode="exact", tau_hook=lambda tau, level: -tau)
for r in check_fixed_point(stack, ref.x, bad):
    print(f"  {r.line()}")
