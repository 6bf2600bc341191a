#!/usr/bin/env python3
"""The accelerated variant and its estimate-sequence certificates.

On a quadratic-plus-l1 chain problem with numerically computed curvature
constants, the accelerated loop's scalar sequences obey their recursions to
rounding, lambda^k stays under its closed-form O(1/k^2) decay bound, and the
running bound phi_bar^k dominates F(x^k) -- together these certify the
accelerated rate at runtime, no proof reading required.
"""

import numpy as np

from proxmg import (StoppingRule, build_chain_hierarchy, chain_constants,
                    fastmgprox_solve, lambda_rate_bound, reference_solution)

stack = build_chain_hierarchy(64, lam=0.01, num_levels=2, seed=0)
mu, L = chain_constants(stack.fine.problem)
print(f"chain problem n=64: mu = {mu:.6f}, L = {L:.6f} (power iteration)")

ref = reference_solution(stack, tol=1e-12, seed=0)
rng = np.random.Generator(np.random.PCG64(0))
x0 = rng.uniform(0, 1, size=64)

x, trace = fastmgprox_solve(stack, x0, StoppingRule(200, 0.0))
gamma0 = trace.meta["gamma0"]
# no restart fires on this problem, so k counts from the start throughout
print(f"gamma0 = L = {gamma0:.4f}; 200 accelerated iterations, "
      f"{len(trace.meta['restarts'])} restarts\n")

print(f"{'k':>4} {'alpha':>8} {'lambda':>11} {'decay bound':>12} {'F - F*':>11} {'phi_bar - F*':>13}")
for k in (1, 2, 5, 10, 50, 100, 200):
    lam = trace.extras["lam"][k - 1]
    bound = lambda_rate_bound(k, gamma0, L)
    gap = trace.objectives[k - 1] - ref.objective
    phi_gap = trace.extras["phi_bar"][k - 1] - ref.objective
    alpha = trace.extras["alpha"][k - 1]
    print(f"{k:>4} {alpha:>8.4f} {lam:>11.3e} {bound:>12.3e} {gap:>11.3e} {phi_gap:>13.3e}")

lam_ok = all(l < lambda_rate_bound(k, gamma0, L)
             for k, l in enumerate(trace.extras["lam"], start=1))
phi_ok = all(F <= p + 1e-9 * max(1.0, abs(p))
             for F, p in zip(trace.objectives, trace.extras["phi_bar"]))
resid = max(r / (gamma0 * l)
            for r, l in zip(trace.extras["alpha_residual"], trace.extras["lam"]))
print(f"\nlambda^k < bound for all k:    {lam_ok}")
print(f"F(x^k) <= phi_bar^k for all k: {phi_ok}")
print(f"worst |L a^2 - (1-a) gamma| / (gamma0 lambda^k): {resid:.2e}")

anchor = (trace.objective_initial - ref.objective
          + 0.5 * gamma0 * float((x0 - ref.x) @ (x0 - ref.x)))
k = len(trace.objectives)
print(f"final-rate bound at k={k}: F - F* = {trace.objectives[-1] - ref.objective:.3e} "
      f"<= {lambda_rate_bound(k, gamma0, L) * anchor:.3e}")
