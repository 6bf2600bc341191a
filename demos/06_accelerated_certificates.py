#!/usr/bin/env python3
"""The accelerated variant and its estimate-sequence certificates.

On a quadratic-plus-l1 chain problem, with L the matrix's largest absolute
row sum and mu its smallest eigenvalue, the accelerated loop's scalar
sequences obey their recursions to rounding, lambda^k stays under its
closed-form O(1/k^2) decay bound with k counted from the start of its
epoch, and the running bound phi_bar^k dominates F(x^k) -- together these
certify the accelerated rate within each epoch at runtime, no proof
reading required.

Here the V-cycle's step outruns the fine prox-gradient step that moves the
auxiliary point z, so the pullback test ends every epoch after its first
iteration (restarts after all 200 iterations): lambda stays at
1 - alpha, about 0.38, and k stays 1, so the decay bound is tested at
k = 1 only, as its detail says ("longest epoch 1").
"""

import sys
from collections import Counter

import numpy as np

from proxmg import (StoppingRule, build_chain_hierarchy, chain_constants,
                    check_fast_certificates, fastmgprox_solve, lambda_rate_bound,
                    reference_solution)

stack = build_chain_hierarchy(64, lam=0.01, num_levels=2, seed=0)
mu, L = chain_constants(stack.fine.problem)
print(f"chain problem n=64: mu = {mu:.6f}, L = {L:.6f} (mu from eigvalsh, L = ||A||_inf)")

ref = reference_solution(stack, seed=0)
rng = np.random.Generator(np.random.PCG64(0))
x0 = rng.uniform(0, 1, size=64)

x, trace = fastmgprox_solve(stack, x0, StoppingRule(200, 0.0))
gamma0 = trace.meta["gamma0"]
restarts = set(trace.meta["restarts"])
reasons = dict(Counter(trace.meta["restart_reasons"]))
print(f"gamma0 = L = {gamma0:.4f}; 200 accelerated iterations, "
      f"{len(restarts)} restarts {reasons}\n")

# k counts from the start of the iteration's epoch: 1 after each restart
epoch_k, k = [], 0
for i in range(1, len(trace.objectives) + 1):
    k += 1
    epoch_k.append(k)
    k = 0 if i in restarts else k

print(f"{'i':>4} {'k':>3} {'alpha':>8} {'lambda':>11} {'decay bound':>12} {'F - F*':>11} "
      f"{'phi_bar - F*':>13}")
for i in (1, 2, 5, 10, 50, 100, 200):
    k = epoch_k[i - 1]
    lam = trace.extras["lam"][i - 1]
    bound = lambda_rate_bound(k, gamma0, L)
    gap = trace.objectives[i - 1] - ref.objective
    phi_gap = trace.extras["phi_bar"][i - 1] - ref.objective
    alpha = trace.extras["alpha"][i - 1]
    print(f"{i:>4} {k:>3} {alpha:>8.4f} {lam:>11.3e} {bound:>12.3e} {gap:>11.3e} "
          f"{phi_gap:>13.3e}")

print()
certs = check_fast_certificates(trace, gamma0, L)
for cert in certs:
    print(cert.line())
sys.exit(0 if all(cert.passed for cert in certs) else 1)
