#!/usr/bin/env python3
"""The discretized membrane: difference operators, energy, gradient, obstacle.

The energy of a flat membrane on an n x n interior grid is exactly n^2 (each
grid point contributes sqrt(1 + 0 + 0)); bending costs more.  The gradient
has a closed form through the chain rule, which we check here against central
finite differences.  The curvature bound 8 / h^2 is what the solvers use for
their fixed 1/L smoothing steps: the Hessian never exceeds D^T D + E^T E,
whose largest eigenvalue (from numpy's dense symmetric eigensolver here) it
exceeds by less than 5 % from n = 7 on.
"""

import numpy as np

from proxmg import (GridLevel, build_difference_operators, fd_gradient,
                    lipschitz_upper_bound, make_obstacle_problem,
                    obstacle_values)

grid = GridLevel(7)
D, E = build_difference_operators(grid)
print(f"grid: {grid.n_side} x {grid.n_side} interior points, h = {grid.h}")
print(f"difference operators: {D.shape}, {D.nnz} and {E.nnz} entries, "
      f"values +-{1 / grid.h:.0f}")

problem = make_obstacle_problem(7, lam=1e-6)
f = problem.smooth
flat = np.zeros(f.dim)
print(f"\nenergy of the flat membrane: {f.value(flat):.1f}  (= n^2 = 49)")
print(f"gradient there is identically zero: {np.all(f.grad(flat) == 0.0)}")

rng = np.random.Generator(np.random.PCG64(1))
u = rng.uniform(0, 1, size=f.dim)
print(f"energy of a random bumpy membrane: {f.value(u):.3f}")

exact = f.grad(u)
approx = fd_gradient(f.value, u)
rel = np.linalg.norm(exact - approx) / np.linalg.norm(exact)
print(f"gradient vs central differences: relative error {rel:.2e}")

print("\ncurvature bound 8 / h^2 against lambda_max(D^T D + E^T E):")
for n_side in (3, 7, 15):
    Dn, En = build_difference_operators(GridLevel(n_side))
    print(f"  n = {n_side:>2}: {lipschitz_upper_bound(GridLevel(n_side)):7.1f} "
          f">= {np.linalg.eigvalsh((Dn.T @ Dn + En.T @ En).toarray())[-1]:7.1f}")

phi = obstacle_values(7)
print("\nobstacle heights over the grid (two sine bumps, clamped at zero):")
for row in phi.reshape(7, 7, order="F")[::-1]:
    print("  " + " ".join(f"{v:4.2f}" for v in row))
