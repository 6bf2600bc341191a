"""An independent dense V-cycle as the oracle of the fixed-step mgprox cycle.

Every part of the cycle has its own oracle elsewhere; this one checks how
they are put together.  It writes the cycle from the algorithm alone, in
dense numpy, sharing no code with the library but the start point:

- f(u) = sum sqrt(1 + (Du)^2 + (Eu)^2), with dense D and E from ``np.kron``
  (clamped past the last row and column, free at i = 1 and j = 1);
- g(u) = lam sum max(c - u, 0) over the sine-bump obstacle c, whose prox is
  a three-way ``np.where``;
- R = kron(W, W) / 8, W the 1-D [1 2 1] weights with the free-edge leg
  folded into fine index 1, and P = 2 R^T;
- tau = coarse side - R (fine side with its masked coordinates zeroed),
  both sides the subgradient of the tilted objective, at y and R y;
- the coarse move through the masked rows of P, accepted by a halving line
  search on tilted totals.

A line search on totals is sound only far from a solution (near one, their
rounding is larger than a step's change), so the oracle covers the first
five cycles from a random start.  x and the stage objectives agree to a
relative 1e-12, and the per-level steps and mask counts exactly.
"""

import math

import numpy as np
import pytest

from proxmg.hierarchy import build_obstacle_hierarchy
from proxmg.multigrid import StoppingRule, mgprox_solve
from proxmg.problems import start_points

N_SMOOTH = 20
CYCLES = 5
REL_TOL = 1e-12
MIN_STEP = 1e-15  # the line search gives up, with a zero step, at this step


class DenseLevel:
    """The penalized membrane on one n x n grid, in dense matrices."""

    def __init__(self, n, lam):
        h = 1.0 / (n + 1)
        band = (np.eye(n, k=1) - np.eye(n)) / h
        self.D, self.E = np.kron(band, np.eye(n)), np.kron(np.eye(n), band)
        self.L = 8.0 / h**2
        bump = np.maximum(0.0, np.sin(3.0 * math.pi * h * np.arange(1, n + 1)))
        self.c = np.outer(bump, bump).ravel(order="F")  # flat index (j-1) n + (i-1)
        self.lam = lam
        n_c = (n - 1) // 2
        W = np.zeros((n_c, n))
        for I in range(n_c):
            W[I, 2 * I:2 * I + 3] = [1.0, 2.0, 1.0]
        W[0, 0] = 2.0  # the free edge takes the leg of the absent coarse point
        self.R = np.kron(W, W) / 8.0
        self.P = 2.0 * self.R.T

    def F(self, u, tau):
        r = np.sqrt(1.0 + (self.D @ u) ** 2 + (self.E @ u) ** 2)
        return r.sum() + self.lam * np.maximum(self.c - u, 0.0).sum() - tau @ u

    def grad(self, u):
        Du, Eu = self.D @ u, self.E @ u
        r = np.sqrt(1.0 + Du**2 + Eu**2)
        return self.D.T @ (Du / r) + self.E.T @ (Eu / r)

    def subgradient(self, u):  # of least magnitude
        return np.where(u < self.c, -self.lam, 0.0)

    def smooth(self, u, tau):
        for _ in range(N_SMOOTH):
            v = u - (self.grad(u) - tau) / self.L
            low = v + self.lam / self.L
            u = np.where(low < self.c, low, np.where(v > self.c, v, self.c))
        return u


def dense_cycle(levels, ell, x, tau, record):
    lev = levels[ell]
    if ell == len(levels) - 1:
        return lev.smooth(x, tau)
    y = lev.smooth(x, tau)
    coarse = levels[ell + 1]
    x_c = lev.R @ y
    mask = y == lev.c  # where the subdifferential is set-valued, as lam > 0
    fine_side = lev.grad(y) + lev.subgradient(y) - tau
    tau_c = coarse.grad(x_c) + coarse.subgradient(x_c) - lev.R @ np.where(mask, 0.0, fine_side)
    w = dense_cycle(levels, ell + 1, x_c, tau_c, record)
    p = np.where(mask, 0.0, lev.P @ (w - x_c))
    alpha, F_y = 1.0, lev.F(y, tau)
    while lev.F(y + alpha * p, tau) > F_y:
        if alpha <= MIN_STEP:
            alpha = 0.0
            break
        alpha *= 0.5
    z = y + alpha * p
    x_next = lev.smooth(z, tau)
    record["alphas"][ell] = alpha
    record["mask_counts"][ell] = int(mask.sum())
    if ell == 0:
        record["stage_objectives"] = [lev.F(u, tau) for u in (x, y, z, x_next)]
    return x_next


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want))) <= REL_TOL * float(np.max(np.abs(want)))


@pytest.mark.parametrize("lam", [1e-6, 1.0, 100.0])
@pytest.mark.parametrize("n_side, num_levels", [(15, 3), (7, 2)])
def test_fixed_step_mgprox_is_the_dense_v_cycle(n_side, num_levels, lam):
    stack = build_obstacle_hierarchy(n_side, lam, num_levels, N_SMOOTH)
    x0 = next(start_points(0, n_side * n_side))
    x, trace = mgprox_solve(stack, x0, StoppingRule(CYCLES, 0.0))
    assert trace.iterations == CYCLES

    levels = [DenseLevel(n_side >> ell, lam) for ell in range(num_levels)]  # (n - 1) / 2
    u, zero = x0.copy(), np.zeros(x0.size)
    for k, ct in enumerate(trace.cycles):
        record = {"alphas": [None] * (num_levels - 1), "mask_counts": [None] * (num_levels - 1)}
        u = dense_cycle(levels, 0, u, zero, record)
        assert ct.alphas == record["alphas"], (k, ct.alphas, record["alphas"])
        assert ct.mask_counts == record["mask_counts"], (k, ct.mask_counts, record["mask_counts"])
        assert _close(ct.stage_objectives, record["stage_objectives"]), (
            k, ct.stage_objectives, record["stage_objectives"])
    assert _close(x, u), float(np.max(np.abs(x - u)))
