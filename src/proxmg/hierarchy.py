"""Level stacks for the coarse-correction solvers, and the tau correction.

Each level holds a re-discretized copy of the problem (same functional form,
coarser grid), the transfer pair down to the next level, and a
gradient-Lipschitz estimate.  Coarse objectives are always used in tilted form
F(xi) - <tau, xi>; tau is rebuilt every cycle so that the stack has a fixed
point at the fine minimizer.

No solve writes to a stack.  What belongs to one solve, the backtracking
estimate and the scratch arrays of each level, lives in a workspace
(:func:`workspace`) that the solver builds at entry and drops on return, so a
solve's output does not depend on what ran on the stack before it.

Re-discretization (rather than composing the fine functions with R) keeps the
nonsmooth term separable with a closed-form prox on every level; the tau
correction absorbs the fine/coarse mismatch to first order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridLevel
from .membrane import make_obstacle_problem
from .nonsmooth import select_subgradient
from .problems import CompositeProblem
from .smoothing import StepScratch
from .transfer import TransferPair, build_full_weighting, restrict_adaptive


@dataclass
class Level:
    """One level of the stack."""

    problem: CompositeProblem
    L_est: float
    transfer_down: TransferPair | None = None
    grid: GridLevel | None = None


class LevelStack:
    """Ordered levels, finest first; solvers only read it."""

    def __init__(self, levels: list[Level], n_smooth: int = 20):
        if not levels:
            raise ValueError("empty stack")
        if n_smooth < 1:
            raise ValueError("smoothing budget must be at least 1")
        for lev in levels[:-1]:
            if lev.transfer_down is None:
                raise ValueError("non-coarsest level lacks a transfer pair")
        self.levels = tuple(levels)
        self.n_smooth = n_smooth

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, idx) -> Level:
        return self.levels[idx]

    @property
    def fine(self) -> Level:
        return self.levels[0]


class LevelWork:
    """One level's share of a solve's workspace.

    ``problem`` is the level's problem with a smooth part that evaluates into
    scratch of its own (see ``CompositeProblem.with_scratch``), ``step`` the
    prox-gradient step's scratch, and ``L_smooth`` the working backtracking
    estimate, which grows monotonically over the solve.
    """

    def __init__(self, problem: CompositeProblem):
        self.problem = problem.with_scratch()
        self.step = StepScratch(problem.dim)
        self.L_smooth: float | None = None


def workspace(stack: LevelStack) -> list[LevelWork]:
    """A fresh workspace for one solve on the stack, finest level first."""
    return [LevelWork(level.problem) for level in stack.levels]


def build_tau(fine_problem: CompositeProblem, coarse_problem: CompositeProblem,
              transfer: TransferPair, mask: np.ndarray,
              y_fine: np.ndarray, y_coarse: np.ndarray,
              upstream_tau: np.ndarray | None = None,
              policy: str | None = "zero",
              grad_fine: np.ndarray | None = None,
              grad_coarse: np.ndarray | None = None) -> np.ndarray:
    """Linear correction for the coarse objective, from matched points.

    tau = [grad f_c(y_c) + s_c] - R_adaptive [grad f_f(y_f) + s_f - upstream_tau]

    where s are selected subgradients of the nonsmooth parts and the adaptive
    restriction zeroes the masked (set-valued) fine coordinates.  The upstream
    tau makes the fine-side term the subgradient of the *tilted* objective the
    fine level is actually minimizing, so the fixed-point property chains
    through all levels.

    ``policy=None`` drops the subgradient terms altogether (s = 0 on both
    sides), which is the classical smooth-problem correction; the ``kocvara3``
    variant runs on it.  The exact fixed-point property is then lost up to
    O(lam).

    ``grad_fine`` and ``grad_coarse`` are the smooth gradients at y_fine and
    y_coarse when the caller already has them.
    """
    fine_side = fine_problem.smooth.grad(y_fine) if grad_fine is None else grad_fine
    coarse_side = (coarse_problem.smooth.grad(y_coarse) if grad_coarse is None
                   else grad_coarse)
    if policy is not None:
        fine_side = fine_side + select_subgradient(
            fine_problem.nonsmooth.subdiff(y_fine), policy)
        coarse_side = coarse_side + select_subgradient(
            coarse_problem.nonsmooth.subdiff(y_coarse), policy)
    if upstream_tau is not None:
        fine_side = fine_side - upstream_tau
    return coarse_side - restrict_adaptive(transfer, mask, fine_side)


def build_obstacle_hierarchy(n_side: int, lam: float = 1e-6, num_levels: int = 2,
                             n_smooth: int = 20) -> LevelStack:
    """Stack of re-discretized obstacle problems, finest grid n_side.

    Level l has side (n_side_{l-1} - 1) / 2; the obstacle is sampled
    analytically at each level's own points (which coincide with the aligned
    fine points), and the penalty weight is the same on every level.
    """
    if num_levels < 1:
        raise ValueError("need at least one level")
    if n_side < 2**num_levels - 1:
        raise ValueError(
            f"n_side={n_side} too small for {num_levels} levels (need >= {2**num_levels - 1})"
        )
    levels: list[Level] = []
    side = n_side
    for l in range(num_levels):
        problem = make_obstacle_problem(side, lam, level=l)
        grid = problem.smooth.grid
        transfer = build_full_weighting(grid) if l < num_levels - 1 else None
        levels.append(Level(problem, problem.lipschitz, transfer, grid))
        side = (side - 1) // 2
    return LevelStack(levels, n_smooth=n_smooth)
