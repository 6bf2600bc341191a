"""Level stacks for the coarse-correction solvers, and the tau correction.

Each level holds a re-discretized copy of the problem (same functional form,
coarser grid), whose gradient-Lipschitz bound is the level's, and the
transfer pair down to the next level.  Coarse objectives are always used in
tilted form F(xi) - <tau, xi>; tau is rebuilt every cycle so that the stack
has a fixed point at the fine minimizer.

No solve writes a stack's levels, which are frozen.  An evaluation rewrites
only the scratch its level's energy keeps (see ``membrane.MembraneEnergy``),
and it writes every scratch entry before reading it, so no value carries
over from one evaluation to the next.  What belongs to one solve, each
level's step estimate with its cap, lives in a workspace (:func:`workspace`)
that the solver builds at entry and drops on return, so a solve's output
does not depend on what ran on the stack before it.  A level's share
(:class:`LevelWork`) is the one handle the smoothing steps take, and they
alone grow its estimate.

Re-discretization (rather than composing the fine functions with R) keeps the
nonsmooth term separable with a closed-form prox on every level; the tau
correction absorbs the fine/coarse mismatch to first order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .membrane import make_obstacle_problem
from .problems import CompositeProblem
from .transfer import TransferPair, build_full_weighting, restrict_adaptive


@dataclass(frozen=True)
class Level:
    """One level of the stack; ``L_est`` is its problem's certified bound."""

    problem: CompositeProblem
    transfer_down: TransferPair | None = None

    @property
    def L_est(self) -> float:
        return self.problem.lipschitz


@dataclass(frozen=True, eq=False)
class LevelStack:
    """Ordered levels, finest first, frozen like its levels.  Solvers change
    nothing in it but the scratch its energies evaluate into, which no result
    depends on."""

    levels: tuple[Level, ...]
    n_smooth: int = 20

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("empty stack")
        # a fractional or NaN budget would reach range() in run_smoothing
        if not isinstance(self.n_smooth, numbers.Integral) or self.n_smooth < 1:
            raise ValueError(f"n_smooth must be an integer of at least 1, got {self.n_smooth!r}")
        for lev in self.levels[:-1]:
            if lev.transfer_down is None:
                raise ValueError("non-coarsest level lacks a transfer pair")

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, idx) -> Level:
        return self.levels[idx]

    @property
    def fine(self) -> Level:
        return self.levels[0]


def step_cap(L_bound: float) -> float:
    """The backtracking cap for a level whose certified bound is ``L_bound``.

    Beyond a small multiple of the bound the descent test carries no
    information (see ``backtrack_L``), so the estimate stops growing there.
    """
    return 4.0 * L_bound


@dataclass
class LevelWork:
    """One level's share of a solve's workspace.

    ``problem`` is the stack level's own problem, not a copy, ``L`` the
    working step estimate and ``L_cap`` its cap.  The smoothing steps
    (``smoothing.backtrack_L``) write the estimate they accept back to ``L``,
    so it grows monotonically over the solve and nothing else assigns it; a
    fixed step is the one case L = L_cap.
    """

    problem: CompositeProblem
    L: float
    L_cap: float

    @property
    def dim(self) -> int:
        return self.problem.dim


def workspace(stack: LevelStack, step_mode: str) -> list[LevelWork]:
    """A fresh workspace for one solve on the stack, finest level first.

    Backtracking starts each level's estimate at 1 and caps it at
    ``step_cap(L_est)``; fixed steps start at the cap, L = L_cap = L_est.
    Any other mode raises ``ValueError``.
    """
    if step_mode == "backtracking":
        return [LevelWork(lev.problem, 1.0, step_cap(lev.L_est)) for lev in stack.levels]
    if step_mode == "fixed":
        return [LevelWork(lev.problem, lev.L_est, lev.L_est) for lev in stack.levels]
    raise ValueError(f"unknown step_mode {step_mode!r}")


def build_tau(transfer: TransferPair, mask: np.ndarray, fine_side: np.ndarray,
              coarse_side: np.ndarray) -> np.ndarray:
    """Linear correction for the coarse objective, from its two sides.

    tau = coarse_side - R_adaptive fine_side

    where the adaptive restriction zeroes the masked (set-valued) fine
    coordinates.  The caller builds both sides at matched points y and
    x_c = R y: for ``mgprox`` the fine side is grad f(y) + s(y) - tau_up, the
    subgradient of the *tilted* objective the fine level is minimizing, and
    the coarse side is grad f_c(x_c) + s_c(x_c), with s the least-magnitude
    subgradients (``SeparableNonsmooth.subgradient``), so the fixed-point
    property chains through all levels.  The ``kocvara3`` variant passes the
    smooth sides grad f(y) - tau_up and grad f_c(x_c) with an empty mask, the
    classical smooth-problem correction, whose fixed-point property holds
    only up to O(lam).
    """
    return coarse_side - restrict_adaptive(transfer, mask, fine_side)


def build_obstacle_hierarchy(n_side: int, lam: float = 1e-6, num_levels: int = 2,
                             n_smooth: int = 20) -> LevelStack:
    """Stack of re-discretized obstacle problems, finest grid n_side.

    Level l has side (n_side_{l-1} - 1) / 2; the obstacle is sampled
    analytically at each level's own points (which coincide with the aligned
    fine points), and the penalty weight is the same on every level.
    """
    if not isinstance(num_levels, numbers.Integral) or num_levels < 1:
        raise ValueError(f"num_levels must be an integer of at least 1, got {num_levels!r}")
    if n_side < 2**num_levels - 1:
        raise ValueError(
            f"n_side={n_side} too small for {num_levels} levels (need >= {2**num_levels - 1})"
        )
    levels: list[Level] = []
    side = n_side
    for l in range(num_levels):
        problem = make_obstacle_problem(side, lam)
        grid = problem.smooth.grid
        transfer = build_full_weighting(grid) if l < num_levels - 1 else None
        levels.append(Level(problem, transfer))
        side = (side - 1) // 2
    return LevelStack(levels, n_smooth=n_smooth)
