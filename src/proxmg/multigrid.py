"""V-cycle solvers built on proximal-gradient smoothing with tau correction.

One cycle on a stack of levels: smooth, restrict the variable with the full
weighting, build tau from adaptively restricted subgradients, recurse; the
coarsest level runs its smoothing budget and nothing else; on the way back
up, prolong the coarse move through the masked rows, accept it through a
halving line search on the tilted objective, and smooth again.  The line
search accepts the first step whose change in the tilted objective,
summed from pointwise differences, is at most 0 (``naive_line_search``):
every term of F = f + g and of the tilt has a ``value_change``.  Two
totals cannot decide it, since their rounding near a solution is larger
than the change a step makes.  The ``kocvara3`` variant runs the same cycle
with no masking and with the subdifferential terms dropped from the
correction.

Every smoothing step on a level is a backtracking step from the level's
working estimate L up to its cap L_cap, both kept in the solve's workspace
(``hierarchy.workspace``).  The cycle hands each level's ``LevelWork`` to
the smoothing steps, which grow its estimate themselves.  Backtracking
starts L at 1 below a cap of a few times the certified bound; a fixed step
is the backtracking step started at its cap, L = L_cap = the certified bound.
Every smoothing block returns its output with the pair (f, grad f) there,
as a single step does.  The finest level takes its first pre-smoothing
step on its own, since that step is the certificates' witness, and runs
the rest of its budget as a block.

Every cycle returns its output, the fine pair (f, grad f) there, and a
trace of Python numbers carrying the descent certificates: objective values
at the stage boundaries, the inner product of the fine subgradient with the
correction direction, line-search steps, mask sizes, and the first smoothing
step's L, ||G||^2 and output objective for the sufficient-descent
inequality.  The trace keeps no point, so a solve's memory does not grow
with its cycles.  That triple is the step protocol of the one iteration
driver (:func:`iterate`), so a cycle is ``mgprox``'s step as it stands; the
driver, not the step, forms the fine objective F = f + g that a solve
records.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .hierarchy import LevelStack, LevelWork, build_tau, workspace
from .problems import CompositeProblem, tilted_objective, tilted_value_change
from .smoothing import backtrack_L, prox_grad_map, run_smoothing
from .transfer import adaptive_mask, prolong_adaptive


# the coarse-correction line search gives up, with a zero step, once its step
# has halved down to this
LINE_SEARCH_MIN_STEP = 1e-15


@dataclass
class CycleConfig:
    """Knobs for one V-cycle.  The defaults give the mgprox cycle with fixed
    1/L steps; both of the benchmark's mgprox solves backtrack instead."""

    alpha_init: ClassVar[float] = 1.0  # first step of the line search
    variant: str = "mgprox"        # "mgprox" | "kocvara3"
    step_mode: str = "fixed"       # "fixed" | "backtracking"
    tau_hook: Callable | None = None  # verification hook: (tau, level_index) -> tau

    def __post_init__(self):
        for name, allowed in (("variant", ("mgprox", "kocvara3")),
                              ("step_mode", ("fixed", "backtracking"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")


@dataclass
class CycleTrace:
    """Per-cycle record of Python numbers; sized by the number of levels."""

    stage_objectives: list[float]      # fine F at [entry, pre-smoothed, corrected, exit]
    alphas: list[float]                # accepted line-search step per level
    angle_products: list[float]        # <grad f + s - tau, p> per level
    correction_norms: list[float]      # ||p||_2 per level
    mask_counts: list[int]
    coarse_moves: list[float]          # ||w - entry||_inf of each sub-level solve
    smoothing_steps: list[int]
    G_first_sq: float = 0.0            # ||L_first (x - y1)||^2 of the first fine step
    F_y_first: float = 0.0             # F(y1), that step's output
    L_first: float = 0.0               # that step's L

    @classmethod
    def empty(cls, num_levels: int) -> "CycleTrace":
        k = num_levels - 1
        return cls([], [0.0] * k, [0.0] * k, [0.0] * k, [0] * k, [0.0] * k,
                   [0] * num_levels)


def naive_line_search(problem: CompositeProblem, tau, y: np.ndarray,
                      p: np.ndarray) -> tuple[np.ndarray, float]:
    """First alpha in {a0, a0/2, ...} whose z = y + alpha p does not raise
    the tilted objective, where a0 = ``CycleConfig.alpha_init``.

    The test is on the change itself, ``tilted_value_change(problem, tau,
    y, z) <= 0``, summed from pointwise differences.  Two totals cannot
    decide it: the membrane energy alone is at least n^2, so each total is
    rounded by about 1e-16 n^2, more than the true change of a step near a
    solution, and comparing them accepts uphill steps and refuses downhill
    ones at random.

    Falls back to (y, 0) once alpha drops to ``LINE_SEARCH_MIN_STEP``; a zero
    step is the defined behavior, not an error.  Returns (z, alpha).
    """
    alpha = CycleConfig.alpha_init
    while True:
        z = y + alpha * p
        if tilted_value_change(problem, tau, y, z) <= 0.0:
            return z, alpha
        if alpha > LINE_SEARCH_MIN_STEP:
            alpha *= 0.5
        else:
            return y, 0.0


def _level_pass(stack: LevelStack, work: list[LevelWork], ell: int, x: np.ndarray,
                tau, config: CycleConfig, trace: CycleTrace,
                fg_x: tuple) -> tuple[np.ndarray, tuple]:
    """One level of the cycle from x, where fg_x = (f(x), grad f(x)) of the
    level's smooth part.  Returns the level's output with the pair there,
    as a smoothing block returns it.  The finest level takes its first
    pre-smoothing step itself and records it, the witness of the
    sufficient-descent certificates.  The pair at the corrected point z is
    evaluated once, for the finest stage record and the first
    post-smoothing step alike.  The level's step estimate lives in its
    workspace, and the smoothing steps grow it there (see
    ``smoothing.backtrack_L``)."""
    level, lw = stack[ell], work[ell]
    problem = lw.problem
    if ell == len(stack) - 1:
        trace.smoothing_steps[ell] = stack.n_smooth
        return run_smoothing(lw, tau, x, stack.n_smooth, fg_x)
    trace.smoothing_steps[ell] = 2 * stack.n_smooth
    if ell == 0:
        y, fg_y = backtrack_L(lw, tau, x, fg_x)
        G = lw.L * (x - y)
        trace.G_first_sq, trace.L_first = float(G @ G), lw.L
        trace.F_y_first = tilted_objective(problem, tau, y, None if fg_y is None else fg_y[0])
        y, fg_y = run_smoothing(lw, tau, y, stack.n_smooth - 1, fg_y)
        trace.stage_objectives += [tilted_objective(problem, tau, x, fg_x[0]),
                                   tilted_objective(problem, tau, y, fg_y[0])]
    else:
        y, fg_y = run_smoothing(lw, tau, x, stack.n_smooth, fg_x)

    transfer = level.transfer_down
    x_coarse = transfer.restrict @ y  # variables restrict with the full operator
    coarse_problem = work[ell + 1].problem
    fg_coarse = coarse_problem.smooth.value_and_grad(x_coarse)
    # s_hat, the tilted subgradient at y, is the angle-condition witness of
    # both variants and mgprox's fine side of tau
    s_hat = fg_y[1] + problem.nonsmooth.subgradient(y)
    if tau is not None:
        s_hat = s_hat - tau
    if config.variant == "kocvara3":
        # no masking, and tau drops the subdifferential terms on both sides
        mask = np.zeros(problem.dim, dtype=bool)
        fine_side = fg_y[1] if tau is None else fg_y[1] - tau
        coarse_side = fg_coarse[1]
    else:
        mask = adaptive_mask(problem.nonsmooth, y)
        fine_side = s_hat
        coarse_side = fg_coarse[1] + coarse_problem.nonsmooth.subgradient(x_coarse)
    trace.mask_counts[ell] = int(np.count_nonzero(mask))
    tau_next = build_tau(transfer, mask, fine_side, coarse_side)
    if config.tau_hook is not None:
        tau_next = config.tau_hook(tau_next, ell + 1)

    w_coarse, _ = _level_pass(stack, work, ell + 1, x_coarse, tau_next, config, trace,
                              fg_coarse)
    move = w_coarse - x_coarse
    trace.coarse_moves[ell] = float(np.max(np.abs(move)))

    p = prolong_adaptive(transfer, mask, move)
    trace.angle_products[ell] = float(s_hat.dot(p))
    trace.correction_norms[ell] = math.sqrt(p.dot(p))

    z, alpha = naive_line_search(problem, tau, y, p)
    trace.alphas[ell] = alpha

    fg_z = problem.smooth.value_and_grad(z)
    x_next, fg_next = run_smoothing(lw, tau, z, stack.n_smooth, fg_z)
    if ell == 0:
        trace.stage_objectives += [tilted_objective(problem, tau, z, fg_z[0]),
                                   tilted_objective(problem, tau, x_next, fg_next[0])]
    return x_next, fg_next


def vcycle(stack: LevelStack, x: np.ndarray, config: CycleConfig | None = None,
           fg_x: tuple | None = None,
           work: list[LevelWork] | None = None) -> tuple[np.ndarray, tuple, CycleTrace]:
    """One V-cycle over the whole stack, starting and ending at the finest level.

    Returns (x_next, fg_next, trace), where fg_next is (f, grad f) of the
    fine smooth part at x_next, so the cycle is a step of :func:`iterate`
    as it stands.  ``fg_x`` is that pair at x when the caller already has
    it.  ``work`` is the solve's workspace, which carries the backtracking
    estimates from one cycle to the next; a cycle run without one starts
    from a fresh workspace.
    """
    if len(stack) < 2:
        raise ValueError("a V-cycle needs at least two levels")
    config = config or CycleConfig()
    if work is None:
        work = workspace(stack, config.step_mode)
    trace = CycleTrace.empty(len(stack))
    if fg_x is None:
        fg_x = work[0].problem.smooth.value_and_grad(x)
    return (*_level_pass(stack, work, 0, x, None, config, trace, fg_x), trace)


WORK_RATIO = 0.25   # size of a level relative to the next finer one


def cycle_work_units(trace: CycleTrace) -> float:
    """Smoothing work of one cycle in units of a single finest-level step,
    a level-l step counting ``WORK_RATIO**l``."""
    return float(sum(steps * WORK_RATIO**ell
                     for ell, steps in enumerate(trace.smoothing_steps)))


@dataclass
class StoppingRule:
    """Stop once the prox-gradient-map norm falls below ``rel_tol`` times its
    value at the start, or after ``max_iters`` iterations; ``rel_tol`` 0
    runs the whole budget."""

    max_iters: int
    rel_tol: float

    def __post_init__(self):
        # a fractional or NaN budget is never reached
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 0:
            raise ValueError(f"max_iters must be a nonnegative integer, got {self.max_iters!r}")
        if not self.rel_tol >= 0.0:  # NaN compares false
            raise ValueError(f"rel_tol must be nonnegative, got {self.rel_tol}")


@dataclass
class SolverTrace:
    """Per-iteration record shared by all solvers in the library, and the
    one place where a run's end is read: ``final_objective`` and
    ``final_rel_g_norm`` are F and relative |G| where the run stopped, at
    x0 for a run of no iterations.  Relative |G| is not recorded: it is
    derived from ``g_norms`` and ``g_norm_initial`` by one rule."""

    algorithm: str
    objective_initial: float = 0.0
    g_norm_initial: float = 0.0
    objectives: list[float] = field(default_factory=list)
    g_norms: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    cycles: list[CycleTrace] = field(default_factory=list)
    converged: bool = False
    meta: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)  # per-algorithm diagnostic series

    @property
    def iterations(self) -> int:
        return len(self.objectives)

    def _rel(self, g: float) -> float:
        """|G| relative to |G(x0)|; where |G(x0)| is 0, 0 at |G| = 0 and
        inf above it."""
        g0 = self.g_norm_initial
        if g0 > 0.0:
            return g / g0
        return 0.0 if g == 0.0 else float("inf")

    @property
    def rel_g_norms(self) -> list[float]:
        return [self._rel(g) for g in self.g_norms]

    @property
    def final_rel_g_norm(self) -> float:
        """Relative |G| where the run stopped, as :func:`iterate` judges
        it: 1 at the start (0 where |G(x0)| is 0)."""
        return self._rel(self.g_norms[-1] if self.g_norms else self.g_norm_initial)

    @property
    def final_objective(self) -> float:
        """F where the run stopped, at x0 for a run of no iterations."""
        return self.objectives[-1] if self.objectives else self.objective_initial

    def best_objective(self) -> float:
        return min([*self.objectives, self.objective_initial])


def iterate(trace: SolverTrace, problem: CompositeProblem, x0: np.ndarray,
            stop: StoppingRule, step: Callable) -> np.ndarray:
    """Apply ``step`` from x0 until the stopping rule holds; returns the last x.

    ``step(x, fg)`` maps an iterate and fg = (f(x), grad f(x)) of the fine
    smooth part to ``(x_next, fg_next, cycle)``, where cycle is the
    iteration's V-cycle trace, or None for a single-level solver.  The
    driver fills the initial values and the per-iteration series of
    ``trace`` and sets ``converged``; the objective it records is
    F(x_next) on the fine ``problem``, formed from fg_next, so no step
    computes F for the record.

    The stopping metric is the norm of the prox-gradient map at x on
    the fine ``problem`` with its certified bound ``lipschitz``,
    measured independently of how the step chose its stepsizes, so
    iteration counts of different solvers are comparable.  The rule holds
    once that norm falls below ``rel_tol`` times its value at x0, so
    ``rel_tol`` 0 runs all ``max_iters`` iterations even where the norm
    reaches 0.  The driver judges the rule by the trace's
    ``final_rel_g_norm``, so the record and the decision cannot disagree;
    a run that spends its budget without meeting it is reported on the
    trace, not raised.  A start point with a non-finite entry is
    refused with a ``ValueError`` before anything is evaluated.
    """
    L = problem.lipschitz

    def g_norm(x, fg):
        G = prox_grad_map(problem, None, x, L, fg[1])
        return math.sqrt(G.dot(G))

    x = np.asarray(x0, dtype=np.float64)
    if not np.all(np.isfinite(x)):  # |G(x0)| would be NaN and the rule never hold
        raise ValueError("the start point x0 has a non-finite entry")
    fg = problem.smooth.value_and_grad(x)
    trace.g_norm_initial = g_norm(x, fg)
    trace.objective_initial = problem.objective(x, fg[0])
    t0 = time.perf_counter()
    while True:
        trace.converged = trace.final_rel_g_norm < stop.rel_tol
        if trace.converged or trace.iterations == stop.max_iters:
            return x
        x, fg, cycle = step(x, fg)
        trace.objectives.append(problem.objective(x, fg[0]))
        trace.g_norms.append(g_norm(x, fg))
        trace.times.append(time.perf_counter() - t0)
        if cycle is not None:
            trace.cycles.append(cycle)


def mgprox_solve(stack: LevelStack, x0: np.ndarray, stop: StoppingRule,
                 config: CycleConfig | None = None) -> tuple[np.ndarray, SolverTrace]:
    """Iterate V-cycles until the relative prox-gradient norm meets the rule.

    The metric is measured at the finest level with the canonical Lipschitz
    bound of the fine problem (see :func:`iterate`).  The solve keeps its
    per-level state in a workspace of its own and writes no level of the stack.
    """
    config = config or CycleConfig()
    work = workspace(stack, config.step_mode)
    trace = SolverTrace(algorithm=config.variant, meta={"step_mode": config.step_mode})
    return iterate(trace, stack.fine.problem, x0, stop,
                   lambda x, fg: vcycle(stack, x, config, fg, work)), trace
