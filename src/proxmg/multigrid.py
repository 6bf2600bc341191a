"""V-cycle solvers built on proximal-gradient smoothing with tau correction.

One cycle on a stack of levels: smooth, restrict the variable with the full
weighting, build tau from adaptively restricted subgradients, recurse; at the
coarsest level run the smoothing budget (or iterate to tolerance in exact
mode); on the way back up, prolong the coarse move through the masked rows,
accept it through a halving line search on the tilted objective, and smooth
again.  The ``kocvara3`` variant runs the same cycle with no masking and with
the subdifferential terms dropped from the correction.

Every smoothing step on a level is a backtracking step from the level's
working estimate L up to its cap L_cap, both kept in the solve's workspace
(``hierarchy.workspace``).  Backtracking starts L at 1 below a cap of a few
times the certified bound; a fixed step is the backtracking step started at
its cap, L = L_cap = the certified bound.

Every cycle returns a trace carrying the descent certificates: objective
values at the stage boundaries, the inner product of the fine subgradient
with the correction direction, line-search steps, mask sizes, and the first
smoothing step's input/output for the sufficient-descent inequality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .hierarchy import LevelStack, LevelWork, build_tau, workspace
from .problems import tilted_objective
from .smoothing import prox_grad_map, run_smoothing
from .transfer import adaptive_mask, prolong_adaptive


# the exact coarse solve stops at this fraction of its entry prox-gradient
# norm, or after this many steps
COARSE_REL_TOL = 1e-12
COARSE_MAX_ITERS = 100000
# the coarse-correction line search gives up, with a zero step, once its step
# has halved down to this
LINE_SEARCH_MIN_STEP = 1e-15


@dataclass
class CycleConfig:
    """Knobs for one V-cycle; defaults match the benchmark protocol."""

    alpha_init: ClassVar[float] = 1.0  # first step of the line search
    variant: str = "mgprox"        # "mgprox" | "kocvara3"
    step_mode: str = "fixed"       # "fixed" | "backtracking"
    coarse_mode: str = "smoothing"  # "smoothing" (budgeted steps) | "exact" (to tolerance)
    tau_hook: Callable | None = None  # verification hook: (tau, level_index) -> tau

    def __post_init__(self):
        for name, allowed in (("variant", ("mgprox", "kocvara3")),
                              ("step_mode", ("fixed", "backtracking")),
                              ("coarse_mode", ("smoothing", "exact"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")


@dataclass
class CycleTrace:
    """Per-cycle record; sized by the number of levels."""

    stage_objectives: list[float]      # fine F at [entry, pre-smoothed, corrected, exit]
    alphas: list[float]                # accepted line-search step per level
    angle_products: list[float]        # <grad f + s - tau, p> per level
    correction_norms: list[float]      # ||p||_2 per level
    mask_counts: list[int]
    coarse_moves: list[float]          # ||w - entry||_inf of each sub-level solve
    smoothing_steps: list[int]
    x_entry: np.ndarray | None = None
    y_first: np.ndarray | None = None
    F_y_first: float = 0.0
    L_first: float = 0.0
    fg_exit: tuple | None = None       # (f, grad f) of the fine smooth part at the exit

    @classmethod
    def empty(cls, num_levels: int) -> "CycleTrace":
        k = num_levels - 1
        return cls([], [0.0] * k, [0.0] * k, [0.0] * k, [0] * k, [0.0] * k,
                   [0] * num_levels)

    def pop_exit(self) -> tuple:
        """The exit pair, removed so that stored traces hold no gradients."""
        fg, self.fg_exit = self.fg_exit, None
        return fg


def naive_line_search(objective: Callable[[np.ndarray], float], y: np.ndarray,
                      p: np.ndarray, f_y: float) -> tuple[np.ndarray, float, float]:
    """First alpha in {a0, a0/2, ...} with objective(y + alpha p) <= objective(y),
    where a0 = ``CycleConfig.alpha_init``.

    Falls back to (y, 0) once alpha drops to ``LINE_SEARCH_MIN_STEP``; a zero
    step is the defined behavior, not an error.  Returns (z, alpha, objective(z)).
    """
    alpha = CycleConfig.alpha_init
    while True:
        z = y + alpha * p
        f_z = objective(z)
        if f_z <= f_y:
            return z, alpha, f_z
        if alpha > LINE_SEARCH_MIN_STEP:
            alpha *= 0.5
        else:
            return y, 0.0, f_y


def _coarse_solve(work: LevelWork, tau, x: np.ndarray, n_smooth: int,
                  config: CycleConfig, fg_x: tuple) -> tuple[np.ndarray, int]:
    """Coarsest-level solve: budgeted smoothing, or iterate to tolerance."""
    problem, scratch = work.problem, work.step
    if config.coarse_mode == "smoothing":
        res = run_smoothing(problem, tau, x, work.L, n_smooth, work.L_cap, fg_x, scratch)
        work.L = res.L
        return res.x, res.steps
    g_entry = np.linalg.norm(prox_grad_map(problem, tau, x, work.L, fg_x[1], scratch))
    target = COARSE_REL_TOL * g_entry
    steps = 0
    fg = fg_x
    for _ in range(COARSE_MAX_ITERS):
        res = run_smoothing(problem, tau, x, work.L, 1, work.L_cap, fg, scratch)
        x, work.L = res.x, res.L
        fg = res.fg if res.fg is not None else problem.smooth.value_and_grad(x)
        steps += 1
        if np.linalg.norm(prox_grad_map(problem, tau, x, work.L, fg[1], scratch)) <= target:
            break
    return x, steps


def _level_pass(stack: LevelStack, work: list[LevelWork], ell: int, x: np.ndarray,
                tau, config: CycleConfig, trace: CycleTrace, fg_x: tuple):
    """One level of the cycle from x, where fg_x = (f(x), grad f(x)) of the
    level's smooth part.  Returns the level's output and, at the finest
    level, the pair there (None below, where nothing reads it).  The level's
    step estimate lives in its workspace and grows there (see ``workspace``)."""
    level, lw = stack[ell], work[ell]
    problem = lw.problem
    smooth = problem.smooth

    if ell == len(stack) - 1:
        x_out, steps = _coarse_solve(lw, tau, x, stack.n_smooth, config, fg_x)
        trace.smoothing_steps[ell] += steps
        return x_out, None

    at_finest = ell == 0
    if at_finest:
        trace.x_entry = x
        trace.stage_objectives.append(tilted_objective(problem, tau, x, fg_x[0]))

    pre = run_smoothing(problem, tau, x, lw.L, stack.n_smooth, lw.L_cap, fg_x, lw.step)
    y, lw.L = pre.x, pre.L
    fg_y = pre.fg if pre.fg is not None else smooth.value_and_grad(y)
    trace.smoothing_steps[ell] += pre.steps
    if at_finest:
        trace.y_first = pre.y_first
        trace.L_first = pre.L_first
        trace.F_y_first = tilted_objective(problem, tau, pre.y_first, pre.f_first)
        trace.stage_objectives.append(tilted_objective(problem, tau, y, fg_y[0]))

    g = problem.nonsmooth
    kocvara = config.variant == "kocvara3"
    # kocvara3: no masking, and the subdifferential terms of tau are zeroed out
    policy = None if kocvara else "zero"
    mask = np.zeros(problem.dim, dtype=bool) if kocvara else adaptive_mask(g, y)
    trace.mask_counts[ell] = int(mask.sum())

    transfer = level.transfer_down
    x_coarse = transfer.restrict @ y  # variables restrict with the full operator
    coarse_problem = work[ell + 1].problem
    fg_coarse = coarse_problem.smooth.value_and_grad(x_coarse)
    tau_next = build_tau(problem, coarse_problem, transfer, mask,
                         y, x_coarse, upstream_tau=tau, policy=policy,
                         grad_fine=fg_y[1], grad_coarse=fg_coarse[1])
    if config.tau_hook is not None:
        tau_next = config.tau_hook(tau_next, ell + 1)

    w_coarse, _ = _level_pass(stack, work, ell + 1, x_coarse, tau_next, config, trace,
                              fg_coarse)
    trace.coarse_moves[ell] = float(np.max(np.abs(w_coarse - x_coarse)))

    p = prolong_adaptive(transfer, mask, w_coarse - x_coarse)
    # angle-condition witness: any valid subgradient works, so take the one
    # the tau correction uses
    s_hat = fg_y[1] + g.subgradient(y)
    if tau is not None:
        s_hat = s_hat - tau
    trace.angle_products[ell] = float(s_hat @ p)
    trace.correction_norms[ell] = float(np.linalg.norm(p))

    f_y = trace.stage_objectives[1] if at_finest else tilted_objective(problem, tau, y,
                                                                        fg_y[0])
    z, alpha, f_z = naive_line_search(lambda v: tilted_objective(problem, tau, v),
                                      y, p, f_y)
    trace.alphas[ell] = alpha
    if at_finest:
        trace.stage_objectives.append(f_z)

    post = run_smoothing(problem, tau, z, lw.L, stack.n_smooth, lw.L_cap,
                         scratch=lw.step)
    lw.L = post.L
    trace.smoothing_steps[ell] += post.steps
    if not at_finest:
        return post.x, None
    fg_out = post.fg if post.fg is not None else smooth.value_and_grad(post.x)
    trace.stage_objectives.append(tilted_objective(problem, tau, post.x, fg_out[0]))
    return post.x, fg_out


def vcycle(stack: LevelStack, x: np.ndarray, config: CycleConfig | None = None,
           fg_x: tuple | None = None,
           work: list[LevelWork] | None = None) -> tuple[np.ndarray, CycleTrace]:
    """One V-cycle over the whole stack, starting and ending at the finest level.

    ``fg_x`` is (f(x), grad f(x)) of the fine smooth part when the caller
    already has it; the pair at the returned iterate is left in the trace's
    ``fg_exit``.  ``work`` is the solve's workspace, which carries the
    backtracking estimates from one cycle to the next; a cycle run without
    one starts from a fresh workspace.
    """
    if len(stack) < 2:
        raise ValueError("a V-cycle needs at least two levels")
    config = config or CycleConfig()
    if work is None:
        work = workspace(stack, config.step_mode)
    trace = CycleTrace.empty(len(stack))
    if fg_x is None:
        fg_x = work[0].problem.smooth.value_and_grad(x)
    x_next, trace.fg_exit = _level_pass(stack, work, 0, x, None, config, trace, fg_x)
    return x_next, trace


def cycle_work_units(trace: CycleTrace, r: float = 0.25) -> float:
    """Smoothing work of one cycle in units of a single finest-level step."""
    return float(sum(steps * r**ell for ell, steps in enumerate(trace.smoothing_steps)))


@dataclass
class StoppingRule:
    """Stop on relative prox-gradient-map norm, with an optional absolute floor."""

    max_iters: int
    rel_tol: float
    abs_tol: float = 0.0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass
class SolverTrace:
    """Per-iteration record shared by all solvers in the library."""

    algorithm: str
    objective_initial: float = 0.0
    g_norm_initial: float = 0.0
    objectives: list[float] = field(default_factory=list)
    g_norms: list[float] = field(default_factory=list)
    rel_g_norms: list[float] = field(default_factory=list)
    coarse_alphas: list[float | None] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    cycles: list[CycleTrace] = field(default_factory=list)
    converged: bool = False
    meta: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)  # per-algorithm diagnostic series

    @property
    def iterations(self) -> int:
        return len(self.objectives)

    def best_objective(self) -> float:
        vals = self.objectives or [self.objective_initial]
        return min(min(vals), self.objective_initial)


def iterate(trace: SolverTrace, work: LevelWork, L: float, x0: np.ndarray,
            stop: StoppingRule, step: Callable) -> np.ndarray:
    """Apply ``step`` from x0 until the stopping rule holds; returns the last x.

    ``step(x, fg)`` maps an iterate and fg = (f(x), grad f(x)) of the fine
    smooth part to ``(x_next, fg_next, F(x_next), cycle)``, where cycle is
    the iteration's V-cycle trace, or None for a single-level solver.  The
    driver fills the initial values and the per-iteration series of
    ``trace`` and sets ``converged``.

    The stopping metric is the norm of the prox-gradient map at x on
    ``work``'s problem with the bound L, measured independently of how the
    step chose its stepsizes, so iteration counts of different solvers are
    comparable.  The rule holds once that norm falls to ``rel_tol`` times
    its value at x0, or to ``abs_tol``; a run that spends its budget without
    meeting it is reported on the trace, not raised.
    """
    problem, scratch = work.problem, work.step

    def g_norm(x, fg):
        return float(np.linalg.norm(prox_grad_map(problem, None, x, L, fg[1], scratch)))

    x = np.asarray(x0, dtype=np.float64)
    fg = problem.smooth.value_and_grad(x)
    gn = gn0 = trace.g_norm_initial = g_norm(x, fg)
    trace.objective_initial = problem.objective(x, fg[0])

    def rel(gn):
        if gn0 > 0.0:
            return gn / gn0
        return 0.0 if gn == 0.0 else float("inf")

    t0 = time.perf_counter()
    while True:
        trace.converged = rel(gn) <= stop.rel_tol or gn <= stop.abs_tol
        if trace.converged or trace.iterations == stop.max_iters:
            return x
        x, fg, F, cycle = step(x, fg)
        gn = g_norm(x, fg)
        trace.objectives.append(F)
        trace.g_norms.append(gn)
        trace.rel_g_norms.append(rel(gn))
        trace.coarse_alphas.append(None if cycle is None else cycle.alphas[0])
        trace.times.append(time.perf_counter() - t0)
        if cycle is not None:
            trace.cycles.append(cycle)


def mgprox_solve(stack: LevelStack, x0: np.ndarray, stop: StoppingRule,
                 config: CycleConfig | None = None) -> tuple[np.ndarray, SolverTrace]:
    """Iterate V-cycles until the relative prox-gradient norm meets the rule.

    The metric is measured at the finest level with the canonical Lipschitz
    bound of the fine problem (see :func:`iterate`).  The solve keeps its
    per-level state in a workspace of its own and only reads the stack.
    """
    config = config or CycleConfig()
    work = workspace(stack, config.step_mode)
    trace = SolverTrace(algorithm=config.variant)
    trace.meta.update(step_mode=config.step_mode, n_smooth=stack.n_smooth,
                      num_levels=len(stack), variant=config.variant)

    def step(x, fg):
        x_next, ctrace = vcycle(stack, x, config, fg, work)
        return x_next, ctrace.pop_exit(), ctrace.stage_objectives[-1], ctrace

    return iterate(trace, work[0], stack.fine.L_est, x0, stop, step), trace
