"""V-cycle solvers built on proximal-gradient smoothing with tau correction.

One cycle on a stack of levels: smooth, restrict the variable with the full
weighting, build tau from adaptively restricted subgradients, recurse; at the
coarsest level run the smoothing budget (or iterate to tolerance in exact
mode); on the way back up, prolong the coarse move through the masked rows,
accept it through a halving line search on the tilted objective, and smooth
again.  The ``kocvara3`` variant runs the same cycle with no masking and with
the subdifferential terms dropped from the correction.

Every cycle returns a trace carrying the descent certificates: objective
values at the stage boundaries, the inner product of the fine subgradient
with the correction direction, line-search steps, mask sizes, and the first
smoothing step's input/output for the sufficient-descent inequality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hierarchy import LevelStack, LevelWork, build_tau, workspace
from .nonsmooth import select_subgradient
from .problems import tilted_objective
from .smoothing import prox_grad_map, run_smoothing
from .transfer import adaptive_mask, prolong_adaptive


@dataclass
class CycleConfig:
    """Knobs for one V-cycle; defaults match the benchmark protocol."""

    alpha_init: float = 1.0
    alpha_tol: float = 1e-15
    variant: str = "mgprox"        # "mgprox" | "kocvara3"
    subgrad_policy: str = "zero"
    step_mode: str = "fixed"       # "fixed" | "backtracking"
    coarse_mode: str = "smoothing"  # "smoothing" (budgeted steps) | "exact" (to tolerance)
    coarse_rel_tol: float = 1e-12
    coarse_max_iters: int = 100000
    tau_hook: Callable | None = None  # verification hook: (tau, level_index) -> tau

    def __post_init__(self):
        if self.variant not in ("mgprox", "kocvara3"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.alpha_init <= 0 or self.alpha_tol <= 0:
            raise ValueError("line-search parameters must be positive")


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
                      p: np.ndarray, f_y: float, alpha_init: float = 1.0,
                      tol: float = 1e-15) -> tuple[np.ndarray, float, float]:
    """First alpha in {a0, a0/2, ...} with objective(y + alpha p) <= objective(y).

    Falls back to (y, 0) once alpha drops to the tolerance; a zero step is the
    defined behavior, not an error.  Returns (z, alpha, objective(z)).
    """
    alpha = alpha_init
    while True:
        z = y + alpha * p
        f_z = objective(z)
        if f_z <= f_y:
            return z, alpha, f_z
        if alpha > tol:
            alpha *= 0.5
        else:
            return y, 0.0, f_y


def _coarse_solve(work: LevelWork, tau, x: np.ndarray, L: float,
                  n_smooth: int, config: CycleConfig, L_cap: float,
                  fg_x: tuple) -> tuple[np.ndarray, float, int]:
    """Coarsest-level solve: budgeted smoothing, or iterate to tolerance."""
    problem, scratch = work.problem, work.step
    if config.coarse_mode == "smoothing":
        res = run_smoothing(problem, tau, x, L, n_smooth, mode=config.step_mode,
                            L_cap=L_cap, fg_x=fg_x, scratch=scratch)
        return res.x, res.L, res.steps
    g_entry = np.linalg.norm(prox_grad_map(problem, tau, x, L, fg_x[1], scratch))
    target = config.coarse_rel_tol * g_entry
    steps = 0
    fg = fg_x
    for _ in range(config.coarse_max_iters):
        res = run_smoothing(problem, tau, x, L, 1, mode=config.step_mode, L_cap=L_cap,
                            fg_x=fg, scratch=scratch)
        x, L = res.x, res.L
        fg = res.fg if res.fg is not None else problem.smooth.value_and_grad(x)
        steps += 1
        if np.linalg.norm(prox_grad_map(problem, tau, x, L, fg[1], scratch)) <= target:
            break
    return x, L, steps


def _level_pass(stack: LevelStack, work: list[LevelWork], ell: int, x: np.ndarray,
                tau, config: CycleConfig, trace: CycleTrace, fg_x: tuple):
    """One level of the cycle from x, where fg_x = (f(x), grad f(x)) of the
    level's smooth part.  Returns the level's output and, at the finest
    level, the pair there (None below, where nothing reads it)."""
    level, lw = stack[ell], work[ell]
    problem = lw.problem
    smooth = problem.smooth
    # backtracking grows a cheap working estimate and never shrinks it; it is
    # capped at a small multiple of the certified bound because beyond that
    # the descent test carries no information (see backtrack_L)
    L_cap = 4.0 * level.L_est
    if config.step_mode == "backtracking":
        L = lw.L_smooth if lw.L_smooth is not None else 1.0
    else:
        L = level.L_est

    if ell == len(stack) - 1:
        x_out, L, steps = _coarse_solve(lw, tau, x, L, stack.n_smooth, config, L_cap,
                                        fg_x)
        trace.smoothing_steps[ell] += steps
        if config.step_mode == "backtracking":
            lw.L_smooth = L
        return x_out, None

    at_finest = ell == 0
    if at_finest:
        trace.x_entry = x
        trace.stage_objectives.append(tilted_objective(problem, tau, x, fg_x[0]))

    pre = run_smoothing(problem, tau, x, L, stack.n_smooth, mode=config.step_mode,
                        L_cap=L_cap, fg_x=fg_x, scratch=lw.step)
    y, L = pre.x, pre.L
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
    policy = None if kocvara else config.subgrad_policy
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
    # angle-condition witness: any valid subgradient works, so take the default
    s = select_subgradient(g.subdiff(y), config.subgrad_policy)
    s_hat = fg_y[1] + s
    if tau is not None:
        s_hat = s_hat - tau
    trace.angle_products[ell] = float(s_hat @ p)
    trace.correction_norms[ell] = float(np.linalg.norm(p))

    f_y = trace.stage_objectives[1] if at_finest else tilted_objective(problem, tau, y,
                                                                        fg_y[0])
    z, alpha, f_z = naive_line_search(lambda v: tilted_objective(problem, tau, v),
                                      y, p, f_y, config.alpha_init, config.alpha_tol)
    trace.alphas[ell] = alpha
    if at_finest:
        trace.stage_objectives.append(f_z)

    post = run_smoothing(problem, tau, z, L, stack.n_smooth, mode=config.step_mode,
                         L_cap=L_cap, scratch=lw.step)
    trace.smoothing_steps[ell] += post.steps
    if config.step_mode == "backtracking":
        lw.L_smooth = post.L
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
        work = workspace(stack)
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


def _rel(gn: float, gn0: float) -> float:
    if gn0 > 0.0:
        return gn / gn0
    return 0.0 if gn == 0.0 else float("inf")


def mgprox_solve(stack: LevelStack, x0: np.ndarray, stop: StoppingRule,
                 config: CycleConfig | None = None) -> tuple[np.ndarray, SolverTrace]:
    """Iterate V-cycles until the relative prox-gradient norm meets the rule.

    The stopping metric is measured at the finest level with the canonical
    Lipschitz bound of the fine problem, independently of the step mode, so
    runs of different solvers are comparable.  Non-convergence within the
    iteration budget is reported on the trace, not raised.  The solve keeps
    its per-level state in a workspace of its own and only reads the stack.
    """
    config = config or CycleConfig()
    work = workspace(stack)
    problem, scratch = work[0].problem, work[0].step
    L0 = stack.fine.L_est
    trace = SolverTrace(algorithm=config.variant)
    trace.meta.update(step_mode=config.step_mode, n_smooth=stack.n_smooth,
                      num_levels=len(stack), variant=config.variant)
    x = np.asarray(x0, dtype=np.float64)
    fg = problem.smooth.value_and_grad(x)
    gn = float(np.linalg.norm(prox_grad_map(problem, None, x, L0, fg[1], scratch)))
    trace.g_norm_initial = gn
    trace.objective_initial = problem.objective(x, fg[0])
    t0 = time.perf_counter()
    for _ in range(stop.max_iters):
        if _rel(gn, trace.g_norm_initial) <= stop.rel_tol or gn <= stop.abs_tol:
            trace.converged = True
            break
        x, ctrace = vcycle(stack, x, config, fg, work)
        fg = ctrace.pop_exit()
        gn = float(np.linalg.norm(prox_grad_map(problem, None, x, L0, fg[1], scratch)))
        trace.cycles.append(ctrace)
        trace.objectives.append(ctrace.stage_objectives[-1])
        trace.g_norms.append(gn)
        trace.rel_g_norms.append(_rel(gn, trace.g_norm_initial))
        trace.coarse_alphas.append(ctrace.alphas[0])
        trace.times.append(time.perf_counter() - t0)
    else:
        trace.converged = _rel(gn, trace.g_norm_initial) <= stop.rel_tol or gn <= stop.abs_tol
    return x, trace
