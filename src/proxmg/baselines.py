"""Single-level first-order baselines: proximal gradient and its FISTA variant.

Both backtrack the Lipschitz estimate upward from the problem's canonical
bound and never shrink it between iterations.  Convergence is measured by the
prox-gradient map at x^k with the canonical bound, the same metric the
multigrid solvers use, so iteration counts are comparable across methods.
Each solve evaluates on a one-level workspace of its own (``LevelWork``).
"""

from __future__ import annotations

import math
import time

import numpy as np

from .hierarchy import LevelWork
from .multigrid import SolverTrace, StoppingRule, _rel
from .problems import CompositeProblem
from .smoothing import backtrack_L, prox_grad_map


def proxgrad_solve(problem: CompositeProblem, x0: np.ndarray, stop: StoppingRule,
                   L0: float | None = None, eta: float = 2.0) -> tuple[np.ndarray, SolverTrace]:
    """Plain proximal gradient with a backtracked, monotone stepsize estimate."""
    L_metric = problem.lipschitz
    L = L_metric if L0 is None else L0
    work = LevelWork(problem)
    problem, scratch = work.problem, work.step
    x = np.asarray(x0, dtype=np.float64)
    trace = SolverTrace(algorithm="proxgrad")
    trace.meta.update(eta=eta, L0=L)
    trace.extras["L_hat"] = []
    fg = problem.smooth.value_and_grad(x)
    gn = float(np.linalg.norm(prox_grad_map(problem, None, x, L_metric, fg[1], scratch)))
    trace.g_norm_initial = gn
    trace.objective_initial = problem.objective(x, fg[0])
    L_cap = 4.0 * L
    t0 = time.perf_counter()
    for _ in range(stop.max_iters):
        if _rel(gn, trace.g_norm_initial) <= stop.rel_tol or gn <= stop.abs_tol:
            trace.converged = True
            break
        L, x, fg = backtrack_L(problem, None, x, L, eta=eta, L_cap=L_cap, fg_x=fg,
                               scratch=scratch)
        if fg is None:
            fg = problem.smooth.value_and_grad(x)
        gn = float(np.linalg.norm(prox_grad_map(problem, None, x, L_metric, fg[1], scratch)))
        trace.objectives.append(problem.objective(x, fg[0]))
        trace.g_norms.append(gn)
        trace.rel_g_norms.append(_rel(gn, trace.g_norm_initial))
        trace.coarse_alphas.append(None)
        trace.times.append(time.perf_counter() - t0)
        trace.extras["L_hat"].append(L)
    else:
        trace.converged = _rel(gn, trace.g_norm_initial) <= stop.rel_tol or gn <= stop.abs_tol
    return x, trace


def fista_solve(problem: CompositeProblem, x0: np.ndarray, stop: StoppingRule,
                L0: float | None = None, eta: float = 2.0) -> tuple[np.ndarray, SolverTrace]:
    """FISTA with the standard t-sequence extrapolation and backtracked steps.

    t_1 = 1, t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2, beta_k = (t_k - 1)/t_{k+1};
    the prox step is taken at the extrapolated point.  The objective sequence
    may be nonmonotone; that is expected, not a failure.
    """
    L_metric = problem.lipschitz
    L = L_metric if L0 is None else L0
    work = LevelWork(problem)
    problem, scratch = work.problem, work.step
    x = np.asarray(x0, dtype=np.float64)
    y = x.copy()
    t = 1.0
    trace = SolverTrace(algorithm="fista")
    trace.meta.update(eta=eta, L0=L)
    trace.extras["L_hat"] = []
    trace.extras["beta"] = []
    fg = problem.smooth.value_and_grad(x)
    gn = float(np.linalg.norm(prox_grad_map(problem, None, x, L_metric, fg[1], scratch)))
    trace.g_norm_initial = gn
    trace.objective_initial = problem.objective(x, fg[0])
    L_cap = 4.0 * L
    t0 = time.perf_counter()
    for _ in range(stop.max_iters):
        if _rel(gn, trace.g_norm_initial) <= stop.rel_tol or gn <= stop.abs_tol:
            trace.converged = True
            break
        L, x_next, fg = backtrack_L(problem, None, y, L, eta=eta, L_cap=L_cap,
                                    scratch=scratch)
        if fg is None:
            fg = problem.smooth.value_and_grad(x_next)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = x_next - x  # y = x_next + beta * (x_next - x), in one array
        y *= beta
        y += x_next
        x, t = x_next, t_next
        gn = float(np.linalg.norm(prox_grad_map(problem, None, x, L_metric, fg[1], scratch)))
        trace.objectives.append(problem.objective(x, fg[0]))
        trace.g_norms.append(gn)
        trace.rel_g_norms.append(_rel(gn, trace.g_norm_initial))
        trace.coarse_alphas.append(None)
        trace.times.append(time.perf_counter() - t0)
        trace.extras["L_hat"].append(L)
        trace.extras["beta"].append(beta)
    else:
        trace.converged = _rel(gn, trace.g_norm_initial) <= stop.rel_tol or gn <= stop.abs_tol
    return x, trace
