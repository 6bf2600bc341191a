"""Single-level first-order baselines: proximal gradient and its FISTA variant.

Both backtrack the Lipschitz estimate upward from the problem's canonical
bound, up to the cap ``hierarchy.step_cap`` of it, and never shrink it
between iterations.  They stop on the same prox-gradient metric as the
multigrid solvers (see ``multigrid.iterate``), so iteration counts are
comparable across methods.  Each solve evaluates on a one-level workspace
of its own (``LevelWork``), whose estimate the steps grow themselves.
"""

from __future__ import annotations

import math

import numpy as np

from .hierarchy import LevelWork, step_cap
from .multigrid import SolverTrace, StoppingRule, iterate
from .problems import CompositeProblem
from .smoothing import backtrack_L


def proxgrad_solve(problem: CompositeProblem, x0: np.ndarray,
                   stop: StoppingRule) -> tuple[np.ndarray, SolverTrace]:
    """Plain proximal gradient with a backtracked, monotone stepsize estimate."""
    work = LevelWork(problem, problem.lipschitz, step_cap(problem.lipschitz))
    trace = SolverTrace(algorithm="proxgrad")
    L_hat = trace.extras["L_hat"] = []

    def step(x, fg):
        x, fg = backtrack_L(work, None, x, fg)
        if fg is None:
            fg = problem.smooth.value_and_grad(x)
        L_hat.append(work.L)
        return x, fg, None

    return iterate(trace, problem, x0, stop, step), trace


def fista_solve(problem: CompositeProblem, x0: np.ndarray,
                stop: StoppingRule) -> tuple[np.ndarray, SolverTrace]:
    """FISTA with the standard t-sequence extrapolation and backtracked steps.

    t_1 = 1, t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2, beta_k = (t_k - 1)/t_{k+1};
    the prox step is taken at the extrapolated point.  The objective sequence
    may be nonmonotone; that is expected, not a failure.
    """
    work = LevelWork(problem, problem.lipschitz, step_cap(problem.lipschitz))
    y = None
    t = 1.0
    trace = SolverTrace(algorithm="fista")
    L_hat = trace.extras["L_hat"] = []
    betas = trace.extras["beta"] = []

    def step(x, fg):
        nonlocal y, t
        if y is None:  # y_1 = x_0
            y = x
        x_next, fg = backtrack_L(work, None, y)
        if fg is None:
            fg = problem.smooth.value_and_grad(x_next)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = x_next - x  # y = x_next + beta * (x_next - x), in one array
        y *= beta
        y += x_next
        t = t_next
        L_hat.append(work.L)
        betas.append(beta)
        return x_next, fg, None

    return iterate(trace, problem, x0, stop, step), trace
