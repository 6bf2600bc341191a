"""Per-solve state lives in a workspace the solve owns, not in the stack.

A workspace holds, per level, the stack's own problem and the step estimate
L with its cap, and nothing else.  A solver's output must not depend on what
ran on the stack before it, although the stack's energies reuse their
scratch from one solve to the next, and no array a step returns may change
when the workspace steps again.
"""

import math

import numpy as np
import pytest

from proxmg.accelerated import fastmgprox_solve
from proxmg.baselines import fista_solve, proxgrad_solve
from proxmg.hierarchy import LevelWork, build_obstacle_hierarchy, workspace
from proxmg.membrane import make_obstacle_problem
from proxmg.multigrid import CycleConfig, StoppingRule, mgprox_solve
from proxmg.smoothing import backtrack_L, run_smoothing

STOP = StoppingRule(10, 1e-10)

SOLVERS = {
    "mgprox-fixed": lambda stack, x0: mgprox_solve(stack, x0, STOP),
    "mgprox-backtracking": lambda stack, x0: mgprox_solve(
        stack, x0, STOP, CycleConfig(step_mode="backtracking")),
    "kocvara3": lambda stack, x0: mgprox_solve(
        stack, x0, STOP, CycleConfig(variant="kocvara3", step_mode="backtracking")),
    "fastmgprox": lambda stack, x0: fastmgprox_solve(
        stack, x0, STOP, CycleConfig(step_mode="backtracking")),
    "fista": lambda stack, x0: fista_solve(stack.fine.problem, x0, STOP),
    "proxgrad": lambda stack, x0: proxgrad_solve(stack.fine.problem, x0, STOP),
}


def _fingerprint(x, trace):
    """Bytes of x and of every recorded number of the trace but wall times."""
    series = [trace.objective_initial, trace.g_norm_initial, *trace.objectives,
              *trace.g_norms, *trace.rel_g_norms]
    for key in sorted(trace.extras):
        series += trace.extras[key]
    for ct in trace.cycles:
        series += [*ct.stage_objectives, *ct.alphas, *ct.angle_products,
                   *ct.correction_norms, *ct.mask_counts, *ct.coarse_moves,
                   *ct.smoothing_steps, ct.G_first_sq, ct.F_y_first, ct.L_first]
    return x.tobytes(), np.array(series, dtype=np.float64).tobytes()


@pytest.mark.parametrize("lam", [1e-6, 100.0])
@pytest.mark.parametrize("n_side", [15, 31])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_solve_is_the_same_on_a_fresh_and_on_a_used_stack(name, n_side, lam):
    x0 = np.random.Generator(np.random.PCG64(n_side)).uniform(0.0, 1.0, n_side * n_side)
    fresh = SOLVERS[name](build_obstacle_hierarchy(n_side, lam, 3), x0)
    used = build_obstacle_hierarchy(n_side, lam, 3)
    before = "kocvara3" if name == "mgprox-backtracking" else "mgprox-backtracking"
    SOLVERS[before](used, x0[::-1].copy())
    assert _fingerprint(*SOLVERS[name](used, x0)) == _fingerprint(*fresh)


@pytest.mark.parametrize("mode", ["fixed", "backtracking"])
def test_a_workspace_holds_the_stacks_problems_and_only_the_step_estimates(mode):
    stack = build_obstacle_hierarchy(15, 1.0, 3)
    work = workspace(stack, mode)
    assert len(work) == len(stack)
    for lev, lw in zip(stack, work):
        assert lw.problem is lev.problem
        assert set(vars(lw)) == {"problem", "L", "L_cap"}  # no array of its own


@pytest.mark.parametrize("tilted", [False, True])
@pytest.mark.parametrize("L_cap", [None, 1e9])  # None: uncapped
def test_backtracking_returns_arrays_the_workspace_does_not_reuse(tilted, L_cap):
    # at lam = 1 the step lands partly on, above and below the obstacle, so y
    # depends on x; at lam = 100 it maps both starts onto the obstacle itself
    L_cap = math.inf if L_cap is None else L_cap
    p = make_obstacle_problem(15, 1.0)
    rng = np.random.Generator(np.random.PCG64(9))
    x1, x2 = rng.uniform(0.0, 1.0, p.dim), rng.uniform(0.0, 1.0, p.dim)
    tau = rng.uniform(-1.0, 1.0, p.dim) if tilted else None
    work = LevelWork(p, 1.0, L_cap)
    y, fg = backtrack_L(work, tau, x1)
    L = work.L
    kept = y.tobytes(), fg[0], fg[1].tobytes()
    backtrack_L(work, tau, x2)
    run_smoothing(work, tau, x2, 3)
    assert (y.tobytes(), fg[0], fg[1].tobytes()) == kept
    # and a fresh workspace gives the bytes of the used one
    fresh = LevelWork(p, 1.0, L_cap)
    y0, fg0 = backtrack_L(fresh, tau, x1)
    assert (fresh.L, y0.tobytes(), fg0[0], fg0[1].tobytes()) == (L, *kept)
