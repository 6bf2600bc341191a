"""Per-solve state lives in a workspace the solve owns, not in the stack.

A solver's output must not depend on what ran on the stack before it, and
the scratch a workspace reuses must never show through the arrays a step
returns.
"""

import numpy as np
import pytest

from proxmg.accelerated import fastmgprox_solve
from proxmg.baselines import fista_solve, proxgrad_solve
from proxmg.hierarchy import LevelWork, build_obstacle_hierarchy
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
              *trace.g_norms, *trace.rel_g_norms,
              *(a for a in trace.coarse_alphas if a is not None)]
    for key in sorted(trace.extras):
        series += trace.extras[key]
    for ct in trace.cycles:
        series += [*ct.stage_objectives, *ct.alphas, *ct.angle_products,
                   *ct.correction_norms, *ct.mask_counts, *ct.coarse_moves,
                   *ct.smoothing_steps, ct.F_y_first, ct.L_first]
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


@pytest.mark.parametrize("tilted", [False, True])
@pytest.mark.parametrize("L_cap", [None, 1e9])
def test_backtracking_returns_arrays_the_workspace_does_not_reuse(tilted, L_cap):
    # at lam = 1 the step lands partly on, above and below the obstacle, so y
    # depends on x; at lam = 100 it maps both starts onto the obstacle itself
    p = make_obstacle_problem(15, 1.0)
    rng = np.random.Generator(np.random.PCG64(9))
    x1, x2 = rng.uniform(0.0, 1.0, p.dim), rng.uniform(0.0, 1.0, p.dim)
    tau = rng.uniform(-1.0, 1.0, p.dim) if tilted else None
    work = LevelWork(p)
    L, y, fg = backtrack_L(work.problem, tau, x1, 1.0, L_cap=L_cap, scratch=work.step)
    kept = y.tobytes(), fg[0], fg[1].tobytes()
    backtrack_L(work.problem, tau, x2, 1.0, L_cap=L_cap, scratch=work.step)
    run_smoothing(work.problem, tau, x2, 1.0, 3, mode="backtracking", scratch=work.step)
    assert (y.tobytes(), fg[0], fg[1].tobytes()) == kept
    # and the workspace path gives the bytes of the throwaway one
    L0, y0, fg0 = backtrack_L(p, tau, x1, 1.0, L_cap=L_cap)
    assert (L0, y0.tobytes(), fg0[0], fg0[1].tobytes()) == (L, *kept)
