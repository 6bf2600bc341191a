"""Per-solve state lives in a workspace the solve owns, not in the stack.

A workspace holds, per level, the stack's own problem and the step estimate
L with its cap, and nothing else.  A solver's output must not depend on what
ran on the stack before it, although the stack's energies reuse their
scratch from one solve to the next, and no array a step returns may change
when the workspace steps again.  The solvers are called through
``cli.SOLVERS``, whose entries must give the bytes of the direct calls they
stand for.
"""

import math

import numpy as np
import pytest

from proxmg.accelerated import fastmgprox_solve
from proxmg.baselines import fista_solve, proxgrad_solve
from proxmg.cli import SOLVERS
from proxmg.hierarchy import LevelWork, build_obstacle_hierarchy, workspace
from proxmg.membrane import make_obstacle_problem
from proxmg.multigrid import CycleConfig, StoppingRule, mgprox_solve
from proxmg.smoothing import backtrack_L, run_smoothing

STOP = StoppingRule(10, 1e-10)
# every table entry in both step modes, by test id: (name, step mode)
RUNS = {"mgprox-fixed": ("mgprox", "fixed"), "mgprox-backtracking": ("mgprox", "backtracking"),
        "kocvara3": ("kocvara3", "backtracking"), "kocvara3-fixed": ("kocvara3", "fixed"),
        "fastmgprox": ("fastmgprox", "backtracking"), "fastmgprox-fixed": ("fastmgprox", "fixed"),
        "fista": ("fista", "fixed"), "fista-backtracking": ("fista", "backtracking"),
        "proxgrad": ("proxgrad", "fixed"), "proxgrad-backtracking": ("proxgrad", "backtracking")}
# each entry's direct call: the solver and its cycle variant (None: single level)
DIRECT = {"mgprox": (mgprox_solve, "mgprox"), "fastmgprox": (fastmgprox_solve, "mgprox"),
          "proxgrad": (proxgrad_solve, None), "fista": (fista_solve, None),
          "kocvara3": (mgprox_solve, "kocvara3")}


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
@pytest.mark.parametrize("run", sorted(RUNS))
def test_solve_is_the_same_on_a_fresh_and_on_a_used_stack(run, n_side, lam):
    # and the table entry gives the bytes of the direct call it stands for
    name, mode = RUNS[run]
    x0 = np.random.Generator(np.random.PCG64(n_side)).uniform(0.0, 1.0, n_side * n_side)
    fresh = build_obstacle_hierarchy(n_side, lam, 3)
    solve, variant = DIRECT[name]
    if variant is None:  # no step mode to pass, so both modes give these bytes
        direct = solve(fresh.fine.problem, x0, STOP)
    else:
        direct = solve(fresh, x0, STOP, CycleConfig(variant=variant, step_mode=mode))
    used = build_obstacle_hierarchy(n_side, lam, 3)
    before = "kocvara3" if (name, mode) == ("mgprox", "backtracking") else "mgprox"
    SOLVERS[before](used, x0[::-1].copy(), STOP, "backtracking")
    x, trace = SOLVERS[name](used, x0, STOP, mode)
    assert _fingerprint(x, trace) == _fingerprint(*direct)
    assert (trace.algorithm, trace.meta.get("step_mode")) == (name, mode if variant else None)


@pytest.mark.parametrize("mode", ["fixed", "backtracking"])
def test_a_workspace_holds_the_stacks_problems_and_only_the_step_estimates(mode):
    stack = build_obstacle_hierarchy(15, 1.0, 3)
    work = workspace(stack, mode)
    assert len(work) == len(stack)
    for lev, lw in zip(stack, work):
        assert lw.problem is lev.problem
        assert set(vars(lw)) == {"problem", "L", "L_cap"}  # no array of its own


def test_the_runs_are_every_table_entry_in_both_modes():
    assert set(RUNS.values()) == {(n, m) for n in SOLVERS for m in ("fixed", "backtracking")}


def test_an_unknown_step_mode_is_rejected():
    # a misspelt mode used to get the fixed-step workspace
    with pytest.raises(ValueError, match="'backtrack'"):
        workspace(build_obstacle_hierarchy(15, 1e-6, 3), "backtrack")


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
