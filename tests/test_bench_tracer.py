"""The benchmark's span tracer (benches/tracer.py) keeps working on the library.

The tracer patches library functions by name and attributes the smoothing
spans to a level through the dimension of their first argument, so a rename
or a signature change in ``proxmg`` would break ``benches/run.py --trace 1``.
These tests import the tracer and change nothing under ``benches``; no
benchmark is run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from proxmg.baselines import proxgrad_solve
from proxmg.hierarchy import build_obstacle_hierarchy
from proxmg.multigrid import CycleConfig, StoppingRule, mgprox_solve

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benches"))
import tracer  # noqa: E402
import workloads  # noqa: E402

LEVELLED_SMOOTHING = ("smoothing.run_smoothing", "smoothing.backtrack_L")


@pytest.mark.parametrize("target", tracer.TARGETS, ids=[t[2] for t in tracer.TARGETS])
def test_every_tracer_target_resolves_in_its_module(target):
    mod_name, attr, _, _ = target
    home = importlib.import_module(f"proxmg.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(home, cls_name).__dict__[meth])
    else:
        assert callable(getattr(home, attr))


# names benches/selftest.py reads off modules that import them, with their
# home modules: if a refactor drops one of these imports, the selftest
# stops with an AttributeError
IMPORTED_BY_NAME = [("baselines", "backtrack_L", "smoothing"),
                    ("multigrid", "run_smoothing", "smoothing"),
                    ("accelerated", "vcycle", "multigrid"),
                    ("hierarchy", "restrict_adaptive", "transfer")]


@pytest.mark.parametrize("user, attr, home", IMPORTED_BY_NAME,
                         ids=[f"{u}.{a}" for u, a, _ in IMPORTED_BY_NAME])
def test_selftest_names_resolve_to_their_home_functions(user, attr, home):
    user_mod = importlib.import_module(f"proxmg.{user}")
    home_mod = importlib.import_module(f"proxmg.{home}")
    assert getattr(user_mod, attr) is getattr(home_mod, attr)


def test_smoothing_spans_are_attributed_to_levels():
    stack = build_obstacle_hierarchy(15, 1e-6, 3)
    x0 = np.random.Generator(np.random.PCG64(0)).uniform(0.0, 1.0, stack.fine.problem.dim)
    tr = tracer.Tracer({225: 0, 49: 1, 9: 2})
    with tr.patched():
        mgprox_solve(stack, x0, StoppingRule(2, 0.0), CycleConfig(step_mode="backtracking"))
        proxgrad_solve(stack.fine.problem, x0, StoppingRule(2, 0.0))
    stats = tr.collect()[0]
    for name in LEVELLED_SMOOTHING:
        levels = {lev for (nm, lev), calls in stats.calls.items() if nm == name and calls}
        assert levels == {0, 1, 2}, name
        assert stats.total(stats.calls, name, tracer.NO_LEVEL) == 0, name


# the four solves of benches/selftest.py's TINY workload, from its start at
# seed 3: backtracking mgprox to tolerance, fixed-step fastmgprox, fista and
# proxgrad, all at n = 15 and lam = 100
SELFTEST_TINY = workloads.Workload((
    workloads.Solve("mgprox", 15, 100.0, 3, 200, 1e-8, "backtracking"),
    workloads.Solve("fastmgprox", 15, 100.0, 3, 10, 0.0, "fixed"),
    workloads.Solve("fista", 15, 100.0, 1, 20, 0.0, "backtracking"),
    workloads.Solve("proxgrad", 15, 100.0, 1, 20, 0.0, "backtracking"),
), starts=2)


def test_the_selftest_solves_reach_every_wrapped_function_but_subdiff():
    # the selftest's "every wrapped function was reached" check already
    # fails on nonsmooth.subdiff, so a library change that stops reaching
    # another target would add no failure there; this pins the unreached set
    x0 = SELFTEST_TINY.start_points(3)[0]
    tr = tracer.Tracer(SELFTEST_TINY.solves[0].level_of_dim())
    with tr.patched():
        for solve in SELFTEST_TINY.solves:
            workloads.run_solve(solve, x0)
    called = {name for name, _ in tr.collect()[0].calls}
    assert {t[2] for t in tracer.TARGETS} - called == {"nonsmooth.subdiff"}
