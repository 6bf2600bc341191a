"""The stopping contract of the one iteration driver, through every solver.

All five solvers run their steps through ``multigrid.iterate``; these tests
pin down what it promises at the edges of the budget and the tolerances.
"""

import math

import numpy as np
import pytest

from proxmg.cli import SOLVERS
from proxmg.hierarchy import build_obstacle_hierarchy
from proxmg.membrane import MembraneEnergy
from proxmg.multigrid import SolverTrace, StoppingRule
from proxmg.oracles import build_chain_hierarchy

MULTIGRID = {"mgprox", "kocvara3", "fastmgprox"}


@pytest.fixture(scope="module")
def stack():
    return build_obstacle_hierarchy(15, 1e-6, 3)


@pytest.fixture(scope="module")
def x0():
    return np.random.Generator(np.random.PCG64(0)).uniform(0.0, 1.0, size=225)


def _assert_series_lengths(name, trace):
    k = trace.iterations
    for series in (trace.objectives, trace.g_norms, trace.rel_g_norms,
                   trace.times):
        assert len(series) == k
    assert len(trace.cycles) == (k if name in MULTIGRID else 0)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_zero_budget_returns_the_start(name, stack, x0):
    x, trace = SOLVERS[name](stack, x0.copy(), StoppingRule(0, 1e-10), "fixed")
    assert x.tobytes() == x0.tobytes()
    assert trace.iterations == 0
    assert not trace.converged
    assert trace.g_norm_initial > 0.0
    _assert_series_lengths(name, trace)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_a_start_that_already_meets_the_tolerance_is_converged_without_a_step(
        name, stack, x0):
    # the start's relative norm is 1, below an infinite tolerance
    x, trace = SOLVERS[name](stack, x0.copy(), StoppingRule(50, math.inf), "fixed")
    assert trace.converged
    assert trace.iterations == 0
    assert x.tobytes() == x0.tobytes()
    _assert_series_lengths(name, trace)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_convergence_on_the_last_budgeted_iteration_is_reported(name, stack, x0):
    rel_tol = 1e-2
    x_free, free = SOLVERS[name](stack, x0.copy(), StoppingRule(10_000, rel_tol), "fixed")
    assert free.converged
    k = free.iterations
    assert k > 0 and free.rel_g_norms[-1] < rel_tol <= free.rel_g_norms[-2]
    _assert_series_lengths(name, free)

    x_tight, tight = SOLVERS[name](stack, x0.copy(), StoppingRule(k, rel_tol), "fixed")
    assert tight.converged and tight.iterations == k
    assert x_tight.tobytes() == x_free.tobytes()
    assert tight.rel_g_norms == free.rel_g_norms
    _assert_series_lengths(name, tight)

    _, short = SOLVERS[name](stack, x0.copy(), StoppingRule(k - 1, rel_tol), "fixed")
    assert not short.converged and short.iterations == k - 1
    _assert_series_lengths(name, short)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_the_recorded_objectives_are_f_plus_g_at_the_iterates(name, stack, x0):
    # the driver forms F from the pair each step returns; it must be the
    # fine objective at the iterate, to the byte
    problem = stack.fine.problem
    x, trace = SOLVERS[name](stack, x0.copy(), StoppingRule(3, 0.0), "fixed")
    assert trace.objective_initial == problem.objective(x0)
    assert trace.objectives[-1].hex() == problem.objective(x).hex()


@pytest.mark.parametrize("rel_tol", [float("nan"), -1e-10])
def test_a_nan_or_negative_tolerance_is_rejected(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        StoppingRule(10, rel_tol)


@pytest.mark.parametrize("max_iters", [2.5, float("nan")])
def test_a_budget_that_is_not_an_integer_is_rejected(max_iters):
    # iterate stops on iterations == max_iters, which such a budget never meets
    with pytest.raises(ValueError, match="max_iters"):
        StoppingRule(max_iters, 0.0)


def test_a_numpy_integer_budget_is_accepted(stack, x0):
    _, trace = SOLVERS["proxgrad"](stack, x0, StoppingRule(np.int64(3), 0.0), "fixed")
    assert trace.iterations == 3


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_a_start_with_a_non_finite_entry_is_rejected(name, bad, stack, x0, monkeypatch):
    # |G(x0)| would be NaN, so the rule could never hold and the solve would
    # spend its whole budget on NaNs; the driver refuses before evaluating
    def evaluated(self, u):
        raise AssertionError("evaluated a non-finite start")
    for method in ("value", "grad", "value_and_grad"):
        monkeypatch.setattr(MembraneEnergy, method, evaluated)
    start = x0.copy()
    start[7] = bad
    with pytest.raises(ValueError, match="start point"):
        SOLVERS[name](stack, start, StoppingRule(400, 1e-10), "fixed")


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_a_zero_tolerance_runs_the_whole_budget_at_the_minimizer(name):
    # |b_i| <= 1 < lam, so the minimizer is x = 0 and |G| reaches exactly 0
    chain = build_chain_hierarchy(64, 10.0, 2, 20, seed=0)
    x0 = np.random.Generator(np.random.PCG64(0)).uniform(0.0, 1.0, size=64)
    x, trace = SOLVERS[name](chain, x0, StoppingRule(50, 0.0), "fixed")
    assert trace.iterations == 50
    assert not trace.converged
    assert not np.any(x) and trace.g_norms == [0.0] * 50
    _assert_series_lengths(name, trace)


def test_the_trace_says_where_a_run_stopped():
    # relative |G| is derived by one rule, also where |G(x0)| is 0; F and
    # relative |G| at the end are the start's for a run of no iterations
    trace = SolverTrace("t", objective_initial=3.0, g_norm_initial=4.0)
    assert trace.final_objective == trace.best_objective() == 3.0
    assert trace.final_rel_g_norm == 1.0
    trace.objectives, trace.g_norms = [2.0, 5.0], [2.0, 1.0]
    assert trace.rel_g_norms == [0.5, 0.25] and trace.final_rel_g_norm == 0.25
    assert (trace.final_objective, trace.best_objective()) == (5.0, 2.0)
    trace.objectives = [4.0, 5.0]
    assert trace.best_objective() == 3.0  # the start counts
    at_rest = SolverTrace("t", g_norm_initial=0.0, objectives=[1.0, 1.0], g_norms=[0.0, 2.0])
    assert at_rest.rel_g_norms == [0.0, math.inf]
    assert SolverTrace("t").final_rel_g_norm == 0.0
