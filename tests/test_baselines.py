import math

import numpy as np
import pytest

from proxmg.baselines import fista_solve, proxgrad_solve
from proxmg.membrane import make_obstacle_problem
from proxmg.multigrid import StoppingRule
from proxmg.oracles import (build_chain_hierarchy, chain_constants,
                            make_chain_problem, reference_solution)


def test_fista_t_sequence_and_betas():
    t1 = 1.0
    t2 = 0.5 * (1 + math.sqrt(1 + 4 * t1 * t1))
    t3 = 0.5 * (1 + math.sqrt(1 + 4 * t2 * t2))
    assert t2 == pytest.approx(1.618033988749895)
    assert t3 == pytest.approx(2.1935, abs=1e-4)
    assert (t1 - 1) / t2 == 0.0
    assert (t2 - 1) / t3 == pytest.approx(0.28175, abs=1e-4)

    problem = make_chain_problem(16, 0.05, seed=0)
    rng = np.random.Generator(np.random.PCG64(0))
    x0 = rng.uniform(0, 1, size=16)
    _, trace = fista_solve(problem, x0, StoppingRule(3, 0.0))
    assert trace.extras["beta"][0] == 0.0
    assert trace.extras["beta"][1] == pytest.approx((t2 - 1) / t3, rel=1e-12)


def test_proxgrad_monotone_and_linear_envelope():
    problem = make_chain_problem(64, 0.01, seed=0)
    mu, L = chain_constants(problem)
    stack = build_chain_hierarchy(64, 0.01, 2, 20, seed=0)
    ref = reference_solution(stack, seed=0)
    rng = np.random.Generator(np.random.PCG64(0))
    x0 = rng.uniform(0, 1, size=64)
    _, trace = proxgrad_solve(problem, x0, StoppingRule(40000, 1e-8))
    assert trace.converged
    objs = [trace.objective_initial] + trace.objectives
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    gap0 = trace.objective_initial - ref.objective
    for k, F in enumerate(trace.objectives, start=1):
        assert F - ref.objective <= math.exp(-(mu / L) * k) * gap0 + 1e-10


def test_fista_quadratic_envelope():
    stack = build_chain_hierarchy(64, 0.01, 2, 20, seed=0)
    ref = reference_solution(stack, seed=0)
    problem = stack.fine.problem
    rng = np.random.Generator(np.random.PCG64(0))
    x0 = rng.uniform(0, 1, size=64)
    x, trace = fista_solve(problem, x0, StoppingRule(20000, 1e-8))
    assert trace.converged
    L_hat = max(trace.extras["L_hat"])
    r0 = float((x0 - ref.x) @ (x0 - ref.x))
    for k, F in enumerate(trace.objectives, start=1):
        assert F - ref.objective <= 2.0 * L_hat * r0 / (k + 1) ** 2 + 1e-10


@pytest.mark.parametrize("solver", [proxgrad_solve, fista_solve])
def test_both_reach_tolerance_on_the_membrane(solver):
    problem = make_obstacle_problem(7, 1e-6)
    rng = np.random.Generator(np.random.PCG64(1))
    x0 = rng.uniform(0, 1, size=problem.dim)
    _, trace = solver(problem, x0, StoppingRule(100000, 1e-8))
    assert trace.converged
    assert trace.iterations < 100000
