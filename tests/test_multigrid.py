import dataclasses
import json

import numpy as np
import pytest

from proxmg.certificates import (check_angle_condition, check_fixed_point,
                                 check_smoothing_descent,
                                 check_stage_monotonicity)
from proxmg.hierarchy import LevelStack, build_obstacle_hierarchy
from proxmg.membrane import MembraneEnergy
from proxmg.multigrid import (CycleConfig, StoppingRule, cycle_work_units,
                              mgprox_solve, naive_line_search, vcycle)
from proxmg.nonsmooth import SeparableNonsmooth
from proxmg.oracles import build_chain_hierarchy, reference_solution
from proxmg.problems import CompositeProblem


def test_line_search_accepts_zero_direction_immediately():
    y = np.array([1.0, 2.0])
    z, alpha, f_z = naive_line_search(lambda v: float(v @ v), y, np.zeros(2), 5.0)
    assert alpha == 1.0
    assert np.array_equal(z, y)


def test_line_search_halves_an_overshooting_direction():
    y = np.array([1.0])
    p = np.array([-100.0])  # descent direction, wildly overscaled
    f = lambda v: float(v @ v)
    z, alpha, f_z = naive_line_search(f, y, p, f(y))
    assert 0.0 < alpha < 1.0
    assert f_z <= f(y)


def test_line_search_uphill_falls_back_to_zero():
    y = np.array([0.0])
    p = np.array([1.0])
    f = lambda v: float(v[0])  # any alpha > 0 increases f
    z, alpha, f_z = naive_line_search(f, y, p, f(y))
    assert alpha == 0.0
    assert np.array_equal(z, y)
    assert f_z == f(y)


def test_cycle_inherits_the_first_step_descent_guarantee():
    # F after a whole cycle is at least as good as the first smoothing step's bound
    from proxmg.smoothing import prox_grad_map
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    problem = stack.fine.problem
    L = stack.fine.L_est
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(5):
        x = rng.uniform(0, 1, size=49)
        G = np.linalg.norm(prox_grad_map(problem, None, x, L))
        x_next, _, ct = vcycle(stack, x)
        assert problem.objective(x_next) <= problem.objective(x) - G * G / (2 * L) + 1e-12


def test_cycle_config_validation():
    with pytest.raises(ValueError):
        CycleConfig(variant="wcycle")
    with pytest.raises(ValueError, match="step_mode"):
        CycleConfig(step_mode="wild")
    with pytest.raises(ValueError):
        vcycle(build_obstacle_hierarchy(7, 1e-6, 1), np.zeros(49))


def test_cycle_stage_monotonicity_and_angle_condition():
    stack = build_obstacle_hierarchy(15, 1e-6, 3)
    rng = np.random.Generator(np.random.PCG64(1))
    x0 = rng.uniform(0, 1, size=225)
    _, trace = mgprox_solve(stack, x0, StoppingRule(25, 1e-10))
    assert check_stage_monotonicity(trace).passed
    assert check_angle_condition(trace).passed
    assert check_smoothing_descent(trace).passed


def test_a_cycle_trace_records_python_numbers():
    """The per-level records are Python ints and floats, so a trace
    serializes as JSON; numpy scalars such as np.count_nonzero's would not."""
    stack = build_obstacle_hierarchy(15, 100.0, 3)
    rng = np.random.Generator(np.random.PCG64(1))
    _, _, ct = vcycle(stack, rng.uniform(0, 1, size=225))
    records = {"mask_counts": int, "smoothing_steps": int, "angle_products": float,
               "correction_norms": float, "coarse_moves": float, "alphas": float,
               "stage_objectives": float}
    for name, kind in records.items():
        assert all(type(v) is kind for v in getattr(ct, name)), name
    json.dumps({name: getattr(ct, name) for name in records})


def test_fixed_point_of_one_cycle():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    ref = reference_solution(stack, seed=0)
    results = check_fixed_point(stack, ref.x)
    assert all(r.passed for r in results)
    # nothing is masked at lam = 1e-6, so a check that needs a mask fails
    mask = check_fixed_point(stack, ref.x, masked=True)[-1]
    assert (mask.name, mask.passed, mask.margin) == ("fixed-point-mask", False, 0.0)


def test_corrupted_tau_breaks_the_fixed_point():
    bad = CycleConfig(tau_hook=lambda tau, level: -tau)
    for lam in (1e-6, 100.0):
        stack = build_obstacle_hierarchy(7, lam, 2)
        ref = reference_solution(stack, seed=0)
        results = check_fixed_point(stack, ref.x, bad)
        assert not all(r.passed for r in results), lam


@pytest.mark.parametrize("num_levels", [2, 3, 4])
def test_work_units_stay_under_the_geometric_budget(num_levels):
    stack = build_obstacle_hierarchy(15, 1e-6, num_levels)
    rng = np.random.Generator(np.random.PCG64(2))
    x0 = rng.uniform(0, 1, size=225)
    _, _, ct = vcycle(stack, x0)
    budget = (8.0 / 3.0) * (1.0 - 0.25**num_levels) * stack.n_smooth
    assert cycle_work_units(ct) <= budget
    # and 2.67 fine blocks is the level-independent cap
    assert cycle_work_units(ct) <= 2.67 * stack.n_smooth


def test_solve_with_infinite_tolerance_does_nothing():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    x0 = np.ones(49)
    x, trace = mgprox_solve(stack, x0, StoppingRule(10, float("inf")))
    assert trace.iterations == 0
    assert trace.converged
    assert np.array_equal(x, x0)


def test_solve_converges_and_is_deterministic():
    rng = np.random.Generator(np.random.PCG64(3))
    x0 = rng.uniform(0, 1, size=49)
    xa, ta = mgprox_solve(build_obstacle_hierarchy(7, 1e-6, 2), x0.copy(),
                          StoppingRule(100, 1e-10))
    xb, tb = mgprox_solve(build_obstacle_hierarchy(7, 1e-6, 2), x0.copy(),
                          StoppingRule(100, 1e-10))
    assert ta.converged
    assert np.array_equal(xa, xb)
    assert ta.objectives == tb.objectives


def test_nonconvergence_is_reported_not_raised():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    x0 = np.ones(49)
    _, trace = mgprox_solve(stack, x0, StoppingRule(2, 1e-16))
    assert not trace.converged
    assert trace.iterations == 2


def test_kocvara3_equals_mgprox_on_a_smooth_problem():
    def smooth_stack():
        stack = build_obstacle_hierarchy(7, 1e-6, 2)
        return LevelStack([dataclasses.replace(lev, problem=CompositeProblem(
            lev.problem.smooth, SeparableNonsmooth.l1(0.0))) for lev in stack.levels],
            stack.n_smooth)

    rng = np.random.Generator(np.random.PCG64(4))
    x0 = rng.uniform(0, 1, size=49)
    xa, _ = mgprox_solve(smooth_stack(), x0.copy(), StoppingRule(5, 0.0))
    xb, _ = mgprox_solve(smooth_stack(), x0.copy(), StoppingRule(5, 0.0),
                         CycleConfig(variant="kocvara3"))
    assert np.array_equal(xa, xb)


def test_kocvara3_descends_but_lags_mgprox_on_the_obstacle():
    rng = np.random.Generator(np.random.PCG64(5))
    x0 = rng.uniform(0, 1, size=225)
    x_mg, t_mg = mgprox_solve(build_obstacle_hierarchy(15, 1e-6, 3), x0.copy(),
                              StoppingRule(300, 1e-10))
    stack = build_obstacle_hierarchy(15, 1e-6, 3)
    x_k, t_k = mgprox_solve(stack, x0.copy(), StoppingRule(3 * t_mg.iterations, 1e-10),
                            CycleConfig(variant="kocvara3"))
    assert t_mg.converged
    assert check_stage_monotonicity(t_k).passed
    assert (not t_k.converged) or t_k.iterations > t_mg.iterations


def test_fixed_step_cycle_evaluations_per_level(monkeypatch):
    # a fixed step costs one gradient; the pair (f, grad f) is completed once
    # per smoothing block, not once per step, and only where the cycle reads
    # it: after pre-smoothing above the coarsest level, and after the finest
    # post-smoothing
    stack = build_obstacle_hierarchy(15, 1e-6, 3, 20)
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.uniform(0, 1, size=stack.fine.problem.dim)
    fg_x = stack.fine.problem.smooth.value_and_grad(x)
    counts = {"grad": {}, "value_and_grad": {}}
    for name in counts:
        def counted(self, u, _name=name, _orig=getattr(MembraneEnergy, name)):
            counts[_name][self._n] = counts[_name].get(self._n, 0) + 1
            return _orig(self, u)
        monkeypatch.setattr(MembraneEnergy, name, counted)
    vcycle(stack, x, CycleConfig(step_mode="fixed"), fg_x)
    assert counts == {"grad": {15: 39, 7: 39, 3: 19}, "value_and_grad": {15: 2, 7: 2, 3: 1}}
