import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from proxmg.grid import ij_to_k
from proxmg.hierarchy import (LevelStack, build_obstacle_hierarchy, build_tau)
from proxmg.membrane import obstacle_values
from proxmg.multigrid import vcycle
from proxmg.nonsmooth import SeparableNonsmooth, select_subgradient
from proxmg.oracles import build_chain_hierarchy, make_chain_problem, reference_solution
from proxmg.problems import CompositeProblem, tilted_objective
from proxmg.transfer import TransferPair


def test_hierarchy_sides():
    stack = build_obstacle_hierarchy(15, 1e-6, 3)
    assert [lev.problem.smooth.grid.n_side for lev in stack.levels] == [15, 7, 3]
    stack = build_obstacle_hierarchy(3, 1e-6, 2)
    assert [lev.problem.smooth.grid.n_side for lev in stack.levels] == [3, 1]
    assert stack[1].problem.dim == 1


def test_hierarchy_depth_error():
    with pytest.raises(ValueError):
        build_obstacle_hierarchy(7, 1e-6, 4)


def test_finest_tau_is_zero_and_lipschitz_per_level():
    stack = build_obstacle_hierarchy(15, 1e-6, 3)
    # the finest level is never tilted: its stage objectives are the plain F
    problem = stack.fine.problem
    x = np.random.Generator(np.random.PCG64(1)).uniform(0.0, 1.0, problem.dim)
    x_next, _, ct = vcycle(stack, x)
    assert ct.stage_objectives[0] == problem.objective(x)
    assert ct.stage_objectives[-1] == problem.objective(x_next)
    for lev in stack.levels:
        assert lev.L_est == pytest.approx(lev.problem.smooth.lipschitz)


def test_coarse_obstacle_aligns_with_fine_points():
    fine_phi = obstacle_values(15)
    coarse_phi = obstacle_values(7)
    for I in range(1, 8):
        for J in range(1, 8):
            assert coarse_phi[ij_to_k(I, J, 7)] == pytest.approx(
                fine_phi[ij_to_k(2 * I, 2 * J, 15)], rel=1e-15)


def _identity_transfer(n):
    return TransferPair(sp.csr_array(sp.identity(n)))


def test_tau_vanishes_for_identical_problems_with_identity_transfer():
    problem = make_chain_problem(16, lam=0.1, seed=0)
    t = _identity_transfer(16)
    rng = np.random.Generator(np.random.PCG64(0))
    y = rng.standard_normal(16)
    mask = np.zeros(16, dtype=bool)
    side = problem.smooth.grad(y) + problem.nonsmooth.subgradient(y)
    tau = build_tau(t, mask, side, side)
    np.testing.assert_allclose(tau, 0.0, atol=1e-14)


def test_tau_reduces_to_classical_form_without_nonsmooth_part():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    fine = CompositeProblem(stack[0].problem.smooth, SeparableNonsmooth.l1(0.0))
    coarse = CompositeProblem(stack[1].problem.smooth, SeparableNonsmooth.l1(0.0))
    t = stack[0].transfer_down
    rng = np.random.Generator(np.random.PCG64(1))
    y = rng.uniform(0, 1, size=49)
    y_c = t.restrict @ y
    mask = np.zeros(49, dtype=bool)
    tau = build_tau(t, mask, fine.smooth.grad(y) + fine.nonsmooth.subgradient(y),
                    coarse.smooth.grad(y_c) + coarse.nonsmooth.subgradient(y_c))
    classical = coarse.smooth.grad(y_c) - t.restrict @ fine.smooth.grad(y)
    np.testing.assert_allclose(tau, classical, atol=1e-13)


def test_tilted_objective_identities():
    problem = make_chain_problem(8, lam=0.05, seed=2)
    rng = np.random.Generator(np.random.PCG64(2))
    xi = rng.standard_normal(8)
    tau1 = rng.standard_normal(8)
    tau2 = rng.standard_normal(8)
    assert tilted_objective(problem, None, xi) == problem.objective(xi)
    assert tilted_objective(problem, tau1, np.zeros(8)) == problem.objective(np.zeros(8))
    lhs = tilted_objective(problem, tau1 + tau2, xi)
    rhs = tilted_objective(problem, tau1, xi) - tau2 @ xi
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_fixed_point_certificate_of_tau():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    ref = reference_solution(stack, seed=0)
    fine, coarse = stack[0], stack[1]
    t = fine.transfer_down
    y = ref.x
    g = fine.problem.nonsmooth
    mask = g.subdiff(y).set_valued()
    y_c = t.restrict @ y
    tau = build_tau(t, mask, fine.problem.smooth.grad(y) + g.subgradient(y),
                    coarse.problem.smooth.grad(y_c)
                    + coarse.problem.nonsmooth.subgradient(y_c))
    s_c = select_subgradient(coarse.problem.nonsmooth.subdiff(y_c))
    residual = coarse.problem.smooth.grad(y_c) + s_c - tau
    assert np.linalg.norm(residual) <= 1e-6 * coarse.L_est


def test_multilevel_fixed_point_chains_through_three_levels():
    stack = build_obstacle_hierarchy(15, 1e-6, 3)
    ref = reference_solution(stack, seed=0)
    x_next, _, ct = vcycle(stack, ref.x)
    assert float(np.max(np.abs(x_next - ref.x))) <= 1e-8
    assert all(move <= 1e-7 for move in ct.coarse_moves)


def test_coarse_tilted_objective_stays_strictly_convex_on_segments():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    coarse = stack[1].problem
    rng = np.random.Generator(np.random.PCG64(7))
    tau = rng.standard_normal(9)
    for _ in range(10):
        a = rng.uniform(-1, 1, size=9)
        b = rng.uniform(-1, 1, size=9)
        mid = tilted_objective(coarse, tau, 0.5 * (a + b))
        chord = 0.5 * (tilted_objective(coarse, tau, a) + tilted_objective(coarse, tau, b))
        assert mid < chord + 1e-12


def test_stack_validation():
    with pytest.raises(ValueError):
        LevelStack([], 20)
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    with pytest.raises(ValueError):
        LevelStack(stack.levels, 0)
    # a fractional or NaN budget is refused at the build, not in range()
    for budget in (2.5, float("nan"), 2.0):
        with pytest.raises(ValueError, match="n_smooth"):
            LevelStack(stack.levels, budget)
    with pytest.raises(ValueError, match="n_smooth"):
        build_obstacle_hierarchy(7, 1e-6, 2, 2.5)
    assert build_obstacle_hierarchy(7, 1e-6, 2, np.int64(3)).n_smooth == 3


@pytest.mark.parametrize("build, n", [(build_obstacle_hierarchy, 15),
                                      (build_chain_hierarchy, 16)])
def test_a_level_count_that_is_not_a_positive_integer_is_rejected(build, n):
    # a fractional count used to die inside range() with a TypeError
    for num_levels in (2.5, 2.0, float("nan"), 0, -1):
        with pytest.raises(ValueError, match="num_levels"):
            build(n, 1e-6, num_levels)
    assert len(build(n, 1e-6, np.int64(3))) == 3


def test_stack_is_immutable():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        stack.n_smooth = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        stack.levels = stack.levels[:1]
    assert stack.n_smooth == 20 and len(stack) == 2
    assert isinstance(LevelStack(list(stack.levels)).levels, tuple)
