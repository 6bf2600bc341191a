import numpy as np
import pytest

from proxmg.certificates import check_stage_monotonicity
from proxmg.hierarchy import build_obstacle_hierarchy
from proxmg.multigrid import StoppingRule, mgprox_solve
from proxmg.oracles import (brute_force_prox, build_chain_hierarchy,
                            chain_constants, fd_gradient, make_chain_problem,
                            reference_solution)
from proxmg.problems import extreme_eigenvalues, laplacian_1d


def test_fd_gradient_on_simple_functions():
    grad = fd_gradient(lambda x: 0.5 * float(x @ x), np.array([3.0]), 1e-6)
    assert grad[0] == pytest.approx(3.0, abs=1e-9)
    grad = fd_gradient(lambda x: 7.0, np.array([1.0, 2.0]), 1e-6)
    np.testing.assert_allclose(grad, 0.0)
    with pytest.raises(ValueError):
        fd_gradient(lambda x: 0.0, np.array([1.0]), 0.0)


def test_brute_force_prox_reproduces_hinge_cases():
    cases = [(-2.0, -1.0), (-0.5, 0.0), (0.5, 0.5)]  # (v, prox) at lam=1, c=0, step=1
    for v, expected in cases:
        got = brute_force_prox(lambda t: max(-t, 0.0), v, 1.0, bracket=(v - 11, v + 11))
        assert abs(got - expected) <= 1e-8
    with pytest.raises(ValueError, match="empty bracket"):
        brute_force_prox(lambda t: abs(t), 0.0, 1.0, bracket=(1.0, -1.0))


def test_power_iteration_against_dense_eigenvalues():
    A = laplacian_1d(64)
    mu, L = extreme_eigenvalues(A)
    w = np.linalg.eigvalsh(A.toarray())
    assert L == pytest.approx(w[-1], rel=1e-8)
    assert mu == pytest.approx(w[0], rel=1e-6, abs=1e-9)


def test_constants_bracket_sampled_rayleigh_quotients():
    problem = make_chain_problem(64, 0.01, seed=0)
    mu, L = chain_constants(problem)
    A = problem.smooth.A
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(50):
        v = rng.standard_normal(64)
        q = float(v @ (A @ v)) / float(v @ v)
        assert mu - 1e-9 <= q <= L + 1e-9


def test_synthetic_matrix_is_spd():
    A = laplacian_1d(16).toarray()
    np.testing.assert_array_equal(A, A.T)
    assert np.all(np.linalg.eigvalsh(A) > 0)


def test_reference_matches_direct_solve_without_penalty():
    stack = build_chain_hierarchy(4, lam=0.0, num_levels=2, seed=5)
    ref = reference_solution(stack, tol=1e-12, seed=5)
    A = stack.fine.problem.smooth.A.toarray()
    b = stack.fine.problem.smooth.b
    np.testing.assert_allclose(ref.x, np.linalg.solve(A, b), atol=1e-10)


def test_reference_is_stable_across_solver_orderings():
    stack = build_obstacle_hierarchy(3, 1e-6, 2)
    ref_a = reference_solution(stack, tol=1e-12, seed=0, order="fista-first")
    ref_b = reference_solution(build_obstacle_hierarchy(3, 1e-6, 2),
                               tol=1e-12, seed=0, order="mg-first")
    assert abs(ref_a.objective - ref_b.objective) <= 1e-12 * max(1, abs(ref_a.objective))


def test_reference_is_idempotent():
    stack = build_chain_hierarchy(16, 0.05, 2, seed=2)
    ref = reference_solution(stack, tol=1e-12, seed=2)
    again = reference_solution(stack, tol=1e-12, x0=ref.x, max_iters=50)
    assert np.max(np.abs(again.x - ref.x)) <= 1e-9
    assert again.objective <= ref.objective + 1e-14


def test_reference_rejects_unresolvable_tolerance():
    stack = build_chain_hierarchy(16, 0.05, 2, seed=2)
    with pytest.raises(ValueError):
        reference_solution(stack, tol=1e-14)


def test_corrupted_trace_fails_monotonicity():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    rng = np.random.Generator(np.random.PCG64(0))
    x0 = rng.uniform(0, 1, size=49)
    _, trace = mgprox_solve(stack, x0, StoppingRule(5, 0.0))
    assert check_stage_monotonicity(trace).passed
    trace.cycles[2].stage_objectives[2] = trace.cycles[2].stage_objectives[1] * 1.01
    assert not check_stage_monotonicity(trace).passed
