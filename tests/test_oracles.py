import numpy as np
import pytest

from proxmg import oracles
from proxmg.baselines import fista_solve
from proxmg.certificates import check_stage_monotonicity
from proxmg.hierarchy import build_obstacle_hierarchy
from proxmg.multigrid import CycleConfig, StoppingRule, mgprox_solve
from proxmg.oracles import (brute_force_prox, build_chain_hierarchy,
                            chain_constants, fd_gradient, make_chain_problem,
                            reference_solution)
from proxmg.problems import laplacian_1d, start_points


def test_fd_gradient_on_simple_functions():
    grad = fd_gradient(lambda x: 0.5 * float(x @ x), np.array([3.0]))
    assert grad[0] == pytest.approx(3.0, abs=1e-9)
    grad = fd_gradient(lambda x: 7.0, np.array([1.0, 2.0]))
    np.testing.assert_allclose(grad, 0.0)


def test_brute_force_prox_reproduces_hinge_cases():
    cases = [(-2.0, -1.0), (-0.5, 0.0), (0.5, 0.5)]  # (v, prox) at lam=1, c=0, step=1
    for v, expected in cases:
        got = brute_force_prox(lambda t: max(-t, 0.0), v, 1.0, bracket=(v - 11, v + 11))
        assert abs(got - expected) <= 1e-8
    with pytest.raises(ValueError, match="empty bracket"):
        brute_force_prox(lambda t: abs(t), 0.0, 1.0, bracket=(1.0, -1.0))


def test_chain_constants_against_dense_eigenvalues():
    # L is a bound (||A||_inf = 4), 0.058 % above lambda_max at n = 64
    problem = make_chain_problem(64)
    mu, L = chain_constants(problem)
    w = np.linalg.eigvalsh(problem.smooth.A.toarray())
    assert w[-1] <= L <= 1.001 * w[-1]
    assert mu == w[0]


def test_chain_constants_take_L_from_the_problem():
    problem = make_chain_problem(64)
    mu, L = chain_constants(problem)
    assert np.float64(L).tobytes() == np.float64(problem.lipschitz).tobytes()


@pytest.mark.parametrize("n, levels", [(64, 4), (1024, 3)])
def test_every_chain_level_bounds_its_curvature(n, levels):
    for level in build_chain_hierarchy(n, 0.01, levels).levels:
        lam_max = np.linalg.eigvalsh(level.problem.smooth.A.toarray())[-1]
        assert level.problem.lipschitz >= lam_max, (level.problem.dim, lam_max)


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


def test_a_chain_size_that_is_not_a_positive_integer_is_rejected():
    # these sizes used to fail inside numpy: "Offset -1 (index 0) out of
    # bounds" at 0, a TypeError at 2.5, "negative dimensions" at -3
    for n in (0, 2.5, -3, 8.0, float("nan")):
        with pytest.raises(ValueError, match="^n must"):
            make_chain_problem(n)
        with pytest.raises(ValueError, match="^n must"):
            build_chain_hierarchy(n)
    assert make_chain_problem(np.int64(8)).dim == 8
    assert build_chain_hierarchy(np.int64(8)).fine.problem.dim == 8


def test_reference_matches_direct_solve_without_penalty():
    stack = build_chain_hierarchy(4, lam=0.0, num_levels=2, seed=5)
    ref = reference_solution(stack, seed=5)
    A = stack.fine.problem.smooth.A.toarray()
    b = stack.fine.problem.smooth.b
    np.testing.assert_allclose(ref.x, np.linalg.solve(A, b), atol=1e-10)


def test_reference_agrees_with_an_independent_mgprox_solve():
    # n = 7, where an mgprox solve stopped at 1e-6 is 1e-11 off in F
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    ref = reference_solution(stack, seed=0)
    x0 = next(start_points(0, stack.fine.problem.dim))
    x, trace = mgprox_solve(stack, x0, StoppingRule(2000, 1e-12),
                            CycleConfig(step_mode="backtracking"))
    assert trace.converged and trace.iterations > 0
    F = stack.fine.problem.objective(x)
    assert abs(ref.objective - F) <= 1e-12 * max(1, abs(F))
    assert np.max(np.abs(ref.x - x)) <= 1e-9


def test_reference_is_idempotent():
    stack = build_chain_hierarchy(16, 0.05, 2, seed=2)
    ref = reference_solution(stack, seed=2)
    again = reference_solution(stack, seed=2)
    assert again.x.tobytes() == ref.x.tobytes()
    assert (again.objective, again.rel_g_norm) == (ref.objective, ref.rel_g_norm)


def test_the_reference_is_where_its_fista_run_stopped():
    # read off the trace, not evaluated again: the same bytes as F(x*) and
    # as the run's own final relative |G|
    stack = build_chain_hierarchy(16, 0.05, 2, seed=2)
    ref = reference_solution(stack, seed=2)
    problem = stack.fine.problem
    x, trace = fista_solve(problem, next(start_points(2, problem.dim)),
                           StoppingRule(oracles.REFERENCE_MAX_ITERS, oracles.REFERENCE_TOL))
    assert ref.x.tobytes() == x.tobytes()
    assert ref.objective.hex() == problem.objective(x).hex() == trace.final_objective.hex()
    assert ref.rel_g_norm.hex() == (trace.g_norms[-1] / trace.g_norm_initial).hex()
    assert 0.0 < ref.rel_g_norm < oracles.REFERENCE_TOL


def test_reference_raises_when_fista_spends_its_budget(monkeypatch):
    monkeypatch.setattr(oracles, "REFERENCE_MAX_ITERS", 5)
    stack = build_chain_hierarchy(16, 0.05, 2, seed=2)
    with pytest.raises(RuntimeError, match="relative"):
        reference_solution(stack, seed=2)


def test_corrupted_trace_fails_monotonicity():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    rng = np.random.Generator(np.random.PCG64(0))
    x0 = rng.uniform(0, 1, size=49)
    _, trace = mgprox_solve(stack, x0, StoppingRule(5, 0.0))
    assert check_stage_monotonicity(trace).passed
    trace.cycles[2].stage_objectives[2] = trace.cycles[2].stage_objectives[1] * 1.01
    assert not check_stage_monotonicity(trace).passed
