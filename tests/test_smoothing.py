import math

import numpy as np
import pytest
import scipy.sparse as sp

from proxmg.membrane import make_obstacle_problem
from proxmg.nonsmooth import SeparableNonsmooth
from proxmg.oracles import reference_solution
from proxmg.problems import CompositeProblem, QuadraticForm
from proxmg.smoothing import backtrack_L, prox_grad_map, prox_grad_step, run_smoothing


def quadratic_problem(a=1.0, n=1, lam=0.0):
    A = sp.csr_array(a * sp.identity(n))
    smooth = QuadraticForm(A, np.zeros(n), a)
    g = SeparableNonsmooth.l1(lam) if lam > 0 else SeparableNonsmooth.zero()
    return CompositeProblem(smooth, g)


def test_exact_gradient_step_on_quadratic():
    p = quadratic_problem()
    out = prox_grad_step(p, None, np.array([2.0]), 1.0)
    assert out[0] == 0.0


def test_tau_equal_to_gradient_freezes_the_point():
    p = quadratic_problem()
    x = np.array([2.0])
    tau = p.smooth.grad(x)
    assert np.array_equal(prox_grad_step(p, tau, x, 1.0), x)


def test_step_is_identity_at_a_minimizer():
    from proxmg.oracles import build_chain_hierarchy
    stack = build_chain_hierarchy(16, 0.05, 2, 20, seed=3)
    ref = reference_solution(stack, tol=1e-12, seed=3)
    p = stack.fine.problem
    out = prox_grad_step(p, None, ref.x, p.lipschitz)
    assert np.max(np.abs(out - ref.x)) <= 1e-12


def test_prox_grad_map_examples():
    p = quadratic_problem()
    G = prox_grad_map(p, None, np.array([2.0]), 1.0)
    assert G[0] == 2.0  # reduces to the plain gradient when g = 0
    G2 = prox_grad_map(p, None, np.array([2.0]), 2.0)
    assert G2[0] == 2.0  # L (x - (x - grad/L)) = grad, any L
    with pytest.raises(ValueError):
        prox_grad_step(p, None, np.array([2.0]), 0.0)


def test_backtracking_returns_initial_L_when_sufficient():
    p = quadratic_problem(a=1.0)
    L, y, _ = backtrack_L(p, None, np.array([3.0]), 2.0, math.inf)
    assert L == 2.0
    assert y[0] == pytest.approx(1.5)


def test_backtracking_grows_to_the_curvature():
    a = 8.0
    p = quadratic_problem(a=a)
    L, y, _ = backtrack_L(p, None, np.array([2.0]), a / 4.0, math.inf)
    assert L in (a / 2.0, a)
    # whichever was accepted satisfies the descent model
    f = p.smooth
    d = y - np.array([2.0])
    assert f.value(y) <= (f.value(np.array([2.0])) + f.grad(np.array([2.0])) @ d
                          + 0.5 * L * d @ d + 1e-12)


def test_backtracking_doubling_cap():
    a = 1e9
    p = quadratic_problem(a=a)
    with pytest.raises(RuntimeError, match="last L"):
        backtrack_L(p, None, np.array([1.0]), 1e-20, math.inf)


@pytest.mark.parametrize("mode", ["fixed", "backtracking"])
def test_smoothing_block_is_monotone_and_strictly_descends(mode):
    p = make_obstacle_problem(7, 1e-6)
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.uniform(0, 1, size=p.dim)
    # a fixed step is the backtracking step started at its cap
    L, L_cap = (p.lipschitz, p.lipschitz) if mode == "fixed" else (1.0, math.inf)
    prev = p.objective(x)
    for _ in range(5):
        res = run_smoothing(p, None, x, L, 4, L_cap)
        x, L = res.x, res.L
        cur = p.objective(x)
        G = np.linalg.norm(prox_grad_map(p, None, x, p.lipschitz))
        assert cur <= prev + 1e-12
        if G > 1e-10:
            assert cur < prev
        prev = cur


def test_first_step_sufficient_descent_certificate():
    p = make_obstacle_problem(7, 1e-6)
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.uniform(0, 1, size=p.dim)
    L = p.lipschitz
    res = run_smoothing(p, None, x, L, 1, L)
    G = np.linalg.norm(prox_grad_map(p, None, x, L))
    assert p.objective(res.x) <= p.objective(x) - G * G / (2.0 * L) + 1e-12


def test_run_smoothing_validation():
    p = quadratic_problem()
    with pytest.raises(ValueError):
        run_smoothing(p, None, np.array([1.0]), 1.0, 0, math.inf)
    with pytest.raises(ValueError):
        backtrack_L(p, None, np.array([1.0]), -1.0, math.inf)


def test_a_step_started_at_or_above_its_cap_is_the_fixed_step():
    p = make_obstacle_problem(15, 1.0)
    rng = np.random.Generator(np.random.PCG64(3))
    x, tau = rng.uniform(0, 1, size=p.dim), rng.uniform(-1, 1, size=p.dim)
    L = p.lipschitz
    fg = p.smooth.value_and_grad(x)
    for start in (L, 2.0 * L):
        for pair in (None, fg):
            got_L, y, fg_y = backtrack_L(p, tau, x, start, L, pair)
            assert got_L == L and fg_y is None
            assert y.tobytes() == prox_grad_step(p, tau, x, L).tobytes()


def test_quadratic_underestimator_certificate():
    # F(x) - F(y+) >= L <x - y+, x_probe - x> + (L/2) ||y+ - x||^2 for any probe
    p = make_obstacle_problem(7, 1e-6)
    rng = np.random.Generator(np.random.PCG64(2))
    L = p.lipschitz
    for _ in range(10):
        x = rng.uniform(0, 1, size=p.dim)
        y = prox_grad_step(p, None, x, L)
        probe = rng.uniform(0, 1, size=p.dim)
        lhs = p.objective(probe) - p.objective(y)
        rhs = L * float((x - y) @ (probe - x)) + 0.5 * L * float((y - x) @ (y - x))
        assert lhs >= rhs - 1e-9
