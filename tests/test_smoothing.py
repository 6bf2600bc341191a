import math

import numpy as np
import pytest
import scipy.sparse as sp

from proxmg import membrane
from proxmg.hierarchy import LevelWork, step_cap
from proxmg.membrane import make_obstacle_problem
from proxmg.nonsmooth import SeparableNonsmooth
from proxmg.oracles import reference_solution
from proxmg.problems import CompositeProblem, QuadraticForm
from proxmg.smoothing import backtrack_L, prox_grad_map, prox_grad_step, run_smoothing


def quadratic_problem(a=1.0, n=1, lam=0.0):
    A = sp.csr_array(a * sp.identity(n))
    smooth = QuadraticForm(A, np.zeros(n), a)
    return CompositeProblem(smooth, SeparableNonsmooth.l1(lam))


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
    ref = reference_solution(stack, seed=3)
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
    work = LevelWork(p, 2.0, math.inf)
    y, _ = backtrack_L(work, None, np.array([3.0]))
    assert work.L == 2.0
    assert y[0] == pytest.approx(1.5)


def test_backtracking_grows_to_the_curvature():
    a = 8.0
    p = quadratic_problem(a=a)
    work = LevelWork(p, a / 4.0, math.inf)
    y, _ = backtrack_L(work, None, np.array([2.0]))
    L = work.L
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
        backtrack_L(LevelWork(p, 1e-20, math.inf), None, np.array([1.0]))


@pytest.mark.parametrize("mode", ["fixed", "backtracking"])
def test_smoothing_block_is_monotone_and_strictly_descends(mode):
    p = make_obstacle_problem(7, 1e-6)
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.uniform(0, 1, size=p.dim)
    # a fixed step is the backtracking step started at its cap
    work = (LevelWork(p, p.lipschitz, p.lipschitz) if mode == "fixed"
            else LevelWork(p, 1.0, math.inf))
    prev = p.objective(x)
    for _ in range(5):
        x, _ = run_smoothing(work, None, x, 4)
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
    y, _ = run_smoothing(LevelWork(p, L, L), None, x, 1)
    G = np.linalg.norm(prox_grad_map(p, None, x, L))
    assert p.objective(y) <= p.objective(x) - G * G / (2.0 * L) + 1e-12


def test_run_smoothing_validation():
    p = quadratic_problem()
    with pytest.raises(ValueError):
        run_smoothing(LevelWork(p, 1.0, math.inf), None, np.array([1.0]), -1)
    x = np.array([1.0])
    y, (f, g) = run_smoothing(LevelWork(p, 1.0, math.inf), None, x, 0)
    assert y is x and f == p.smooth.value(x) and np.array_equal(g, p.smooth.grad(x))
    with pytest.raises(ValueError):
        backtrack_L(LevelWork(p, -1.0, math.inf), None, np.array([1.0]))


# NaN compares false with 0 too, so a plain `L <= 0` let it through: the step
# returned an all-NaN iterate and backtracking doubled NaN until it gave up
@pytest.mark.parametrize("L", [0.0, -1.0, math.nan])
def test_backtracking_rejects_a_nonpositive_estimate(L):
    p = make_obstacle_problem(7, 1.0)
    x = np.full(p.dim, 0.5)
    with pytest.raises(ValueError, match="L must be positive"):
        backtrack_L(LevelWork(p, L, math.inf), None, x)
    with pytest.raises(ValueError, match="L must be positive"):
        backtrack_L(LevelWork(p, L, p.lipschitz), None, x)
    with pytest.raises(ValueError, match="L must be positive"):
        prox_grad_step(p, None, x, L)


@pytest.mark.parametrize("tilted", [False, True])
def test_each_backtracking_trial_is_the_prox_grad_step_at_its_L(tilted):
    """The tilted gradient is formed once per call; the step accepted after
    doubling has the bytes of ``prox_grad_step`` at the accepted L, and so
    does a step started at its cap."""
    p = make_obstacle_problem(15, 1.0)
    rng = np.random.Generator(np.random.PCG64(6))
    x = rng.uniform(0, 1, size=p.dim)
    tau = rng.uniform(-1, 1, size=p.dim) if tilted else None
    fx, gx = p.smooth.value_and_grad(x)
    L_cap = step_cap(p.lipschitz)
    work = LevelWork(p, 1e-3, L_cap)
    y, fg_y = backtrack_L(work, tau, x, (fx, gx))
    assert 1e-3 < work.L < L_cap  # it doubled, and the descent test accepted
    assert y.tobytes() == prox_grad_step(p, tau, x, work.L, gx).tobytes()
    assert fg_y[1].tobytes() == p.smooth.grad(y).tobytes()
    work = LevelWork(p, L_cap, L_cap)
    y, _ = backtrack_L(work, tau, x, (fx, gx))
    assert y.tobytes() == prox_grad_step(p, tau, x, L_cap, gx).tobytes()


def test_the_membrane_constants_are_read_only():
    p = make_obstacle_problem(7, 1.0)
    for c in (membrane._ZERO, membrane._ONE, p.smooth._inv_h):
        assert c.shape == () and c.dtype == np.float64
        with pytest.raises(ValueError):
            c[()] = 2.0
        with pytest.raises(ValueError):
            np.add(c, 1.0, out=c)


def test_a_step_started_at_or_above_its_cap_is_the_fixed_step():
    p = make_obstacle_problem(15, 1.0)
    rng = np.random.Generator(np.random.PCG64(3))
    x, tau = rng.uniform(0, 1, size=p.dim), rng.uniform(-1, 1, size=p.dim)
    L = p.lipschitz
    fg = p.smooth.value_and_grad(x)
    for start in (L, 2.0 * L):
        for pair in (None, fg):
            work = LevelWork(p, start, L)
            y, fg_y = backtrack_L(work, tau, x, pair)
            assert work.L == L and fg_y is None
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


@pytest.mark.parametrize("L0, L_cap", [(1.0, None), (1.0, 64.0), ("cap", None),
                                       ("above", None)])  # None: step_cap of the bound
def test_steps_grow_the_workspace_estimate_up_to_its_cap(L0, L_cap):
    p = make_obstacle_problem(15, 1.0)
    rng = np.random.Generator(np.random.PCG64(5))
    x, tau = rng.uniform(0, 1, size=p.dim), rng.uniform(-1, 1, size=p.dim)
    L_cap = step_cap(p.lipschitz) if L_cap is None else L_cap
    L0 = {"cap": L_cap, "above": 2.0 * L_cap}.get(L0, L0)
    work = LevelWork(p, L0, L_cap)
    for _ in range(5):
        before = work.L
        x, _ = backtrack_L(work, tau, x)
        if before >= L_cap:
            assert work.L == L_cap
        else:
            assert before <= work.L <= L_cap
        x, _ = run_smoothing(work, tau, x, 1)
    assert work.L > 1.0  # the estimate did move from a start below the curvature


@pytest.mark.parametrize("mode", ["fixed", "backtracking"])
def test_a_smoothing_block_returns_the_pair_at_its_output(mode):
    p = make_obstacle_problem(15, 1e-6)
    rng = np.random.Generator(np.random.PCG64(4))
    x, tau = rng.uniform(0, 1, size=p.dim), rng.uniform(-1, 1, size=p.dim)
    L = p.lipschitz
    work = LevelWork(p, L, L) if mode == "fixed" else LevelWork(p, 1.0, step_cap(L))
    y, fg_y = run_smoothing(work, tau, x, 3)
    f, g = p.smooth.value_and_grad(y)
    assert np.float64(fg_y[0]).tobytes() == np.float64(f).tobytes()
    assert fg_y[1].tobytes() == g.tobytes()
