import math

import numpy as np
import pytest

from proxmg.grid import GridLevel, ij_to_k
from proxmg.membrane import (build_difference_operators, lipschitz_upper_bound,
                             make_obstacle_problem, obstacle_values)
from proxmg.oracles import fd_gradient


def test_difference_operator_entries_follow_the_index_rule():
    grid = GridLevel(0, 3)
    D, E = build_difference_operators(grid)
    h = grid.h
    Dd = D.toarray()
    Ed = E.toarray()
    for i in range(1, 4):
        for j in range(1, 4):
            row = ij_to_k(i, j, 3)
            expect_d = np.zeros(9)
            expect_d[row] = -1.0 / h
            if j < 3:
                expect_d[ij_to_k(i, j + 1, 3)] = 1.0 / h
            np.testing.assert_array_equal(Dd[row], expect_d)
            expect_e = np.zeros(9)
            expect_e[row] = -1.0 / h
            if i < 3:
                expect_e[ij_to_k(i + 1, j, 3)] = 1.0 / h
            np.testing.assert_array_equal(Ed[row], expect_e)


def test_single_point_grid_operator():
    D, E = build_difference_operators(GridLevel(0, 1))
    np.testing.assert_array_equal(D.toarray(), [[-2.0]])  # -1/h with h = 1/2
    np.testing.assert_array_equal(E.toarray(), [[-2.0]])


def test_difference_of_constants_and_ramp():
    grid = GridLevel(0, 3)
    D, _ = build_difference_operators(grid)
    ones = np.ones(9)
    du = D @ ones
    for i in range(1, 4):
        for j in range(1, 4):
            k = ij_to_k(i, j, 3)
            if j < 3:
                assert du[k] == 0.0
    ramp = np.array([j * grid.h for j in range(1, 4)
                     for _ in range(3)])  # u(i, j) = j*h, column-major
    dr = D @ ramp
    for i in range(1, 4):
        for j in range(1, 3):
            assert dr[ij_to_k(i, j, 3)] == pytest.approx(1.0)


@pytest.mark.parametrize("n_side", [3, 7])
def test_energy_at_zero(n_side):
    p = make_obstacle_problem(n_side)
    assert p.smooth.value(np.zeros(p.dim)) == float(n_side**2)


def test_energy_lower_bound_and_direct_sum_oracle():
    p = make_obstacle_problem(3)
    rng = np.random.Generator(np.random.PCG64(3))
    u = rng.uniform(0, 1, size=9)
    val = p.smooth.value(u)
    assert val >= 9.0
    D, E = (op.toarray() for op in build_difference_operators(p.smooth.grid))
    direct = sum(math.sqrt(1.0 + (D[k] @ u) ** 2 + (E[k] @ u) ** 2) for k in range(9))
    assert val == pytest.approx(direct, rel=1e-14)


def test_gradient_component_formula():
    # the saturating slope ratio s / sqrt(1 + s^2 + t^2) at (1, 0)
    s, t = 1.0, 0.0
    assert s / math.sqrt(1 + s * s + t * t) == pytest.approx(0.70710678, abs=1e-8)
    # on the single-point grid, f(u) = sqrt(1 + 2 (u/h)^2): chain rule check
    p = make_obstacle_problem(1)
    h = 0.5
    u = np.array([h])  # so Du = Eu = -1
    g = p.smooth.grad(u)
    expected = (-1.0 / h) * (-1.0 / math.sqrt(3.0)) * 2
    assert g[0] == pytest.approx(expected, rel=1e-14)


def test_gradient_vanishes_at_zero():
    p = make_obstacle_problem(7)
    assert np.all(p.smooth.grad(np.zeros(p.dim)) == 0.0)


@pytest.mark.parametrize("n_side", [3, 7])
def test_gradient_matches_finite_differences(n_side):
    p = make_obstacle_problem(n_side)
    rng = np.random.Generator(np.random.PCG64(n_side))
    for _ in range(5):
        u = rng.uniform(0, 1, size=p.dim)
        exact = p.smooth.grad(u)
        approx = fd_gradient(p.smooth.value, u, 1e-6)
        rel = np.linalg.norm(exact - approx) / np.linalg.norm(exact)
        assert rel <= 1e-6


def test_lipschitz_bound_values():
    assert lipschitz_upper_bound(GridLevel(0, 3)) == pytest.approx(math.sqrt(3) * 9 / 0.25)
    assert lipschitz_upper_bound(GridLevel(0, 3)) == pytest.approx(62.3538, abs=1e-4)
    assert lipschitz_upper_bound(GridLevel(0, 1)) == pytest.approx(3.4641, abs=1e-4)
    assert lipschitz_upper_bound(GridLevel(0, 7)) > lipschitz_upper_bound(GridLevel(0, 3))


def test_obstacle_samples():
    phi = obstacle_values(5)  # x_i = i*pi/2
    assert phi[ij_to_k(1, 1, 5)] == pytest.approx(1.0)  # sin(pi/2)^2
    # x in (pi, 2pi) -> sin negative, clamped to zero: i = 3 gives x = 3pi/2
    for j in range(1, 6):
        assert phi[ij_to_k(3, j, 5)] == 0.0
    assert np.all(phi >= 0.0)


def test_convexity_sample_check():
    p = make_obstacle_problem(3)
    rng = np.random.Generator(np.random.PCG64(9))
    for _ in range(20):
        u, v = rng.uniform(-1, 1, size=9), rng.uniform(-1, 1, size=9)
        mid = p.smooth.value(0.5 * u + 0.5 * v)
        assert mid <= 0.5 * p.smooth.value(u) + 0.5 * p.smooth.value(v) + 1e-12


@pytest.mark.parametrize("n_side", [3, 7])
def test_descent_lemma_with_declared_bound(n_side):
    p = make_obstacle_problem(n_side)
    L = p.smooth.lipschitz
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(20):
        x = rng.uniform(0, 1, size=p.dim)
        y = rng.uniform(0, 1, size=p.dim)
        lhs = p.smooth.value(y)
        rhs = (p.smooth.value(x) + p.smooth.grad(x) @ (y - x)
               + 0.5 * L * np.sum((y - x) ** 2))
        assert lhs <= rhs + 1e-9 * abs(rhs)
