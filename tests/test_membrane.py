import math

import numpy as np
import pytest

from proxmg import membrane
from proxmg.certificates import check_lipschitz_bound
from proxmg.grid import GridLevel, ij_to_k
from proxmg.hierarchy import build_obstacle_hierarchy
from proxmg.membrane import (MembraneEnergy, build_difference_operators,
                             lipschitz_upper_bound, make_obstacle_problem, obstacle_values)
from proxmg.oracles import fd_gradient


def test_difference_operator_entries_follow_the_index_rule():
    grid = GridLevel(3)
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
    D, E = build_difference_operators(GridLevel(1))
    np.testing.assert_array_equal(D.toarray(), [[-2.0]])  # -1/h with h = 1/2
    np.testing.assert_array_equal(E.toarray(), [[-2.0]])


def test_difference_of_constants_and_ramp():
    grid = GridLevel(3)
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
        approx = fd_gradient(p.smooth.value, u)
        rel = np.linalg.norm(exact - approx) / np.linalg.norm(exact)
        assert rel <= 1e-6


@pytest.mark.parametrize("n_side", [1, 3, 15, 31])
def test_an_instance_reusing_its_scratch_returns_what_a_fresh_one_does(n_side):
    # an energy evaluates into scratch it keeps; nothing of one evaluation
    # may show through the next, nor rewrite an array returned before
    rng = np.random.Generator(np.random.PCG64(n_side))
    u1, u2 = rng.uniform(-1.0, 1.0, n_side * n_side), rng.uniform(-1.0, 1.0, n_side * n_side)
    fresh = MembraneEnergy(GridLevel(n_side))
    v_fresh, g_fresh = fresh.value_and_grad(u1)
    expected = (v_fresh, g_fresh.tobytes())
    energy = MembraneEnergy(GridLevel(n_side))
    g1 = energy.grad(u1)
    energy.value_and_grad(u2)
    assert (energy.value(u1), energy.grad(u1).tobytes()) == expected
    v, g = energy.value_and_grad(u1)
    assert (v, g.tobytes()) == expected
    energy.value_and_grad(u2)
    assert g1.tobytes() == g.tobytes() == expected[1]


def _curvature_operator(n_side):
    """D^T D + E^T E, the membrane Hessian's upper bound in the Loewner order."""
    D, E = build_difference_operators(GridLevel(n_side))
    return D.T @ D + E.T @ E


@pytest.mark.parametrize("n_side", [1, 3, 7, 15, 31, 63])
def test_lipschitz_bound_covers_the_curvature_operator(n_side):
    bound = lipschitz_upper_bound(GridLevel(n_side))
    op = _curvature_operator(n_side)
    if n_side < 63:
        lam_max = np.linalg.eigvalsh(op.toarray())[-1]
    else:  # 3 969 unknowns: the sparse Lanczos solver, not a dense matrix
        from scipy.sparse.linalg import eigsh
        lam_max = eigsh(op, k=1, which="LA", return_eigenvectors=False)[0]
    assert bound >= lam_max
    if n_side >= 7:
        assert bound <= 1.05 * lam_max, (bound, lam_max)


def test_lipschitz_bound_is_exact_at_small_sizes():
    # 8 / h^2 with 1/h = n_side + 1, a power of two
    assert lipschitz_upper_bound(GridLevel(1)) == 32.0
    assert lipschitz_upper_bound(GridLevel(3)) == 128.0
    assert lipschitz_upper_bound(GridLevel(7)) == 512.0


def test_fixed_step_descends_along_the_top_curvature_direction():
    """Near u = 0 the Hessian is D^T D + E^T E, so a 1/L step along its top
    eigenvector obeys the descent lemma only if L is at least its top
    eigenvalue (103.9 at n = 3)."""
    p = make_obstacle_problem(3)
    L = p.smooth.lipschitz
    x = 1e-2 * np.linalg.eigh(_curvature_operator(3).toarray())[1][:, -1]
    fx, gx = p.smooth.value_and_grad(x)
    y = x - gx / L
    rhs = fx + gx @ (y - x) + 0.5 * L * np.sum((y - x) ** 2)
    assert p.smooth.value(y) <= rhs


def test_lipschitz_bound_certificate_fails_a_bound_below_the_curvature(monkeypatch):
    # sqrt(3) n^2 / h is 62.35 at n = 3, where lambda_max is 103.90
    monkeypatch.setattr(membrane, "lipschitz_upper_bound",
                        lambda grid: math.sqrt(3.0) * grid.n_side**2 / grid.h)
    cert = check_lipschitz_bound(build_obstacle_hierarchy(15, 1e-6, 3))
    assert not cert.passed and cert.detail.startswith("margins at n = 15/7/3")
    assert cert.margin == pytest.approx(62.3538 - 103.9033, abs=1e-3)


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
