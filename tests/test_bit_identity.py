"""The stencil energy and the carried (f, grad f) pair change no bits.

The sparse operators of ``build_difference_operators`` are the oracle: the
stencil must reproduce their products byte for byte, signed zeros included,
and the solvers must return the same bytes on an energy built from them.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from proxmg.baselines import fista_solve, proxgrad_solve
from proxmg.grid import GridLevel
from proxmg.hierarchy import build_obstacle_hierarchy
from proxmg.membrane import (MembraneEnergy, build_difference_operators,
                             lipschitz_upper_bound, make_obstacle_problem)
from proxmg.multigrid import CycleConfig, StoppingRule, mgprox_solve
from proxmg.problems import CompositeProblem, QuadraticForm, laplacian_1d
from proxmg.smoothing import backtrack_L

SIDES = [2**m - 1 for m in range(1, 8)]  # 1 .. 127


class SparseMembrane:
    """The membrane energy evaluated with the sparse difference operators."""

    def __init__(self, grid: GridLevel):
        self.grid = grid
        self.D, self.E = build_difference_operators(grid)
        self.Dt, self.Et = sp.csr_array(self.D.T), sp.csr_array(self.E.T)
        self.lipschitz = lipschitz_upper_bound(grid)

    @property
    def dim(self):
        return self.grid.n_total

    def value(self, u):
        du, eu = self.D @ u, self.E @ u
        return float(np.sum(np.sqrt(1.0 + du * du + eu * eu)))

    def grad(self, u):
        du, eu = self.D @ u, self.E @ u
        r = np.sqrt(1.0 + du * du + eu * eu)
        return self.Dt @ (du / r) + self.Et @ (eu / r)

    def value_and_grad(self, u):
        return self.value(u), self.grad(u)


def membranes(n_side, rng):
    """Random membranes at three amplitudes, and inputs with exact +-0.0."""
    dim = n_side * n_side
    out = [amp * rng.uniform(-1.0, 1.0, dim) for amp in (1e-8, 1.0, 1e3)]
    out += [np.zeros(dim), -np.zeros(dim)]  # the flat membrane, both signs
    clamped = rng.uniform(-1.0, 1.0, dim)
    clamped[rng.uniform(size=dim) < 0.4] = 0.0
    clamped[rng.uniform(size=dim) < 0.3] = -0.0
    out.append(clamped)
    out.append(np.where(rng.uniform(size=dim) < 0.5, 0.0, -0.0))
    return out


@pytest.mark.parametrize("n_side", SIDES)
def test_stencil_matches_the_sparse_oracle_byte_for_byte(n_side):
    grid = GridLevel(0, n_side)
    stencil, oracle = MembraneEnergy(grid), SparseMembrane(grid)
    rng = np.random.Generator(np.random.PCG64(n_side))
    for u in membranes(n_side, rng):
        assert stencil.value(u).hex() == oracle.value(u).hex()
        assert stencil.grad(u).tobytes() == oracle.grad(u).tobytes()


@pytest.mark.parametrize("n_side", [1, 7, 63])
def test_membrane_value_and_grad_equals_the_separate_calls(n_side):
    f = MembraneEnergy(GridLevel(0, n_side))
    rng = np.random.Generator(np.random.PCG64(100 + n_side))
    for u in membranes(n_side, rng):
        value, grad = f.value_and_grad(u)
        assert value.hex() == f.value(u).hex()
        assert grad.tobytes() == f.grad(u).tobytes()


def test_quadratic_value_and_grad_equals_the_separate_calls():
    rng = np.random.Generator(np.random.PCG64(7))
    f = QuadraticForm(laplacian_1d(16), rng.standard_normal(16), 4.0)
    for x in (rng.standard_normal(16), np.zeros(16), -np.zeros(16)):
        value, grad = f.value_and_grad(x)
        assert value.hex() == f.value(x).hex()
        assert grad.tobytes() == f.grad(x).tobytes()


@pytest.mark.parametrize("L0, L_cap", [(1.0, None), (1.0, 1e6), (1.0, 64.0)])
@pytest.mark.parametrize("tilted", [False, True])
def test_backtracking_is_the_same_with_or_without_the_pair(L0, L_cap, tilted):
    p = make_obstacle_problem(15, 100.0)
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.uniform(0.0, 1.0, p.dim)
    tau = rng.uniform(-1.0, 1.0, p.dim) if tilted else None
    L, y, fg_y = backtrack_L(p, tau, x, L0, L_cap=L_cap)
    L2, y2, fg_y2 = backtrack_L(p, tau, x, L0, L_cap=L_cap,
                                fg_x=p.smooth.value_and_grad(x))
    assert L == L2 and y.tobytes() == y2.tobytes()
    if L_cap is not None and L >= L_cap:
        assert fg_y is None and fg_y2 is None  # accepted at the cap, f(y) never taken
    else:
        value, grad = p.smooth.value_and_grad(y)
        for pair in (fg_y, fg_y2):
            assert pair[0].hex() == value.hex() and pair[1].tobytes() == grad.tobytes()


def _solve_all(lam, x0, sparse):
    stack = build_obstacle_hierarchy(15, lam, 3, 20)
    if sparse:
        for level in stack.levels:
            level.problem = CompositeProblem(SparseMembrane(level.grid),
                                             level.problem.nonsmooth)
    fine = stack.fine.problem
    runs = [mgprox_solve(stack, x0, StoppingRule(200, 1e-10),
                         CycleConfig(step_mode="backtracking")),
            fista_solve(fine, x0, StoppingRule(100, 0.0)),
            proxgrad_solve(fine, x0, StoppingRule(100, 0.0))]
    return [(x.tobytes(), np.array(t.objectives + t.g_norms).tobytes()) for x, t in runs]


@pytest.mark.parametrize("lam", [1e-6, 100.0])
def test_solvers_return_the_same_bytes_on_the_sparse_oracle_energy(lam):
    x0 = np.random.Generator(np.random.PCG64(42)).uniform(0.0, 1.0, 225)
    assert _solve_all(lam, x0, sparse=False) == _solve_all(lam, x0, sparse=True)
