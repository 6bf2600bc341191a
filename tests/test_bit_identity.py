"""The stencil energy and the carried (f, grad f) pair change no bits.

The sparse operators of ``build_difference_operators`` are the oracle: the
stencil must reproduce their products byte for byte, signed zeros included,
and the solvers must return the same bytes on an energy built from them.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp

from proxmg.cli import SOLVERS
from proxmg.grid import GridLevel
from proxmg.hierarchy import LevelStack, LevelWork, build_obstacle_hierarchy
from proxmg.membrane import (MembraneEnergy, build_difference_operators,
                             lipschitz_upper_bound, make_obstacle_problem)
from proxmg.multigrid import StoppingRule
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

    def value_change(self, y, z):
        dd, ed = self.D @ (z - y), self.E @ (z - y)
        dy, ey = self.D @ y, self.E @ y
        dq = dd * (dy + dy + dd) + ed * (ey + ey + ed)
        ry2 = 1.0 + dy * dy + ey * ey
        return float(np.add.reduce(dq / (np.sqrt(ry2) + np.sqrt(ry2 + dq))))


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
    grid = GridLevel(n_side)
    stencil, oracle = MembraneEnergy(grid), SparseMembrane(grid)
    rng = np.random.Generator(np.random.PCG64(n_side))
    points = membranes(n_side, rng)
    for u in points:
        assert stencil.value(u).hex() == oracle.value(u).hex()
        assert stencil.grad(u).tobytes() == oracle.grad(u).tobytes()
    for y, z in zip(points, points[1:] + points[:1]):
        assert stencil.value_change(y, z).hex() == oracle.value_change(y, z).hex()


@pytest.mark.parametrize("n_side", [1, 7, 63])
def test_membrane_value_and_grad_equals_the_separate_calls(n_side):
    f = MembraneEnergy(GridLevel(n_side))
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


@pytest.mark.parametrize("L0, L_cap", [(1.0, None), (1.0, 1e6), (1.0, 64.0)])  # None: uncapped
@pytest.mark.parametrize("tilted", [False, True])
def test_backtracking_is_the_same_with_or_without_the_pair(L0, L_cap, tilted):
    L_cap = math.inf if L_cap is None else L_cap
    p = make_obstacle_problem(15, 100.0)
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.uniform(0.0, 1.0, p.dim)
    tau = rng.uniform(-1.0, 1.0, p.dim) if tilted else None
    work, work2 = LevelWork(p, L0, L_cap), LevelWork(p, L0, L_cap)
    y, fg_y = backtrack_L(work, tau, x)
    y2, fg_y2 = backtrack_L(work2, tau, x, fg_x=p.smooth.value_and_grad(x))
    L = work.L
    assert L == work2.L and y.tobytes() == y2.tobytes()
    # a step that doubles up to its cap returns the pair like any other
    value, grad = p.smooth.value_and_grad(y)
    for pair in (fg_y, fg_y2):
        assert pair[0].hex() == value.hex() and pair[1].tobytes() == grad.tobytes()


def _solve_all(lam, x0, sparse):
    stack = build_obstacle_hierarchy(15, lam, 3, 20)
    if sparse:
        stack = LevelStack([dataclasses.replace(level, problem=CompositeProblem(
            SparseMembrane(level.problem.smooth.grid), level.problem.nonsmooth))
            for level in stack.levels], stack.n_smooth)
    runs = [SOLVERS["mgprox"](stack, x0, StoppingRule(200, 1e-10), "backtracking"),
            *(SOLVERS[name](stack, x0, StoppingRule(100, 0.0), "fixed")
              for name in ("fista", "proxgrad"))]
    return [(x.tobytes(), np.array(t.objectives + t.g_norms).tobytes()) for x, t in runs]


@pytest.mark.parametrize("lam", [1e-6, 100.0])
def test_solvers_return_the_same_bytes_on_the_sparse_oracle_energy(lam):
    x0 = np.random.Generator(np.random.PCG64(42)).uniform(0.0, 1.0, 225)
    assert _solve_all(lam, x0, sparse=False) == _solve_all(lam, x0, sparse=True)


def test_backtracking_mgprox_iterate_does_not_depend_on_the_step_bound():
    """Backtracking never reaches its cap 4 L_est, so the tighter bound
    8 / h^2 (replacing sqrt(3) n^2 / h) left these bytes where they were."""
    stack = build_obstacle_hierarchy(63, 1e-6, 5, 20)
    x0 = np.random.Generator(np.random.PCG64(0)).uniform(0.0, 1.0, size=63 * 63)
    x, tr = SOLVERS["mgprox"](stack, x0, StoppingRule(600, 1e-10), "backtracking")
    assert tr.converged and tr.iterations == 18
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "4a1f1200a8dd533fbe8b1947944d6b48181892fce988af3fa5d19e74da3f63de")
