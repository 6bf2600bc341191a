"""Discretized elastic membrane over an obstacle, penalty form.

The smooth part is the surface-area energy of a clamped membrane sampled on
the interior grid,

    f(u) = sum_{i,j} sqrt(1 + (Du)_{ij}^2 + (Eu)_{ij}^2),

where D and E are first-order difference operators with entries +-1/h and a
homogeneous Dirichlet closure (points beyond the last interior row/column are
zero).  The constant h^2 area factor is dropped; it rescales the objective
without moving the minimizer.

The nonsmooth part charges lam per unit of dipping below the obstacle
phi(x, y) = max(0, sin x) * max(0, sin y) sampled over a square physical
domain of side length 3*pi.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .grid import GridLevel
from .nonsmooth import SeparableNonsmooth
from .problems import CompositeProblem

DOMAIN_SIDE = 3.0 * math.pi


def build_difference_operators(grid: GridLevel) -> tuple[sp.csr_array, sp.csr_array]:
    """Forward difference operators (D along j, E along i), shape n^2 x n^2.

    Row (i, j) of D is -1/h at (i, j) and +1/h at (i, j+1) when that neighbor
    is interior; rows in the last column keep only the diagonal entry, which
    encodes u = 0 beyond the boundary.  E is the same along the i index.
    :class:`MembraneEnergy` applies them as a stencil; these matrices are its
    test oracle.
    """
    n, h = grid.n_side, grid.h
    eye = sp.identity(n, format="csr")
    shift = sp.csr_array(sp.diags_array([np.ones(n - 1)], offsets=[1], shape=(n, n))) \
        if n > 1 else sp.csr_array((1, 1))
    band = (shift - eye) / h
    D = sp.csr_array(sp.kron(band, eye, format="csr"))
    E = sp.csr_array(sp.kron(eye, band, format="csr"))
    return D, E


def lipschitz_upper_bound(grid: GridLevel) -> float:
    """Gradient-Lipschitz bound sqrt(3) * n_side^2 / h for the membrane energy."""
    return math.sqrt(3.0) * grid.n_side**2 / grid.h


class MembraneEnergy:
    """Surface-area energy of the clamped membrane on one grid level.

    The differences are taken as a stencil on the grid: ``u.reshape(n, n)``
    puts grid column j in row j-1 (i runs along the row), so Du is the
    difference of consecutive rows and Eu of consecutive columns, with a
    zero row and column appended for the Dirichlet closure.  The gradient
    applies the adjoint stencil to (Du, Eu) / sqrt(1 + (Du)^2 + (Eu)^2).

    The sparse operators of :func:`build_difference_operators` are the test
    oracle, and the stencil reproduces their products bit for bit.  1/h is a
    power of two, so scaling by it commutes with rounding.  A sparse row sum
    starts from +0.0, so it never returns -0.0; the stencil adds +0.0 to its
    gradient, which turns -0.0 into +0.0 and leaves every other value alone.

    Evaluation and gradient allocate per call, so one instance can be shared
    read-only by concurrent solvers.
    """

    def __init__(self, grid: GridLevel):
        self.grid = grid
        self.lipschitz = lipschitz_upper_bound(grid)
        self._n = grid.n_side
        self._inv_h = 1.0 / grid.h  # n + 1, a power of two

    @property
    def dim(self) -> int:
        return self.grid.n_total

    def _slopes(self, u: np.ndarray):
        """(Du, Eu, sqrt(1 + (Du)^2 + (Eu)^2)) as n x n arrays."""
        n = self._n
        if u.shape[0] != n * n:
            raise ValueError(f"dimension mismatch: grid has {n * n}, vector {u.shape[0]}")
        pad = np.zeros((n + 1, n + 1))
        body = pad[:n, :n]
        np.multiply(u.reshape(n, n), self._inv_h, out=body)
        du = pad[1:, :n] - body
        eu = pad[:n, 1:] - body
        r = du * du
        r += 1.0
        r += eu * eu
        np.sqrt(r, out=r)
        return du, eu, r

    def _adjoint(self, du: np.ndarray, eu: np.ndarray, r: np.ndarray) -> np.ndarray:
        """D^T (du / r) + E^T (eu / r), flat."""
        n = self._n
        pd = np.zeros((n + 1, n))
        np.divide(du, r, out=pd[1:])
        pe = np.zeros((n, n + 1))
        np.divide(eu, r, out=pe[:, 1:])
        g = pd[:-1] - pd[1:]
        g += pe[:, :-1] - pe[:, 1:]
        g *= self._inv_h
        g += 0.0  # -0.0 -> +0.0, as in a sparse row sum
        return g.ravel()

    def value(self, u: np.ndarray) -> float:
        return float(self._slopes(u)[2].sum())

    def grad(self, u: np.ndarray) -> np.ndarray:
        return self._adjoint(*self._slopes(u))

    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        du, eu, r = self._slopes(u)
        return float(r.sum()), self._adjoint(du, eu, r)


def obstacle_values(n_side: int, domain_side: float = DOMAIN_SIDE) -> np.ndarray:
    """Obstacle phi sampled at the interior points, flattened column-major.

    Point (i, j) sits at physical coordinates (i * domain_side * h',
    j * domain_side * h') with h' = 1/(n_side + 1); the positive-part factors
    clamp the sine bumps at zero.
    """
    hp = 1.0 / (n_side + 1)
    t = domain_side * hp * np.arange(1, n_side + 1)
    bump = np.maximum(0.0, np.sin(t))
    # value at flat index (j-1)*n + (i-1) is bump[i-1] * bump[j-1]
    return np.outer(bump, bump).flatten(order="F")


def make_obstacle_problem(n_side: int, lam: float = 1e-6, level: int = 0) -> CompositeProblem:
    """The penalized obstacle problem on an n_side x n_side interior grid."""
    grid = GridLevel(level, n_side)
    smooth = MembraneEnergy(grid)
    phi = obstacle_values(n_side)
    return CompositeProblem(smooth, SeparableNonsmooth.hinge(lam, phi))
