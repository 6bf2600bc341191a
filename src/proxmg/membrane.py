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


class MembraneScratch:
    """Preallocated flat arrays for one membrane evaluation at a time, and
    the fixed views of them that the stencil reads and writes.

    ``body`` (u/h) is followed by one zero grid column, ``qd`` (Du/r) is
    preceded by one, and ``qe`` (Eu/r) by one zero entry; those zeros are
    the Dirichlet closure, and no evaluation writes them.  The ``*_edge``
    views are the n entries at one end of every grid column.
    """

    def __init__(self, n: int):
        nn = n * n
        pad = np.zeros(nn + n)
        self.body, self.body_next_j, self.body_next_i = pad[:nn], pad[n:], pad[1:nn + 1]
        self.body_edge = self.body.reshape(n, n)[:, -1]
        self.du = np.empty(nn)
        self.eu = np.empty(nn)
        self.eu_edge = self.eu.reshape(n, n)[:, -1]
        self.r = np.empty(nn)
        self.tmp = np.empty(nn)
        self.tmp_edge = self.tmp.reshape(n, n)[:, 0]
        pd = np.zeros(n + nn)
        self.qd, self.qd_prev_j = pd[n:], pd[:nn]
        pe = np.zeros(1 + nn)
        self.qe, self.qe_prev_i = pe[1:], pe[:nn]
        self.qe_edge = self.qe.reshape(n, n)[:, 0]


class MembraneEnergy:
    """Surface-area energy of the clamped membrane on one grid level.

    The differences are taken as a stencil on the flat vector, whose entry
    (j-1)*n + (i-1) is grid point (i, j).  Du is the difference of entries n
    apart (consecutive grid columns) and Eu of neighbouring entries
    (consecutive i), each over one contiguous range, with zeros past the last
    column; the n entries of Eu whose neighbour lies across a column break
    are then recomputed against the zero boundary value.  The gradient
    applies the adjoint stencil to (Du, Eu) / sqrt(1 + (Du)^2 + (Eu)^2) the
    same way.

    The sparse operators of :func:`build_difference_operators` are the test
    oracle, and the stencil reproduces their products bit for bit.  1/h is a
    power of two, so scaling by it commutes with rounding.  A sparse row sum
    starts from +0.0, so it never returns -0.0; the stencil adds +0.0 to its
    gradient, which turns -0.0 into +0.0 and leaves every other value alone.

    An instance built directly holds no scratch: each evaluation allocates
    its own, so one instance can be shared read-only by concurrent solvers.
    :meth:`with_scratch` gives the copy a solve's workspace holds, which
    evaluates into preallocated arrays and belongs to that solve alone.
    Values and gradients returned are fresh arrays either way.
    """

    def __init__(self, grid: GridLevel):
        self.grid = grid
        self.lipschitz = lipschitz_upper_bound(grid)
        self._n = grid.n_side
        self._inv_h = 1.0 / grid.h  # n + 1, a power of two
        self._scratch: MembraneScratch | None = None

    @property
    def dim(self) -> int:
        return self.grid.n_total

    def with_scratch(self) -> "MembraneEnergy":
        """A copy that evaluates into scratch of its own; not to be shared."""
        twin = MembraneEnergy(self.grid)
        twin._scratch = MembraneScratch(self._n)
        return twin

    def _slopes(self, u: np.ndarray) -> MembraneScratch:
        """Scratch holding Du, Eu and r = sqrt(1 + (Du)^2 + (Eu)^2), flat."""
        n = self._n
        if u.shape[0] != n * n:
            raise ValueError(f"dimension mismatch: grid has {n * n}, vector {u.shape[0]}")
        s = self._scratch if self._scratch is not None else MembraneScratch(n)
        np.multiply(u, self._inv_h, out=s.body)
        np.subtract(s.body_next_j, s.body, out=s.du)
        np.subtract(s.body_next_i, s.body, out=s.eu)
        # the last i of each grid column has the zero boundary as its neighbour
        np.subtract(0.0, s.body_edge, out=s.eu_edge)
        np.multiply(s.du, s.du, out=s.r)
        s.r += 1.0
        np.multiply(s.eu, s.eu, out=s.tmp)
        s.r += s.tmp
        np.sqrt(s.r, out=s.r)
        return s

    def _adjoint(self, s: MembraneScratch) -> np.ndarray:
        """D^T (du / r) + E^T (eu / r), flat and freshly allocated."""
        np.divide(s.du, s.r, out=s.qd)
        np.divide(s.eu, s.r, out=s.qe)
        g = s.qd_prev_j - s.qd
        np.subtract(s.qe_prev_i, s.qe, out=s.tmp)
        # the first i of each grid column has the zero boundary as its neighbour
        np.subtract(0.0, s.qe_edge, out=s.tmp_edge)
        g += s.tmp
        g *= self._inv_h
        g += 0.0  # -0.0 -> +0.0, as in a sparse row sum
        return g

    def value(self, u: np.ndarray) -> float:
        return float(self._slopes(u).r.sum())

    def grad(self, u: np.ndarray) -> np.ndarray:
        return self._adjoint(self._slopes(u))

    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        s = self._slopes(u)
        return float(s.r.sum()), self._adjoint(s)


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
