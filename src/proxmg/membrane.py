"""Discretized elastic membrane over an obstacle, penalty form.

The smooth part is the surface-area energy of a membrane sampled on the
interior grid,

    f(u) = sum_{i,j} sqrt(1 + (Du)_{ij}^2 + (Eu)_{ij}^2),

where D and E are forward difference operators with entries +-1/h and a
homogeneous Dirichlet closure past the last row and column only (points
beyond them are zero).  No difference reaches back past i = 1 or j = 1, so
the membrane is clamped at its high edges and free (natural boundary) at
the edges i = 1 and j = 1; the grid transfers match that (see
:mod:`proxmg.transfer`).  The constant h^2 area factor is dropped; it
rescales the objective without moving the minimizer.

The nonsmooth part charges lam per unit of dipping below the obstacle
phi(x, y) = max(0, sin x) * max(0, sin y) sampled over a square physical
domain of side length 3*pi.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .grid import GridLevel
from .nonsmooth import SeparableNonsmooth
from .problems import CompositeProblem

DOMAIN_SIDE = 3.0 * math.pi


def _constant(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, a cheap ufunc operand."""
    c = np.array(value, dtype=np.float64)
    c.flags.writeable = False
    return c


_ZERO = _constant(0.0)
_ONE = _constant(1.0)


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
    """Gradient-Lipschitz bound 8 / h^2 for the membrane energy.

    f(u) = sum_k phi((Du)_k, (Eu)_k) with phi(a, b) = sqrt(1 + a^2 + b^2).
    With g = (a, b) and r = phi(a, b), the Hessian of phi is
    (I - g g^T / r^2) / r, whose eigenvalues 1/r (across g) and 1/r^3
    (along g) are both at most 1, since r >= 1.  The Hessian of f is
    K^T H K with K = [D; E] and H block diagonal in those 2 x 2 Hessians,
    so H <= I gives Hess f <= K^T K = D^T D + E^T E.  D and E are each a
    shift minus the identity, over h, so ||D||^2, ||E||^2 <= 4/h^2 and
    lambda_max(D^T D + E^T E) <= 8/h^2.  From n_side = 7 on the bound is
    within 5 % of that lambda_max (tested).  1/h = n_side + 1 is a power of
    two, so the value is exact in floating point.
    """
    return 8.0 / (grid.h * grid.h)


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
        # D and E of a difference of two points, for value_change
        self.dd = np.empty(nn)
        self.ed = np.empty(nn)
        self.ed_edge = self.ed.reshape(n, n)[:, -1]
        self.r = np.empty(nn)
        self.tmp = np.empty(nn)
        self.tmp_edge = self.tmp.reshape(n, n)[:, 0]
        pd = np.zeros(n + nn)
        self.qd, self.qd_prev_j = pd[n:], pd[:nn]
        pe = np.zeros(1 + nn)
        self.qe, self.qe_prev_i = pe[1:], pe[:nn]
        self.qe_edge = self.qe.reshape(n, n)[:, 0]


class MembraneEnergy:
    """Surface-area energy of the membrane on one grid level, clamped past
    the last row and column and free at i = 1 and j = 1.

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

    An instance evaluates into a :class:`MembraneScratch` of its own,
    allocated at its first evaluation and rewritten by every later one; each
    evaluation writes every scratch entry it reads, so nothing carries over
    from one to the next.  Evaluations on one instance must therefore not
    overlap (no two threads at once).  Values and gradients returned are
    fresh arrays, which later evaluations leave alone.

    The scalars the stencil applies, 1/h, 1 and 0, are read-only 0-d
    float64 arrays.  A ufunc converts a Python float operand to such an
    array on every call, which on a small level is a large share of the
    call's cost; given the array, it does the same arithmetic, so every
    result keeps its bytes.  Read-only, because instances share 1 and 0.
    """

    def __init__(self, grid: GridLevel):
        self.grid = grid
        self.lipschitz = lipschitz_upper_bound(grid)
        self._n = grid.n_side

    @property
    def dim(self) -> int:
        return self.grid.n_total

    @cached_property
    def _scratch(self) -> MembraneScratch:
        # allocated lazily, so that building a stack costs no scratch
        return MembraneScratch(self._n)

    @cached_property
    def _inv_h(self) -> np.ndarray:
        # n + 1, a power of two; built lazily too, since a 0-d array costs
        # more to make than the rest of __init__
        return _constant(1.0 / self.grid.h)

    def _differences(self, u: np.ndarray, du: np.ndarray, eu: np.ndarray,
                     eu_edge: np.ndarray) -> None:
        """Du into du and Eu into eu, flat; eu_edge is the view of eu at the
        last i of each grid column."""
        n = self._n
        if u.shape[0] != n * n:
            raise ValueError(f"dimension mismatch: grid has {n * n}, vector {u.shape[0]}")
        s = self._scratch
        np.multiply(u, self._inv_h, out=s.body)
        np.subtract(s.body_next_j, s.body, out=du)
        np.subtract(s.body_next_i, s.body, out=eu)
        # the last i of each grid column has the zero boundary as its neighbour
        np.subtract(_ZERO, s.body_edge, out=eu_edge)

    def _squared_slopes(self, u: np.ndarray) -> MembraneScratch:
        """Scratch holding Du, Eu and r^2 = 1 + (Du)^2 + (Eu)^2 in ``r``, flat."""
        s = self._scratch
        self._differences(u, s.du, s.eu, s.eu_edge)
        np.multiply(s.du, s.du, out=s.r)
        np.add(s.r, _ONE, out=s.r)
        np.multiply(s.eu, s.eu, out=s.tmp)
        np.add(s.r, s.tmp, out=s.r)
        return s

    def _slopes(self, u: np.ndarray) -> MembraneScratch:
        """Scratch holding Du, Eu and r = sqrt(1 + (Du)^2 + (Eu)^2), flat."""
        s = self._squared_slopes(u)
        np.sqrt(s.r, out=s.r)
        return s

    def _adjoint(self, s: MembraneScratch) -> np.ndarray:
        """D^T (du / r) + E^T (eu / r), flat and freshly allocated."""
        np.divide(s.du, s.r, out=s.qd)
        np.divide(s.eu, s.r, out=s.qe)
        g = np.subtract(s.qd_prev_j, s.qd)
        np.subtract(s.qe_prev_i, s.qe, out=s.tmp)
        # the first i of each grid column has the zero boundary as its neighbour
        np.subtract(_ZERO, s.qe_edge, out=s.tmp_edge)
        np.add(g, s.tmp, out=g)
        np.multiply(g, self._inv_h, out=g)
        np.add(g, _ZERO, out=g)  # -0.0 -> +0.0, as in a sparse row sum
        return g

    def value(self, u: np.ndarray) -> float:
        return float(np.add.reduce(self._slopes(u).r))

    def grad(self, u: np.ndarray) -> np.ndarray:
        return self._adjoint(self._slopes(u))

    def value_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        s = self._slopes(u)
        return float(np.add.reduce(s.r)), self._adjoint(s)

    def value_change(self, y: np.ndarray, z: np.ndarray) -> float:
        """f(z) - f(y), summed from pointwise differences.

        Each term r_z - r_y is taken as (q_z - q_y) / (r_z + r_y), where
        q = (Du)^2 + (Eu)^2, r = sqrt(1 + q) and, with d = z - y,
        q_z - q_y = (Dd)(Dz + Dy) + (Ed)(Ez + Ey), Dz + Dy = 2 Dy + Dd
        and r_z^2 = r_y^2 + (q_z - q_y).  Each term is then exact to a few
        roundings of itself, while f(z) - f(y) taken from the two totals
        carries their rounding, about 1e-16 f >= 1e-16 n^2, which near a
        minimizer is larger than the change.
        """
        s = self._scratch
        self._differences(np.subtract(z, y), s.dd, s.ed, s.ed_edge)
        self._squared_slopes(y)  # r_y^2 in s.r
        np.add(s.du, s.du, out=s.tmp)
        np.add(s.tmp, s.dd, out=s.tmp)
        np.multiply(s.tmp, s.dd, out=s.dd)
        np.add(s.eu, s.eu, out=s.tmp)
        np.add(s.tmp, s.ed, out=s.tmp)
        np.multiply(s.tmp, s.ed, out=s.ed)
        np.add(s.dd, s.ed, out=s.dd)  # q_z - q_y
        np.add(s.r, s.dd, out=s.tmp)  # r_z^2
        np.sqrt(s.r, out=s.r)
        np.sqrt(s.tmp, out=s.tmp)
        np.add(s.r, s.tmp, out=s.r)
        np.divide(s.dd, s.r, out=s.dd)
        return float(np.add.reduce(s.dd))


def obstacle_values(n_side: int) -> np.ndarray:
    """Obstacle phi sampled at the interior points, flattened column-major.

    Point (i, j) sits at physical coordinates (i * DOMAIN_SIDE * h',
    j * DOMAIN_SIDE * h') with h' = 1/(n_side + 1); the positive-part factors
    clamp the sine bumps at zero.
    """
    hp = 1.0 / (n_side + 1)
    t = DOMAIN_SIDE * hp * np.arange(1, n_side + 1)
    bump = np.maximum(0.0, np.sin(t))
    # value at flat index (j-1)*n + (i-1) is bump[i-1] * bump[j-1]
    return np.outer(bump, bump).flatten(order="F")


def make_obstacle_problem(n_side: int, lam: float = 1e-6) -> CompositeProblem:
    """The penalized obstacle problem on an n_side x n_side interior grid."""
    grid = GridLevel(n_side)
    smooth = MembraneEnergy(grid)
    phi = obstacle_values(n_side)
    return CompositeProblem(smooth, SeparableNonsmooth.hinge(lam, phi))
