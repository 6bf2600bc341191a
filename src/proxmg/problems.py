"""Composite objectives F(x) = f(x) + g(x) and the quadratic smooth part.

A smooth part is any object with ``value(x)``, ``grad(x)``,
``value_and_grad(x)`` (the pair from one evaluation, bit for bit equal to the
two separate calls), ``value_change(y, z)`` (f(z) - f(y) summed from
pointwise differences, so that it keeps its digits where the two values
agree in most of theirs), a ``lipschitz`` attribute (an upper bound for the
gradient's Lipschitz constant, used for fixed 1/L steps and as the scale of
the prox-gradient map), and ``dim``.  Values and gradients come back as
fresh arrays, which later evaluations leave alone.  A smooth part may
evaluate into scratch arrays it owns (the membrane does); callers neither
see nor supply them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .nonsmooth import SeparableNonsmooth


@dataclass(frozen=True)
class CompositeProblem:
    """A smooth term paired with a separable nonsmooth term on one level."""

    smooth: object
    nonsmooth: SeparableNonsmooth

    @property
    def dim(self) -> int:
        return self.smooth.dim

    @property
    def lipschitz(self) -> float:
        return self.smooth.lipschitz

    def objective(self, u: np.ndarray, f_u: float | None = None) -> float:
        """F(u); ``f_u`` is the smooth part's value at u when already known."""
        if f_u is None:
            f_u = self.smooth.value(u)
        return f_u + self.nonsmooth.value(u)

    def value_change(self, y: np.ndarray, z: np.ndarray) -> float:
        """F(z) - F(y), each part summed from pointwise differences."""
        return self.smooth.value_change(y, z) + self.nonsmooth.value_change(y, z)


def tilted_objective(problem: CompositeProblem, tau, xi: np.ndarray,
                     f_xi: float | None = None) -> float:
    """F(xi) - <tau, xi>: the objective with the cross-level linear correction.

    ``f_xi`` is the smooth part's value at xi when already known.
    """
    val = problem.objective(xi, f_xi)
    if tau is None:
        return val
    return val - float(tau.dot(xi))


def tilted_value_change(problem: CompositeProblem, tau, y: np.ndarray,
                        z: np.ndarray) -> float:
    """F(z) - F(y) - <tau, z - y>, each term summed from pointwise
    differences (see ``value_change``).

    Near a minimizer the change is smaller than the rounding of either
    tilted objective, so comparing two values of :func:`tilted_objective`
    cannot tell which of y and z is lower; this can.
    """
    change = problem.value_change(y, z)
    if tau is None:
        return change
    return change - float(np.add.reduce(tau * (z - y)))


@dataclass(frozen=True)
class QuadraticForm:
    """f(x) = 0.5 x'Ax - b'x for a sparse symmetric positive definite A."""

    A: sp.csr_array
    b: np.ndarray
    lipschitz: float

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * np.dot(x, self.A @ x) - np.dot(self.b, x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x - self.b

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        Ax = self.A @ x
        return float(0.5 * np.dot(x, Ax) - np.dot(self.b, x)), Ax - self.b

    def value_change(self, y: np.ndarray, z: np.ndarray) -> float:
        """f(z) - f(y) = <Ay - b, d> + <d, Ad> / 2 with d = z - y."""
        d = z - y
        return float(np.add.reduce((self.A @ y - self.b + 0.5 * (self.A @ d)) * d))


def start_points(seed: int, dim: int):
    """Start points uniform on [0, 1]^dim, one after another from one PCG64
    stream seeded with ``seed``.  The first is the start of ``proxmg solve
    --seed``, of ``compare`` and of the verify runs, so all of them begin at
    the same array for the same seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        yield rng.uniform(0.0, 1.0, size=dim)


def laplacian_1d(n: int) -> sp.csr_array:
    """The n x n tridiagonal (-1, 2, -1) matrix (unscaled 1-D Dirichlet Laplacian)."""
    return sp.csr_array(sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(n, n)))

