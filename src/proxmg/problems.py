"""Composite objectives F(x) = f(x) + g(x) and the quadratic smooth part.

A smooth part is any object with ``value(x)``, ``grad(x)``,
``value_and_grad(x)`` (the pair from one evaluation, bit for bit equal to the
two separate calls), a ``lipschitz`` attribute (an upper bound for the
gradient's Lipschitz constant, used for fixed 1/L steps and as the scale of
the prox-gradient map), and ``dim``.  A smooth part may also offer
``with_scratch()``: a copy that evaluates into preallocated arrays of its own,
for one solve's exclusive use.
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

    def with_scratch(self) -> "CompositeProblem":
        """This problem with its smooth part's scratch-owning copy, if it has one."""
        bind = getattr(self.smooth, "with_scratch", None)
        return self if bind is None else CompositeProblem(bind(), self.nonsmooth)

    def objective(self, u: np.ndarray, f_u: float | None = None) -> float:
        """F(u); ``f_u`` is the smooth part's value at u when already known."""
        if f_u is None:
            f_u = self.smooth.value(u)
        return f_u + self.nonsmooth.value(u)


def tilted_objective(problem: CompositeProblem, tau, xi: np.ndarray,
                     f_xi: float | None = None) -> float:
    """F(xi) - <tau, xi>: the objective with the cross-level linear correction.

    ``f_xi`` is the smooth part's value at xi when already known.
    """
    val = problem.objective(xi, f_xi)
    if tau is None:
        return val
    return val - float(np.dot(tau, xi))


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


def laplacian_1d(n: int) -> sp.csr_array:
    """The n x n tridiagonal (-1, 2, -1) matrix (unscaled 1-D Dirichlet Laplacian)."""
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return sp.csr_array(sp.diags_array([off, main, off], offsets=[-1, 0, 1]))


def power_iteration(A, tol: float = 1e-13, max_iters: int = 200000) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by plain power iteration.

    Iterates until the Rayleigh quotient changes by at most ``tol`` (relative)
    or the cap is hit.  Deterministic: starts from a fixed ramp vector.
    """
    n = A.shape[0]
    v = 1.0 + np.arange(n, dtype=np.float64) / n
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = A @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(v @ (A @ v))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def extreme_eigenvalues(A, tol: float = 1e-13) -> tuple[float, float]:
    """(smallest, largest) eigenvalue estimates of symmetric PSD ``A``.

    The smallest is obtained by power iteration on the shifted matrix
    ``L*I - A``, so both estimates come from the same numerical primitive.
    """
    L = power_iteration(A, tol=tol)
    n = A.shape[0]
    shifted = sp.csr_array(sp.identity(n) * L - A)
    mu = L - power_iteration(shifted, tol=tol)
    return mu, L
