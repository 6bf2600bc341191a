"""Independent oracles for tests and verification, plus the synthetic problem.

The oracles re-derive what they check by other means: gradients by central
differences and prox outputs by golden-section search.  Of the synthetic
problem's curvature constants, L is the problem's own bound, the matrix's
largest absolute row sum, and mu is its smallest eigenvalue from numpy's
dense symmetric eigensolver.  The reference solution is the exception: it
is one run of the library's FISTA solver, a single-level method that
shares no coarse correction with the multigrid solvers the certificates
check, down to a relative prox-gradient norm of ``REFERENCE_TOL``.  It
raises rather than return a point short of that.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .baselines import fista_solve
from .hierarchy import Level, LevelStack
from .multigrid import StoppingRule
from .nonsmooth import SeparableNonsmooth
from .problems import CompositeProblem, QuadraticForm, laplacian_1d, start_points
from .transfer import build_line_weighting

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
FD_STEP = 1e-6                 # fd_gradient: central-difference step
GOLDEN_TOL = 1e-10             # golden_section: final bracket width
REFERENCE_TOL = 1e-12          # reference_solution: relative prox-gradient norm
REFERENCE_MAX_ITERS = 200000   # reference_solution: FISTA iteration budget


def fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector, with
    step ``FD_STEP``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = FD_STEP
        out[i] = (f(x + e) - f(x - e)) / (2.0 * FD_STEP)
    return out


def golden_section(h, lo: float, hi: float) -> float:
    """Argmin of a unimodal scalar function on [lo, hi].

    The interval is narrowed to width ``GOLDEN_TOL``; the achievable
    placement near a smooth minimum is additionally limited by the rounding
    noise of ``h``, roughly sqrt(eps * |h|), so callers wanting below ~1e-7
    must evaluate ``h`` in extended precision.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    hc, hd = h(c), h(d)
    while (b - a) > GOLDEN_TOL:
        if hc < hd:
            b, d, hd = d, c, hc
            c = b - _INVPHI * (b - a)
            hc = h(c)
        else:
            a, c, hc = c, d, hd
            d = a + _INVPHI * (b - a)
            hd = h(d)
    return 0.5 * (a + b)


def brute_force_prox(g_scalar, v: float, step: float,
                     bracket: tuple[float, float]) -> float:
    """Minimizer of step * g(t) + 0.5 (t - v)^2 by golden-section search.

    The objective is evaluated in extended precision (``np.longdouble``) so
    value comparisons stay meaningful down to ~1e-9 placements near smooth
    minima; ``g_scalar`` must therefore be plain arithmetic that preserves
    the input dtype.  The bracket must contain the minimizer; convexity of g
    guarantees unimodality.
    """
    lo, hi = bracket
    if not lo <= hi:
        raise ValueError("empty bracket")
    v_l = np.longdouble(v)
    step_l = np.longdouble(step)
    half = np.longdouble(0.5)

    def h(t):
        t_l = np.longdouble(t)
        return step_l * g_scalar(t_l) + half * (t_l - v_l) ** 2

    return golden_section(h, lo, hi)


def _chain_level(b: np.ndarray, lam: float) -> CompositeProblem:
    """The chain problem with load ``b``: A = tridiag(-1, 2, -1) at b's size,
    L = ||A||_inf (4 from three unknowns on, lambda_max itself below), and
    the l1 term lam * ||x||_1."""
    A = laplacian_1d(b.shape[0])
    L = float(abs(A).sum(axis=1).max())
    return CompositeProblem(QuadraticForm(A, b, L), SeparableNonsmooth.l1(lam))


def make_chain_problem(n: int, lam: float = 0.01, seed: int = 0) -> CompositeProblem:
    """Quadratic + l1 test problem: f = 0.5 x'Ax - b'x with A = tridiag(-1,2,-1).

    The curvature bound L is A's largest absolute row sum, which bounds
    every eigenvalue, and :func:`chain_constants` reads it back with the mu
    it computes for the rate certificates; b is drawn from a seeded PCG64
    stream for reproducibility.  ``n`` must be an integer (numpy's
    included) of at least 1.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer of at least 1, got {n!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return _chain_level(rng.uniform(-1.0, 1.0, size=n), lam)


def chain_constants(problem: CompositeProblem) -> tuple[float, float]:
    """(mu, L) of the quadratic part.

    L is the problem's own bound, ``problem.lipschitz``.  mu is the
    smallest eigenvalue of A by ``numpy.linalg.eigvalsh`` on its dense form.
    """
    return float(np.linalg.eigvalsh(problem.smooth.A.toarray())[0]), problem.lipschitz


def build_chain_hierarchy(n: int, lam: float = 0.01, num_levels: int = 2,
                          n_smooth: int = 20, seed: int = 0) -> LevelStack:
    """Level stack for the synthetic problem via 1-D weighting transfers.

    Each coarser level re-discretizes: the matrix is the tridiagonal form at
    the halved size, the load is the restricted fine load, the penalty weight
    is unchanged.
    """
    if not isinstance(num_levels, numbers.Integral) or num_levels < 1:
        raise ValueError(f"num_levels must be an integer of at least 1, got {num_levels!r}")
    problem = make_chain_problem(n, lam, seed)
    levels = []
    for _ in range(num_levels - 1):
        transfer = build_line_weighting(problem.dim)
        levels.append(Level(problem, transfer))
        problem = _chain_level(transfer.restrict @ problem.smooth.b, lam)
    levels.append(Level(problem))
    return LevelStack(levels, n_smooth=n_smooth)


@dataclass
class Reference:
    """High-accuracy solution used as the anchor of the certificate suite:
    x*, F(x*) and the relative prox-gradient norm there, the end of its
    FISTA run as that run's trace reads it (``SolverTrace.final_objective``
    and ``final_rel_g_norm``)."""

    x: np.ndarray
    objective: float
    rel_g_norm: float


def reference_solution(stack: LevelStack, seed: int) -> Reference:
    """The fine problem solved by FISTA from the seed's first start point.

    FISTA runs until the prox-gradient norm falls below ``REFERENCE_TOL``
    times its value at the start; the returned objective and relative norm
    are read off its trace where it stopped, not evaluated again.  A run
    that spends ``REFERENCE_MAX_ITERS`` iterations first raises
    ``RuntimeError``, so no certificate rests on an unconverged point.
    """
    problem = stack.fine.problem
    x0 = next(start_points(seed, problem.dim))
    x, trace = fista_solve(problem, x0, StoppingRule(REFERENCE_MAX_ITERS, REFERENCE_TOL))
    if not trace.converged:
        raise RuntimeError(f"reference solve stopped at relative |G| {trace.final_rel_g_norm:.3e} "
                           f"after {REFERENCE_MAX_ITERS} iterations, short of {REFERENCE_TOL:g}")
    return Reference(x, trace.final_objective, trace.final_rel_g_norm)
