"""Independent oracles for tests and verification, plus the synthetic problem.

The oracles re-derive what they check by other means: gradients by central
differences, prox outputs by golden-section search, and the synthetic
problem's curvature constants by power iteration.  The reference solution
is the exception: it runs two of the library's solvers, FISTA and then the
V-cycle solver, each warm starting the next.  At the references the
certificates use, FISTA meets the tolerance on its own and the V-cycle run
takes no iteration; it is a fallback for when FISTA stops short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import fista_solve
from .hierarchy import Level, LevelStack
from .multigrid import CycleConfig, StoppingRule, mgprox_solve
from .nonsmooth import SeparableNonsmooth
from .problems import (CompositeProblem, QuadraticForm, extreme_eigenvalues, laplacian_1d,
                       power_iteration, start_points)
from .smoothing import prox_grad_map
from .transfer import build_line_weighting

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def fd_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return out


def golden_section(h, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Argmin of a unimodal scalar function on [lo, hi].

    The interval is narrowed to width ``tol``; the achievable placement near
    a smooth minimum is additionally limited by the rounding noise of ``h``,
    roughly sqrt(eps * |h|), so callers wanting below ~1e-7 must evaluate
    ``h`` in extended precision.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    hc, hd = h(c), h(d)
    while (b - a) > tol:
        if hc < hd:
            b, d, hd = d, c, hc
            c = b - _INVPHI * (b - a)
            hc = h(c)
        else:
            a, c, hc = c, d, hd
            d = a + _INVPHI * (b - a)
            hd = h(d)
    return 0.5 * (a + b)


def brute_force_prox(g_scalar, v: float, step: float, bracket: tuple[float, float],
                     tol: float = 1e-10) -> float:
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

    return golden_section(h, lo, hi, tol)


def make_chain_problem(n: int, lam: float = 0.01, seed: int = 0) -> CompositeProblem:
    """Quadratic + l1 test problem: f = 0.5 x'Ax - b'x with A = tridiag(-1,2,-1).

    The curvature bound L is computed numerically (power iteration), and
    :func:`chain_constants` re-derives (mu, L) for the rate certificates; b
    is drawn from a seeded PCG64 stream for reproducibility.
    """
    A = laplacian_1d(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    b = rng.uniform(-1.0, 1.0, size=n)
    smooth = QuadraticForm(A, b, power_iteration(A))
    problem = CompositeProblem(smooth, SeparableNonsmooth.l1(lam))
    return problem


def chain_constants(problem: CompositeProblem) -> tuple[float, float]:
    """(mu, L) of the quadratic part, re-derived from the matrix."""
    return extreme_eigenvalues(problem.smooth.A)


def build_chain_hierarchy(n: int, lam: float = 0.01, num_levels: int = 2,
                          n_smooth: int = 20, seed: int = 0) -> LevelStack:
    """Level stack for the synthetic problem via 1-D weighting transfers.

    Each coarser level re-discretizes: the matrix is the tridiagonal form at
    the halved size, the load is the restricted fine load, the penalty weight
    is unchanged.
    """
    if num_levels < 1:
        raise ValueError("need at least one level")
    problems = [make_chain_problem(n, lam, seed)]
    transfers = []
    size = n
    for _ in range(num_levels - 1):
        transfer = build_line_weighting(size)
        size = transfer.n_coarse
        A_c = laplacian_1d(size)
        b_c = transfer.restrict @ problems[-1].smooth.b
        problems.append(CompositeProblem(QuadraticForm(A_c, b_c, power_iteration(A_c)),
                                         SeparableNonsmooth.l1(lam)))
        transfers.append(transfer)
    levels = [Level(p, t) for p, t in zip(problems, transfers + [None])]
    return LevelStack(levels, n_smooth=n_smooth)


@dataclass
class Reference:
    """High-accuracy solution used as the anchor of the certificate suite."""

    x: np.ndarray
    objective: float
    g_norm: float
    g_norm_initial: float
    converged: bool


def reference_solution(stack: LevelStack, tol: float = 1e-12, seed: int = 0,
                       x0: np.ndarray | None = None, max_iters: int = 200000,
                       order: str = "fista-first") -> Reference:
    """Solve the fine problem two ways and keep the better iterate.

    Runs FISTA and the V-cycle solver (in the requested order,
    ``"fista-first"`` or ``"mg-first"``, each warm starting the next) down to
    the relative prox-gradient tolerance; the returned objective is the
    smaller of the two final values.  In the default order FISTA does the
    work: at the verification references (n = 7 at lam = 1e-6 and 100,
    n = 15, and the n = 64 chain, all at tol = 1e-12) it meets the tolerance,
    and the V-cycle run stops before its first cycle.  That run is a
    fallback: it iterates only when FISTA stops short of the tolerance, or
    with ``order="mg-first"``.
    """
    if order not in ("fista-first", "mg-first"):
        raise ValueError(f"unknown order {order!r}")
    if tol < 1e-13:
        raise ValueError("tol below 1e-13 is not resolvable in double precision here")
    problem = stack.fine.problem
    L0 = stack.fine.L_est
    if x0 is None:
        x0 = next(start_points(seed, problem.dim))
    gn0 = float(np.linalg.norm(prox_grad_map(problem, None, x0, L0)))
    abs_tol = tol * gn0

    def run_fista(x):
        return fista_solve(problem, x, StoppingRule(max_iters, 0.0, abs_tol))

    def run_mg(x):
        cfg = CycleConfig(step_mode="backtracking")
        return mgprox_solve(stack, x, StoppingRule(min(2000, max_iters), 0.0, abs_tol), cfg)

    runs = (run_fista, run_mg) if order == "fista-first" else (run_mg, run_fista)
    best_x, best_F, best_g = None, np.inf, np.inf
    x = x0
    for run in runs:
        x, _ = run(x)
        F = problem.objective(x)
        g = float(np.linalg.norm(prox_grad_map(problem, None, x, L0)))
        if F < best_F or (F == best_F and g < best_g):
            best_x, best_F, best_g = x.copy(), F, g
        x = best_x.copy()
    return Reference(best_x, best_F, best_g, gn0, best_g <= abs_tol)
