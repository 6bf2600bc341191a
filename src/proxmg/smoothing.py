"""Proximal-gradient smoothing: single steps, the gradient map, backtracking.

The smoothing update on a level with tilt tau is

    x+ = prox_{g/L}( x - (grad f(x) - tau) / L ),

and the associated prox-gradient map G(x) = L * (x - x+) vanishes exactly at
minimizers of the tilted objective; its norm is the solvers' stopping metric.

Every smoothing step is a backtracking step bounded by a cap L_cap: the
estimate doubles until the descent model holds or the cap is reached.  A
fixed step 1/L is the backtracking step started at its cap (L = L_cap), the
constant-step special case of backtracking in Beck and Teboulle's FISTA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import CompositeProblem

# backtracking doubles its estimate, at most this many times per step
MAX_DOUBLINGS = 60


class StepScratch:
    """Preallocated arrays for prox-gradient steps on one level.

    ``point`` holds the gradient step x - (grad f(x) - tau) / L that the prox
    maps, and ``diff`` holds y - x for the descent test.  Steps called
    without one build a throwaway set; the iterates and gradients they
    return are fresh arrays either way, so callers may keep them.
    """

    def __init__(self, dim: int):
        self.point = np.empty(dim)
        self.diff = np.empty(dim)


def prox_grad_step(problem: CompositeProblem, tau, x: np.ndarray, L: float,
                   gx: np.ndarray | None = None,
                   scratch: StepScratch | None = None) -> np.ndarray:
    """One proximal-gradient step with stepsize 1/L on the tilted objective.

    ``gx`` is grad f(x) when the caller already has it.
    """
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    if gx is None:
        gx = problem.smooth.grad(x)
    point = (scratch if scratch is not None else StepScratch(x.shape[0])).point
    if tau is None:
        np.divide(gx, L, out=point)
    else:
        np.subtract(gx, tau, out=point)
        point /= L
    np.subtract(x, point, out=point)
    return problem.nonsmooth.prox(point, 1.0 / L)


def prox_grad_map(problem: CompositeProblem, tau, x: np.ndarray, L: float,
                  gx: np.ndarray | None = None,
                  scratch: StepScratch | None = None) -> np.ndarray:
    """G(x) = L * (x - prox_grad_step(x)); zero exactly at tilted minimizers."""
    out = prox_grad_step(problem, tau, x, L, gx, scratch)
    np.subtract(x, out, out=out)
    out *= L
    return out


def backtrack_L(problem: CompositeProblem, tau, x: np.ndarray, L0: float,
                L_cap: float, fg_x: tuple | None = None,
                scratch: StepScratch | None = None) -> tuple[float, np.ndarray, tuple | None]:
    """Smallest L in {L0 * 2^t} whose prox-grad step satisfies the descent model.

    Accepts L once f(y) <= f(x) + <grad f(x), y - x> + (L/2) ||y - x||^2 for
    y = prox_grad_step(x, L).  The tilt drops out of the inequality (it is
    linear), so the raw smooth part is tested.  ``fg_x`` is (f(x), grad f(x))
    when the caller already has it.  Returns (L, y, fg_y), where fg_y is
    (f(y), grad f(y)) from the descent test that accepted y.

    ``L_cap`` is accepted unconditionally once reached: near the arithmetic
    floor the descent test degenerates to rounding noise while the inequality
    is certified analytically for any L above the true curvature, so callers
    pass a small multiple of their Lipschitz estimate to stop the estimate
    from ratcheting without bound (``math.inf`` leaves it uncapped).  A step
    accepted there never evaluates f(y), and fg_y is None.  A step started at
    its cap is therefore the fixed step 1/L_cap, and costs one gradient.
    """
    if L0 <= 0:
        raise ValueError(f"L0 must be positive, got {L0}")
    if scratch is None:
        scratch = StepScratch(x.shape[0])
    if L0 >= L_cap:
        return L_cap, prox_grad_step(problem, tau, x, L_cap,
                                     None if fg_x is None else fg_x[1], scratch), None
    d = scratch.diff
    f = problem.smooth
    fx, gx = f.value_and_grad(x) if fg_x is None else fg_x
    L = L0
    for _ in range(MAX_DOUBLINGS + 1):
        y = prox_grad_step(problem, tau, x, L, gx, scratch)
        if L >= L_cap:
            return L, y, None
        np.subtract(y, x, out=d)
        fg_y = f.value_and_grad(y)
        if fg_y[0] <= fx + float(gx @ d) + 0.5 * L * float(d @ d) + 1e-15 * abs(fx):
            return L, y, fg_y
        L = min(2.0 * L, L_cap)
    raise RuntimeError(f"backtracking exceeded {MAX_DOUBLINGS} doublings; last L = {L / 2.0}")


def check_sufficient_descent(F_before: float, F_after: float, G_norm: float,
                             L: float, slack: float = 1e-12) -> bool:
    """Whether F_after <= F_before - ||G||^2 / (2L) up to the given slack."""
    return F_after <= F_before - G_norm * G_norm / (2.0 * L) + slack


@dataclass
class SmoothResult:
    """Outcome of a block of smoothing steps."""

    x: np.ndarray
    L: float            # working Lipschitz estimate after the block
    y_first: np.ndarray  # iterate after the first step
    L_first: float       # stepsize parameter used at the first step
    steps: int
    fg: tuple | None = None  # (f(x), grad f(x)) when the last step computed it
    f_first: float | None = None  # f(y_first) when the first step computed it


def run_smoothing(problem: CompositeProblem, tau, x: np.ndarray, L: float,
                  n_steps: int, L_cap: float, fg_x: tuple | None = None,
                  scratch: StepScratch | None = None) -> SmoothResult:
    """n_steps backtracking steps from the estimate L; it never shrinks.

    A fixed step 1/L is the step started at its cap, L = L_cap (see
    :func:`backtrack_L`).  ``fg_x`` is (f(x), grad f(x)) when the caller
    already has it; each step hands the pair at its output to the next.
    """
    if n_steps < 1:
        raise ValueError("need at least one smoothing step")
    if scratch is None:
        scratch = StepScratch(x.shape[0])
    y_first = None
    L_first = L
    f_first = None
    fg = fg_x
    for k in range(n_steps):
        L, x, fg = backtrack_L(problem, tau, x, L, L_cap, fg, scratch)
        if k == 0:
            y_first = x
            L_first = L
            f_first = None if fg is None else fg[0]
    return SmoothResult(x, L, y_first, L_first, n_steps, fg, f_first)
