"""Proximal-gradient smoothing: single steps, the gradient map, backtracking.

The smoothing update on a level with tilt tau is

    x+ = prox_{g/L}( x - (grad f(x) - tau) / L ),

and the associated prox-gradient map G(x) = L * (x - x+) vanishes exactly at
minimizers of the tilted objective; its norm is the solvers' stopping metric.

Every smoothing step is a backtracking step bounded by a cap L_cap: the
estimate doubles until the descent model holds or the cap is reached.  A
fixed step 1/L is the backtracking step started at its cap (L = L_cap), the
constant-step special case of backtracking in Beck and Teboulle's FISTA.
Every step returns the pair (f, grad f) at its output except that one: a
step started at or above its cap evaluates only grad f(x).

The steps take the level's share of a solve's workspace (``work``, a
``hierarchy.LevelWork``): its problem and its estimate ``L`` with the cap
``L_cap``.  A step writes the L it accepted back to ``work.L``, so the
estimate only ever grows (Beck and Teboulle's monotone rule) and no caller
updates it.  Every array a step returns is freshly allocated.  A block of
steps returns what a step returns, its output and the pair (f, grad f)
there, which it completes once at its end when its last step was a fixed
one, so the next stage of a cycle reads the pair rather than evaluating it
again.
"""

from __future__ import annotations

import numpy as np

from .problems import CompositeProblem

# backtracking doubles its estimate, at most this many times per step
MAX_DOUBLINGS = 60


def _descend(problem: CompositeProblem, x: np.ndarray, gt: np.ndarray,
             L: float) -> np.ndarray:
    """prox_{g/L}(x - gt / L) for the tilted gradient gt = grad f(x) - tau.

    The gradient step is formed in one fresh array, and the prox returns
    the iterate in another; ``gt`` is left alone.
    """
    point = gt / L
    np.subtract(x, point, out=point)
    return problem.nonsmooth.prox(point, 1.0 / L)


def _check_L(L: float) -> None:
    if not L > 0:  # NaN compares false
        raise ValueError(f"L must be positive, got {L}")


def prox_grad_step(problem: CompositeProblem, tau, x: np.ndarray, L: float,
                   gx: np.ndarray | None = None) -> np.ndarray:
    """One proximal-gradient step with stepsize 1/L on the tilted objective.

    ``gx`` is grad f(x) when the caller already has it.
    """
    _check_L(L)
    if gx is None:
        gx = problem.smooth.grad(x)
    return _descend(problem, x, gx if tau is None else gx - tau, L)


def prox_grad_map(problem: CompositeProblem, tau, x: np.ndarray, L: float,
                  gx: np.ndarray | None = None) -> np.ndarray:
    """G(x) = L * (x - prox_grad_step(x)); zero exactly at tilted minimizers."""
    out = prox_grad_step(problem, tau, x, L, gx)
    np.subtract(x, out, out=out)
    out *= L
    return out


def backtrack_L(work, tau, x: np.ndarray,
                fg_x: tuple | None = None) -> tuple[np.ndarray, tuple | None]:
    """Smallest L in {work.L * 2^t} whose prox-grad step satisfies the descent model.

    Accepts L once f(y) <= f(x) + <grad f(x), y - x> + (L/2) ||y - x||^2 for
    y = prox_grad_step(x, L) on ``work.problem``.  The tilt drops out of the
    inequality (it is linear), so the raw smooth part is tested.  ``fg_x`` is
    (f(x), grad f(x)) when the caller already has it.  Writes the accepted L
    to ``work.L`` and returns (y, fg_y), where fg_y is (f(y), grad f(y)) from
    the descent test that accepted y.

    The tilted gradient grad f(x) - tau is formed once per call and every
    trial step divides it by its own L, which is the arithmetic of
    ``prox_grad_step``, so each trial returns that step's bytes.  L only
    doubles, so it is checked to be positive once, before the first trial.

    ``work.L_cap`` is accepted unconditionally once reached: near the
    arithmetic floor the descent test degenerates to rounding noise while the
    inequality is certified analytically for any L above the true curvature,
    so workspaces cap the estimate at a small multiple of the level's bound to
    stop it from ratcheting without bound (``math.inf`` leaves it uncapped).
    A step that doubles up to its cap has evaluated f(y) with the rest of
    its trials and returns the pair.  Only a step started at or above its
    cap returns fg_y = None: it is the fixed step 1/L_cap, and costs one
    gradient.
    """
    problem, L, L_cap = work.problem, work.L, work.L_cap
    if L >= L_cap:
        work.L = L_cap
        return prox_grad_step(problem, tau, x, L_cap,
                              None if fg_x is None else fg_x[1]), None
    _check_L(L)
    f = problem.smooth
    fx, gx = f.value_and_grad(x) if fg_x is None else fg_x
    gt = gx if tau is None else gx - tau
    slack = 1e-15 * abs(fx)
    for _ in range(MAX_DOUBLINGS + 1):
        y = _descend(problem, x, gt, L)
        d = y - x
        fg_y = f.value_and_grad(y)
        if L >= L_cap or fg_y[0] <= fx + float(gx.dot(d)) + 0.5 * L * float(d.dot(d)) + slack:
            work.L = L
            return y, fg_y
        L = min(2.0 * L, L_cap)
    raise RuntimeError(f"backtracking exceeded {MAX_DOUBLINGS} doublings; last L = {L / 2.0}")


def run_smoothing(work, tau, x: np.ndarray, n_steps: int,
                  fg_x: tuple | None = None) -> tuple[np.ndarray, tuple]:
    """n_steps backtracking steps (see :func:`backtrack_L`) on ``work``;
    returns (x, (f(x), grad f(x))) at the block's output, as a step does.

    ``fg_x`` is (f(x), grad f(x)) when the caller already has it; each step
    hands the pair at its output to the next.  When the last step, started
    at its cap, left the pair unset, the block evaluates it once at its
    end, so a fixed step still costs one gradient.  Zero steps return x
    with its pair.
    """
    if n_steps < 0:
        raise ValueError(f"the number of smoothing steps must be nonnegative, got {n_steps}")
    fg = fg_x
    for _ in range(n_steps):
        x, fg = backtrack_L(work, tau, x, fg)
    if fg is None:
        fg = work.problem.smooth.value_and_grad(x)
    return x, fg
