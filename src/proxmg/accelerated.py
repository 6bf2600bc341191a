"""Momentum-accelerated variant of the V-cycle solver, with its certificates.

Each iteration extrapolates (y = alpha z + (1 - alpha) x), takes a
prox-gradient step w = T(y) = prox_{g/L}(y - grad f(y) / L), runs one V-cycle
from w to get x+, and moves the auxiliary point z along the composite
gradient mapping G = G(y) = L (y - T(y)).  The scalar sequences (alpha,
gamma, lambda) and the running bound phi_bar follow Nesterov's estimate
sequence with mu = 0 (Nesterov, *Introductory Lectures*, 2004, section 2.2;
Beck and Teboulle, FISTA, 2009), written for G:

    L alpha^2 = (1 - alpha) gamma,      gamma+ = (1 - alpha) gamma,
    lambda+ = (1 - alpha) lambda,       z+ = z - (alpha / gamma+) G,
    phi_bar+ = (1 - alpha) phi_bar + alpha F(x+)
               + (alpha/2) (1/L - alpha/gamma+) ||G||^2 + alpha <G, z - y>.

Why phi_bar+ >= F(x+).  With L at least the curvature of f, the descent
lemma at T(y) and the convexity of f and g give, for every u,

    F(u) >= F(T(y)) + <G, u - y> + ||G||^2 / 2L.

The V-cycle from w never raises F (the ``stage-monotonicity``
certificate), so F(x+) <= F(w) = F(T(y)), and the bound holds with F(x+)
in place of F(T(y)).  phi_bar+ is the minimum of (1 - alpha) phi(u) +
alpha (that lower model), where phi(u) = phi_bar + (gamma/2) ||u - z||^2, so
it is attained at z+ and has the value above.  If phi_bar >= F(x), bound
F(x) from below by the lower model at u = x; then

    phi_bar+ >= F(x+) + <G, (1 - alpha)(x - y) + alpha (z - y)>
                + (||G||^2 / 2) (1/L - alpha^2/gamma+) = F(x+),

because y = alpha z + (1 - alpha) x and L alpha^2 = gamma+.  With
phi_bar0 = F(x0) the bound holds at every k.  A momentum taken from the
V-cycle's output, L (y - x+), has no such lower model behind it, and
``estimate-sequence-bound`` fails on it.

Adaptive restart (O'Donoghue and Candes, *Found. Comput. Math.* 15,
2015).  The momentum pays only while it moves the iterate faster; against
a V-cycle that already contracts by a constant factor it soon adds back
more error than it saves.  So ``fastmgprox_solve`` ends an epoch after an
iteration from x to x+ when either of two tests fires, in this order
(``_restart_reason``):

    the function test,  F(x+) > F(x);
    the pullback test,  <z+ - x+, x+ - x> < 0.

The next epoch starts at x+ with z = x+, gamma = gamma0, lambda = 1 and
phi_bar = F(x+).

The function test sees only a step that climbs, and a stalled epoch need
not climb.  z moves by (alpha / gamma+) G(y), a fine prox-gradient step,
while x moves by a whole V-cycle, so z lags behind x, and each
extrapolation y = alpha z + (1 - alpha) x pulls the iterate back toward
the stale z by about alpha ||z - x||.  The cycle from y can still lower F
below F(x), so the function test stays quiet while the error falls like
alpha, about 2/k, in place of the cycle's geometric rate.  The next
extrapolation moves the iterate by alpha (z+ - x+), and the pullback test
ends the epoch when that move points back against the step just taken.  A
V-cycle step outruns the fine step that moves z, so in every run measured
away from the rounding floor the test fires after each iteration: each
epoch is then one iteration with z = x, hence y = x, and the solver runs
the plain cycle plus one fine prox step.  At the floor, where x+ - x = 0,
no test fires and an epoch runs on.

There is no gradient test, <G(y), x+ - x> > 0, the third test of
O'Donoghue and Candes: at an epoch's first iteration it implies the
pullback test.  There z = x, hence y = x, and L alpha^2 = gamma+, so with
d = x+ - x

    <z+ - x+, d> = -||d||^2 - <G(y), d> / (L alpha),

which is negative whenever <G(y), d> > 0.  Over 21 runs of 200 iterations
at rel_tol 0 (n = 15 on 3 levels, lam in {1e-6, 1, 100}, both step modes,
seeds 0-2, and ``verify``'s chain at seeds 0-2), the gradient test would
have fired 11 times, 3 of them inside an epoch near the rounding floor,
and the pullback test fired each time; with the gradient test or without
it the runs restart at the same iterations and keep every byte.

Ending an epoch early costs the bound nothing.  The reset
phi_bar = F(x+) is exact, not a bound: an epoch is a fresh estimate
sequence started at x+, whose phi(u) = F(x+) + (gamma0 / 2) ||u - x+||^2
has that minimum, so the induction above restarts from its base case and
every epoch carries the bound on its own, whichever test ended the one
before.  Keeping the old phi_bar, which is >= F(x+), would only loosen
it.  gamma and lambda reset together, so gamma = lambda gamma0 holds
throughout, and lambda decays within each epoch.

``F(x^k) <= phi_bar^k`` and ``lambda^k`` under Nesterov's decay bound
4L / (2 sqrt(L) + k sqrt(gamma0))^2, with k counted from the epoch's start,
are the computable witnesses of the accelerated O(1/k^2) rate within each
epoch; both are recorded every iteration and checked by the verification
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hierarchy import LevelStack, LevelWork, workspace
from .multigrid import CycleConfig, SolverTrace, StoppingRule, iterate, vcycle
from .smoothing import prox_grad_step


def solve_alpha(L: float, gamma: float) -> float:
    """Root in (0, 1) of L a^2 = (1 - a) gamma.

    Evaluated as 2 gamma / (gamma + sqrt(gamma^2 + 4 L gamma)), the
    cancellation-free form of (-gamma + sqrt(gamma^2 + 4 L gamma)) / (2 L).
    """
    if not L > 0 or not gamma > 0:  # NaN compares false
        raise ValueError(f"L and gamma must be positive, got L={L}, gamma={gamma}")
    return 2.0 * gamma / (gamma + math.sqrt(gamma * gamma + 4.0 * L * gamma))


def lambda_rate_bound(k: int, gamma0: float, L: float) -> float:
    """Nesterov's decay bound 4L / (2 sqrt(L) + k sqrt(gamma0))^2 for lambda^k.

    Lemma 2.2.4 of Nesterov's *Introductory Lectures* with mu = 0; it is 1 at
    k = 0 and holds for every L and gamma0.
    """
    if not gamma0 > 0 or not L > 0:  # NaN compares false
        raise ValueError(f"gamma0 and L must be positive, got gamma0={gamma0}, L={L}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return 4.0 * L / (2.0 * math.sqrt(L) + k * math.sqrt(gamma0)) ** 2


def phi_bar_update(phi_bar: float, alpha: float, gamma_next: float, L: float,
                   F_x_next: float, g: np.ndarray, z_prev: np.ndarray,
                   y_prev: np.ndarray) -> float:
    """One step of the running estimate-sequence minimum value."""
    gg = float(g.dot(g))
    return ((1.0 - alpha) * phi_bar + alpha * F_x_next
            + 0.5 * alpha * (1.0 / L - alpha / gamma_next) * gg
            + alpha * float(g.dot(z_prev - y_prev)))


@dataclass
class FastState:
    """Auxiliary sequences of the accelerated loop (z0 = x0, lambda0 = 1)."""

    z: np.ndarray
    gamma: float
    lam: float = 1.0
    phi_bar: float = 0.0


def fast_step(stack: LevelStack, state: FastState, x: np.ndarray,
              config: CycleConfig,
              work: list[LevelWork]) -> tuple[np.ndarray, tuple, FastState, dict]:
    """One accelerated iteration; returns (x_next, fg_next, state_next,
    diagnostics), where fg_next is (f, grad f) of the fine smooth part at
    x_next, from the V-cycle that produced it.

    ``config`` and ``work``, the solve's cycle settings and workspace, are
    required: the workspace carries the step estimates from one iteration
    to the next.
    """
    problem = stack.fine.problem
    L = stack.fine.L_est
    alpha = solve_alpha(L, state.gamma)
    gamma_next = (1.0 - alpha) * state.gamma
    y = alpha * state.z + (1.0 - alpha) * x
    f_y, grad_y = problem.smooth.value_and_grad(y)
    w = prox_grad_step(problem, None, y, L, grad_y)
    G_y = L * (y - w)
    F_y = problem.objective(y, f_y)
    x_next, fg_next, ctrace = vcycle(stack, w, config, work=work)
    z_next = state.z - (alpha / gamma_next) * G_y
    F_x_next = ctrace.stage_objectives[-1]
    phi_bar_next = phi_bar_update(state.phi_bar, alpha, gamma_next, L,
                                  F_x_next, G_y, state.z, y)
    diag = {
        "alpha": alpha,
        "alpha_residual": abs(L * alpha * alpha - (1.0 - alpha) * state.gamma),
        "gamma": gamma_next,
        "lam": (1.0 - alpha) * state.lam,
        "phi_bar": phi_bar_next,
        "F_y": F_y,
        "F_x_next": F_x_next,
        "g_norm_y": math.sqrt(G_y.dot(G_y)),
        "G_y": G_y,
        "cycle": ctrace,
    }
    state_next = FastState(z_next, gamma_next, diag["lam"], phi_bar_next)
    return x_next, fg_next, state_next, diag


def _restart_reason(F_x: float, F_next: float, x: np.ndarray, x_next: np.ndarray,
                    z_next: np.ndarray) -> str | None:
    """The first of the two restart tests that fires on an iteration from
    x to x+, or None: ``"function"``, F(x+) > F(x); ``"pullback"``,
    <z+ - x+, x+ - x> < 0.  The module docstring says why there is no
    gradient test."""
    return ("function" if F_next > F_x else
            "pullback" if float((z_next - x_next).dot(x_next - x)) < 0.0 else None)


def fastmgprox_solve(stack: LevelStack, x0: np.ndarray, stop: StoppingRule,
                     config: CycleConfig | None = None) -> tuple[np.ndarray, SolverTrace]:
    """Accelerated multigrid solve with adaptive restart; gamma0 is the fine
    Lipschitz bound.

    An iteration from x to x+ ends its epoch when the first of two tests
    fires (:func:`_restart_reason`): the function test F(x+) > F(x), then
    the pullback test <z+ - x+, x+ - x> < 0.  The next epoch starts at x+
    the way the first one starts at x0: the next step builds its state with
    z = x+, gamma = gamma0, lambda = 1 and phi_bar = F(x+) from the
    driver's record.  The iterations after which one started are
    ``trace.meta["restarts"]``, and ``trace.meta["restart_reasons"]`` names,
    for each, the first of ``"function"`` and ``"pullback"`` that fired.
    The solve keeps its per-level state in a workspace of its own and
    writes no level of the stack.
    """
    config = config or CycleConfig()
    work = workspace(stack, config.step_mode)
    L0 = stack.fine.L_est
    trace = SolverTrace(algorithm="fastmgprox")
    trace.meta.update(step_mode=config.step_mode, gamma0=L0, restarts=[],
                      restart_reasons=[])
    trace.extras = {key: [] for key in ("alpha", "lam", "gamma", "phi_bar", "F_y",
                                        "g_norm_y", "alpha_residual")}
    state = None

    def step(x, fg):
        nonlocal state
        F_x = trace.final_objective
        if state is None:  # an epoch starts: z = x and phi_bar = F(x)
            state = FastState(z=x.copy(), gamma=L0, phi_bar=F_x)
        x_next, fg_next, state, diag = fast_step(stack, state, x, config, work)
        ctrace = diag.pop("cycle")
        for key, series in trace.extras.items():
            series.append(diag[key])
        if reason := _restart_reason(F_x, diag["F_x_next"], x, x_next, state.z):
            state = None
            trace.meta["restarts"].append(trace.iterations + 1)
            trace.meta["restart_reasons"].append(reason)
        return x_next, fg_next, ctrace

    return iterate(trace, stack.fine.problem, x0, stop, step), trace
