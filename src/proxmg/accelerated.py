"""Momentum-accelerated variant of the V-cycle solver, with its certificates.

Each iteration extrapolates (y = alpha z + (1 - alpha) x), takes a
prox-gradient step at y, runs one V-cycle from there, and updates the
auxiliary point z.  The scalar sequences (alpha, gamma, lambda) and the
running bound phi_bar follow the canonical estimate-sequence recursions:

    L alpha^2 = (1 - alpha) gamma,      gamma+ = (1 - alpha) gamma,
    lambda+ = (1 - alpha) lambda,       g = (y - x+) / L,
    z+ = z - (alpha / gamma+) g,
    phi_bar+ = (1 - alpha) phi_bar + alpha F(x+)
               + (alpha/2) (1/L - alpha/gamma+) ||g||^2 + alpha <g, z - y>.

``F(x^k) <= phi_bar^k`` and ``lambda^k`` under its closed-form decay bound
are the computable witnesses of the accelerated O(1/k^2) rate; both are
recorded every iteration and checked by the verification suite.
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
    if L <= 0 or gamma <= 0:
        raise ValueError("L and gamma must be positive")
    return 2.0 * gamma / (gamma + math.sqrt(gamma * gamma + 4.0 * L * gamma))


def lambda_rate_bound(k: int, gamma0: float, L: float) -> float:
    """Closed-form decay bound for lambda^k (the O(1/k^2) envelope)."""
    if gamma0 <= 0 or L <= 0:
        raise ValueError("gamma0 and L must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    sL, sg = math.sqrt(L), math.sqrt(gamma0)
    den = (2.0 * sL - sg) ** 2 + 2.0 * (2.0 * sL * sg - sg) * sg * k + gamma0 * k * k
    return 4.0 * L / den


def phi_bar_update(phi_bar: float, alpha: float, gamma_next: float, L: float,
                   F_x_next: float, g: np.ndarray, z_prev: np.ndarray,
                   y_prev: np.ndarray) -> float:
    """One step of the running estimate-sequence minimum value."""
    gg = float(g @ g)
    return ((1.0 - alpha) * phi_bar + alpha * F_x_next
            + 0.5 * alpha * (1.0 / L - alpha / gamma_next) * gg
            + alpha * float(g @ (z_prev - y_prev)))


@dataclass
class FastState:
    """Auxiliary sequences of the accelerated loop (z0 = x0, lambda0 = 1)."""

    z: np.ndarray
    gamma: float
    lam: float = 1.0
    phi_bar: float = 0.0


def fast_step(stack: LevelStack, state: FastState, x: np.ndarray,
              config: CycleConfig | None = None,
              work: list[LevelWork] | None = None) -> tuple[np.ndarray, FastState, dict]:
    """One accelerated iteration; returns (x_next, state_next, diagnostics).

    ``work`` is the solve's workspace; a step run without one starts from a
    fresh workspace.
    """
    config = config or CycleConfig()
    if work is None:
        work = workspace(stack, config.step_mode)
    problem = work[0].problem
    L = stack.fine.L_est
    alpha = solve_alpha(L, state.gamma)
    gamma_next = (1.0 - alpha) * state.gamma
    y = alpha * state.z + (1.0 - alpha) * x
    f_y, grad_y = problem.smooth.value_and_grad(y)
    w = prox_grad_step(problem, None, y, L, grad_y, work[0])
    G_y = L * (y - w)
    F_y = problem.objective(y, f_y)
    x_next, ctrace = vcycle(stack, w, config, work=work)
    g = (y - x_next) / L
    z_next = state.z - (alpha / gamma_next) * g
    F_x_next = ctrace.stage_objectives[-1]
    phi_bar_next = phi_bar_update(state.phi_bar, alpha, gamma_next, L,
                                  F_x_next, g, state.z, y)
    diag = {
        "alpha": alpha,
        "alpha_residual": abs(L * alpha * alpha - (1.0 - alpha) * state.gamma),
        "gamma": gamma_next,
        "lam": (1.0 - alpha) * state.lam,
        "phi_bar": phi_bar_next,
        "F_y": F_y,
        "F_x_next": F_x_next,
        "g_norm_y": float(np.linalg.norm(G_y)),
        "cycle": ctrace,
    }
    state_next = FastState(z_next, gamma_next, diag["lam"], phi_bar_next)
    return x_next, state_next, diag


def fastmgprox_solve(stack: LevelStack, x0: np.ndarray, stop: StoppingRule,
                     config: CycleConfig | None = None) -> tuple[np.ndarray, SolverTrace]:
    """Accelerated multigrid solve; gamma0 is the fine Lipschitz bound.

    The solve keeps its per-level state in a workspace of its own and only
    reads the stack.
    """
    config = config or CycleConfig()
    work = workspace(stack, config.step_mode)
    L0 = stack.fine.L_est
    trace = SolverTrace(algorithm="fastmgprox")
    trace.meta.update(step_mode=config.step_mode, gamma0=L0)
    trace.extras = {key: [] for key in ("alpha", "lam", "gamma", "phi_bar", "F_y",
                                        "g_norm_y", "alpha_residual")}
    state = None

    def step(x, fg):
        nonlocal state
        if state is None:  # z0 = x0 and phi_bar0 = F(x0)
            state = FastState(z=x.copy(), gamma=L0, phi_bar=trace.objective_initial)
        x_next, state, diag = fast_step(stack, state, x, config, work)
        ctrace = diag.pop("cycle")
        for key, series in trace.extras.items():
            series.append(diag[key])
        return x_next, ctrace.pop_exit(), diag["F_x_next"], ctrace

    return iterate(trace, work[0], x0, stop, step), trace
