"""Workload definitions, one solve at a time, and the checks on each output.

A workload is a fixed list of solves on the penalized obstacle problem.  Every
solve builds its own hierarchy, because a solve writes ``Level.L_smooth`` and
``Level.tau`` into the stack it runs on and a reused stack changes the next
solve's cycle count.  Start points are uniform on [0, 1]^n, drawn from a
PCG64 generator seeded with the seed, as ``proxmg solve`` draws its start.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

import proxmg as pm

N_SMOOTH = 20

# certificates that fail on the obstacle problem at the parent commit; they
# are run and printed with their margins but do not mark a solve as failed
KNOWN_DEFECTS = ("lambda-decay-bound", "alpha-equation")


@dataclass(frozen=True)
class Solve:
    """One solver run.  ``rel_tol > 0`` means solve to tolerance within
    ``max_iters``; ``rel_tol == 0`` means run exactly ``max_iters`` iterations."""

    algo: str           # "mgprox" | "fastmgprox" | "fista" | "proxgrad"
    n_side: int
    lam: float
    levels: int
    max_iters: int
    rel_tol: float
    step_mode: str = "fixed"

    @property
    def to_tolerance(self) -> bool:
        return self.rel_tol > 0.0

    def __str__(self) -> str:
        budget = (f"to rel_tol {self.rel_tol:g}" if self.to_tolerance
                  else f"{self.max_iters} iterations")
        return (f"{self.algo} n={self.n_side} lam={self.lam:g} levels={self.levels} "
                f"{self.step_mode} steps {budget}")

    def sides(self) -> list[int]:
        """Grid side of each level, finest first."""
        sides = [self.n_side]
        for _ in range(self.levels - 1):
            sides.append((sides[-1] - 1) // 2)
        return sides

    def level_of_dim(self) -> dict[int, int]:
        return {side * side: level for level, side in enumerate(self.sides())}


@dataclass(frozen=True)
class Workload:
    """Solves run in turn from each of ``starts`` start points per pass.

    The start points are drawn one after another from one PCG64 stream seeded
    with the seed, so the first is the point ``proxmg solve --seed`` uses.
    More than one start averages out how much the cycle count depends on
    where a solve begins.
    """

    solves: tuple[Solve, ...]
    starts: int = 1

    def start_points(self, seed: int) -> list[np.ndarray]:
        rng = np.random.Generator(np.random.PCG64(seed))
        dim = self.solves[0].n_side ** 2
        return [rng.uniform(0.0, 1.0, size=dim) for _ in range(self.starts)]


WORKLOADS: dict[str, Workload] = {
    # recursion and coarse levels: fixed per-call cost dominates levels 1-4;
    # its cycle count barely moves with the start, so one start suffices
    "deep-n63": Workload((
        Solve("mgprox", 63, 1e-6, 5, 1000, 1e-10, "backtracking"),
    )),
    # contact regime: the only workload with a non-empty adaptive mask, and
    # the only one running the accelerated variant (fixed steps, fixed budget);
    # its mgprox cycle count ranges 77-111 over seeds 0-9, hence three starts
    "contact-n31": Workload((
        Solve("mgprox", 31, 100.0, 4, 1000, 1e-10, "backtracking"),
        Solve("fastmgprox", 31, 100.0, 4, 150, 0.0, "fixed"),
    ), starts=3),
    # one level, no transfer: the arithmetic-bound membrane kernel
    "single-n127": Workload((
        Solve("fista", 127, 1e-6, 1, 1000, 0.0, "backtracking"),
        Solve("proxgrad", 127, 1e-6, 1, 1000, 0.0, "backtracking"),
    )),
}


@dataclass
class SolveResult:
    algo: str
    setup_s: float
    solve_s: float
    iters: int
    final_rel_gnorm: float
    work_units: float
    x_digest: str
    masked_coords: int = 0
    halvings: int = 0
    zero_steps: int = 0
    checks: list = field(default_factory=list)  # CertificateResult, known defects included

    @property
    def failed_checks(self) -> list:
        return [c for c in self.checks if not c.passed and c.name not in KNOWN_DEFECTS]

    def fingerprint(self) -> tuple:
        """What two runs of one solve from one seed must reproduce bit for bit."""
        return (self.iters, self.final_rel_gnorm.hex(), self.x_digest)


def run_solve(solve: Solve, x0: np.ndarray, max_iters: int | None = None):
    """Build a fresh hierarchy and run one solve from x0; returns (setup_s,
    solve_s, stack, x0, x, trace).  Only the build and the solver call are timed."""
    budget = solve.max_iters if max_iters is None else max_iters
    t0 = time.perf_counter()
    stack = pm.build_obstacle_hierarchy(solve.n_side, solve.lam, solve.levels, N_SMOOTH)
    t1 = time.perf_counter()
    stop = pm.StoppingRule(budget, solve.rel_tol)
    t2 = time.perf_counter()
    if solve.algo == "mgprox":
        x, trace = pm.mgprox_solve(stack, x0, stop, pm.CycleConfig(step_mode=solve.step_mode))
    elif solve.algo == "fastmgprox":
        x, trace = pm.fastmgprox_solve(stack, x0, stop, pm.CycleConfig(step_mode=solve.step_mode))
    elif solve.algo == "fista":
        x, trace = pm.fista_solve(stack.fine.problem, x0, stop)
    elif solve.algo == "proxgrad":
        x, trace = pm.proxgrad_solve(stack.fine.problem, x0, stop)
    else:
        raise ValueError(f"unknown algorithm {solve.algo!r}")
    t3 = time.perf_counter()
    return t1 - t0, t3 - t2, stack, x0, x, trace


def _check(name: str, margin: float, detail: str = "") -> pm.CertificateResult:
    return pm.CertificateResult(name, bool(margin >= 0.0), float(margin), detail)


def check_solve(solve: Solve, setup_s: float, solve_s: float, stack, x0, x,
                trace) -> SolveResult:
    """Recompute the accuracy from the returned x and run the certificates.

    Runs outside the timed region.  The relative prox-gradient norm is taken
    at the finest level with the problem's declared Lipschitz bound, the
    solvers' own stopping metric, but from x and x0 rather than the trace.
    """
    problem = stack.fine.problem
    L0 = problem.lipschitz
    finite = bool(np.all(np.isfinite(x)))
    g0 = float(np.linalg.norm(pm.prox_grad_map(problem, None, x0, L0)))
    g = float(np.linalg.norm(pm.prox_grad_map(problem, None, x, L0))) if finite else math.inf
    rel = g / g0
    checks = [_check("finite-output", 0.0 if finite else -1.0)]
    if solve.to_tolerance:
        checks.append(_check("converged", 0.0 if trace.converged else -1.0,
                             f"{trace.iterations} iterations"))
        checks.append(_check("rel-gnorm-within-tol", solve.rel_tol - rel,
                             f"recomputed {rel:.3e} vs tol {solve.rel_tol:g}"))
    else:
        checks.append(_check("iteration-budget", trace.iterations - solve.max_iters,
                             f"{trace.iterations} of {solve.max_iters}"))
        checks.append(_check("rel-gnorm-decreased", 1.0 - rel, f"recomputed {rel:.3e}"))

    multigrid = solve.algo in ("mgprox", "fastmgprox")
    if solve.algo == "mgprox":
        checks += [pm.check_stage_monotonicity(trace), pm.check_angle_condition(trace),
                   pm.check_smoothing_descent(trace),
                   pm.check_work_units(trace, len(stack), stack.n_smooth)]
    elif solve.algo == "fastmgprox":
        checks += pm.check_fast_certificates(trace, trace.meta["gamma0"], stack.fine.L_est)

    result = SolveResult(
        algo=solve.algo, setup_s=setup_s, solve_s=solve_s, iters=trace.iterations,
        final_rel_gnorm=rel,
        # single-level solvers take one finest-level step per iteration, the
        # unit cycle_work_units counts in
        work_units=(sum(pm.cycle_work_units(ct) for ct in trace.cycles) if multigrid
                    else float(trace.iterations)),
        x_digest=hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest(),
        checks=checks)
    if multigrid:
        cfg = pm.CycleConfig()
        for ct in trace.cycles:
            result.masked_coords += sum(ct.mask_counts)
            for alpha in ct.alphas:
                if alpha == 0.0:
                    result.zero_steps += 1
                else:
                    result.halvings += round(math.log2(cfg.alpha_init / alpha))
    return result
