"""Runtime-checkable certificates of the solvers' descent and rate guarantees.

Each check consumes a solver trace (plus, where needed, a high-accuracy
reference point) and returns a pass/fail result with its worst-case margin,
where positive margins mean the inequality held with room to spare.  The
checks deliberately recompute everything from recorded quantities so a
corrupted trace is caught rather than papered over.

``SCOPES`` is the verification suite: each ``proxmg verify`` scope is a
function of the seed that sets up its runs and returns their results.  The
acceptance gate calls the same functions, so the command and the gate check
the same things at the same settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .accelerated import fastmgprox_solve, lambda_rate_bound
from .hierarchy import LevelStack, build_obstacle_hierarchy
from .membrane import make_obstacle_problem
from .multigrid import (CycleConfig, SolverTrace, StoppingRule, cycle_work_units,
                        mgprox_solve, vcycle)
from .nonsmooth import SeparableNonsmooth
from .oracles import (brute_force_prox, build_chain_hierarchy, chain_constants,
                      fd_gradient, reference_solution)

# Tolerances of the checks.  A slack is added to the side of an inequality
# that must be the larger; a relative one is scaled by max(1, |F|).
STAGE_REL_SLACK = 1e-12       # check_stage_monotonicity
ANGLE_P_FLOOR = 1e-10         # check_angle_condition: smaller corrections count as zero
SMOOTHING_REL_SLACK = 1e-12   # check_smoothing_descent
MGPROX_DESCENT_SLACK = 1e-8   # check_mgprox_sufficient_descent
ONE_OVER_K_SLACK = 1e-9       # check_one_over_k
LINEAR_RATE_SLACK = 1e-12     # check_linear_rate
WORK_RATIO = 0.25             # check_work_units: coarse/fine size ratio r
FAST_REL_SLACK = 1e-9         # check_fast_certificates, estimate-sequence bound
FIXED_POINT_MOVE_TOL = 1e-8   # check_fixed_point


@dataclass
class CertificateResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status}  {self.name}  margin={self.margin:.3e}"
        return text + (f"  ({self.detail})" if self.detail else "")


@dataclass
class CertificateReport:
    results: list[CertificateResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def extend(self, results):
        self.results.extend(results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


def check_stage_monotonicity(trace: SolverTrace) -> CertificateResult:
    """Fine-level objective never increases across any stage boundary."""
    worst = np.inf
    for ct in trace.cycles:
        vals = ct.stage_objectives
        scale = max(1.0, abs(vals[0]))
        for a, b in zip(vals, vals[1:]):
            worst = min(worst, (a - b) / scale + STAGE_REL_SLACK)
    passed = worst >= 0.0
    return CertificateResult("stage-monotonicity", bool(passed), float(worst),
                             f"{len(trace.cycles)} cycles")


def check_angle_condition(trace: SolverTrace) -> CertificateResult:
    """<subgradient, correction> < 0 whenever the correction is nonzero."""
    worst = -np.inf
    counted = 0
    for ct in trace.cycles:
        if ct.correction_norms and ct.correction_norms[0] > ANGLE_P_FLOOR:
            counted += 1
            worst = max(worst, ct.angle_products[0])
    if counted == 0:
        return CertificateResult("angle-condition", True, 0.0, "no nonzero corrections")
    return CertificateResult("angle-condition", bool(worst < 0.0), float(-worst),
                             f"{counted} corrections checked")


def check_smoothing_descent(trace: SolverTrace) -> CertificateResult:
    """First smoothing step of each cycle obeys F(y) <= F(x) - ||G(x)||^2/(2L).

    G(x) is reconstructed from the stored step endpoints, G = L (x - y), so
    the check is independent of the solver's own bookkeeping.
    """
    worst = np.inf
    for ct in trace.cycles:
        F_x = ct.stage_objectives[0]
        G = ct.L_first * (ct.x_entry - ct.y_first)
        bound = F_x - float(G @ G) / (2.0 * ct.L_first)
        scale = max(1.0, abs(F_x))
        worst = min(worst, (bound - ct.F_y_first) / scale + SMOOTHING_REL_SLACK)
    if worst is np.inf:
        worst = SMOOTHING_REL_SLACK
    return CertificateResult("smoothing-sufficient-descent", bool(worst >= 0.0),
                             float(worst), f"{len(trace.cycles)} cycles")


def check_mgprox_sufficient_descent(trace: SolverTrace, x_star: np.ndarray,
                                    F_star: float) -> CertificateResult:
    """Per cycle: F(x+) - F* <= (L/2)(||x - x*||^2 - ||y1 - x*||^2) + slack."""
    worst = np.inf
    for ct, F_next in zip(trace.cycles, trace.objectives):
        lhs = F_next - F_star
        dx = float(np.linalg.norm(ct.x_entry - x_star)) ** 2
        dy = float(np.linalg.norm(ct.y_first - x_star)) ** 2
        rhs = 0.5 * ct.L_first * (dx - dy)
        worst = min(worst, rhs - lhs + MGPROX_DESCENT_SLACK)
    return CertificateResult("mgprox-sufficient-descent", bool(worst >= 0.0),
                             float(worst), f"slack={MGPROX_DESCENT_SLACK:g}")


def check_one_over_k(trace: SolverTrace, x_star: np.ndarray, F_star: float,
                     L: float) -> CertificateResult:
    """k * (F(x^k) - F*) stays under the max(8 delta^2 L, initial gap) envelope.

    delta is the largest recorded distance of any iterate (or first smoothing
    point) to the reference, a computable stand-in for the sublevel-set
    diameter the bound is stated with.
    """
    delta = 0.0
    for ct in trace.cycles:
        delta = max(delta,
                    float(np.linalg.norm(ct.x_entry - x_star)),
                    float(np.linalg.norm(ct.y_first - x_star)))
    gap1 = trace.objective_initial - F_star
    envelope = max(8.0 * delta * delta * L, gap1)
    worst = np.inf
    for k, F in enumerate(trace.objectives, start=1):
        worst = min(worst, envelope / k - (F - F_star) + ONE_OVER_K_SLACK)
    return CertificateResult("one-over-k-envelope", bool(worst >= 0.0), float(worst),
                             f"delta={delta:.3e}")


def check_linear_rate(trace: SolverTrace, F_star: float, mu: float,
                      L: float) -> CertificateResult:
    """F(x^{k+1}) - F* <= (1 - mu/L)^k (F(x^1) - F*) for every k.

    x^1 is the starting point, so the k-th recorded objective (the iterate
    after k cycles) is tested against rho^k times the initial gap.
    """
    if not trace.objectives:
        return CertificateResult("linear-rate", True, 0.0, "empty run")
    gap1 = trace.objective_initial - F_star
    rho = 1.0 - mu / L
    worst = np.inf
    for k, F in enumerate(trace.objectives, start=1):
        bound = rho**k * gap1 + LINEAR_RATE_SLACK
        worst = min(worst, bound - (F - F_star))
    return CertificateResult("linear-rate", bool(worst >= 0.0), float(worst),
                             f"rho={rho:.6f}")


def check_work_units(trace: SolverTrace, num_levels: int, n_smooth: int) -> CertificateResult:
    """Per-cycle smoothing work <= (8/3)(1 - r^L) fine smoothing blocks."""
    budget = (8.0 / 3.0) * (1.0 - WORK_RATIO**num_levels) * n_smooth
    worst = np.inf
    for ct in trace.cycles:
        worst = min(worst, budget - cycle_work_units(ct, WORK_RATIO) + 1e-9)
    if worst is np.inf:
        worst = budget
    return CertificateResult("multilevel-work", bool(worst >= 0.0), float(worst),
                             f"budget={budget:.2f} fine steps")


def check_fast_certificates(trace: SolverTrace, gamma0: float,
                            L: float) -> list[CertificateResult]:
    """Estimate-sequence certificates of an accelerated run."""
    lam = trace.extras.get("lam", [])
    phi = trace.extras.get("phi_bar", [])
    alpha = trace.extras.get("alpha", [])
    gamma = trace.extras.get("gamma", [])
    results = []

    worst = np.inf
    prev = 1.0
    for k, l in enumerate(lam, start=1):
        worst = min(worst, lambda_rate_bound(k, gamma0, L) - l, prev - l)
        prev = l
    if worst is np.inf:
        worst = 0.0
    results.append(CertificateResult("lambda-decay-bound", bool(worst > 0.0 or not lam),
                                     float(worst), f"{len(lam)} iterations"))

    worst = np.inf
    for F, p in zip(trace.objectives, phi):
        scale = max(1.0, abs(p))
        worst = min(worst, (p - F) / scale + FAST_REL_SLACK)
    if worst is np.inf:
        worst = FAST_REL_SLACK
    results.append(CertificateResult("estimate-sequence-bound", bool(worst >= 0.0),
                                     float(worst), "F(x^k) <= phi_bar^k"))

    worst = np.inf
    for a, g_next, l_next in zip(alpha, gamma, lam):
        worst = min(worst, 1e-12 - abs(g_next - l_next * gamma0) / max(1.0, g_next))
    if worst is np.inf:
        worst = 0.0
    results.append(CertificateResult("gamma-lambda-identity", bool(worst >= 0.0 or not alpha),
                                     float(worst), "gamma^k = lambda^k gamma0"))

    worst = np.inf
    for resid in trace.extras.get("alpha_residual", []):
        worst = min(worst, 1e-14 - resid)
    if worst is np.inf:
        worst = 0.0
    results.append(CertificateResult("alpha-equation", bool(worst >= 0.0), float(worst),
                                     "L a^2 = (1 - a) gamma"))

    worst = np.inf
    for F_y, gny, F_next in zip(trace.extras.get("F_y", []),
                                trace.extras.get("g_norm_y", []), trace.objectives):
        bound = F_y - gny * gny / (2.0 * L) + 1e-10 * max(1.0, abs(F_y))
        worst = min(worst, bound - F_next)
    if worst is np.inf:
        worst = 0.0
    results.append(CertificateResult("accelerated-descent", bool(worst >= 0.0),
                                     float(worst), "F(x+) <= F(y) - ||G(y)||^2/2L"))
    return results


def check_fixed_point(stack: LevelStack, x_star: np.ndarray,
                      config: CycleConfig | None = None,
                      masked: bool = False) -> list[CertificateResult]:
    """One cycle from the reference point moves nothing, coarse solve included.

    With ``masked``, a fourth result requires a non-empty fine mask, so that
    the adaptive transfers act in the cycle being certified.
    """
    config = config or CycleConfig(coarse_mode="exact")
    x_next, ct = vcycle(stack, x_star, config)
    move = float(np.max(np.abs(x_next - x_star)))
    coarse = max(ct.coarse_moves) if ct.coarse_moves else 0.0
    F0, F1 = ct.stage_objectives[0], ct.stage_objectives[-1]
    rel_F = abs(F1 - F0) / max(1.0, abs(F0))
    results = [
        CertificateResult("fixed-point-fine", bool(move <= FIXED_POINT_MOVE_TOL),
                          float(FIXED_POINT_MOVE_TOL - move), f"inf-norm move {move:.3e}"),
        CertificateResult("fixed-point-coarse", bool(coarse <= FIXED_POINT_MOVE_TOL),
                          float(FIXED_POINT_MOVE_TOL - coarse), f"coarse move {coarse:.3e}"),
        CertificateResult("fixed-point-objective", bool(rel_F <= 1e-10),
                          float(1e-10 - rel_F), f"relative drift {rel_F:.3e}"),
    ]
    if masked:
        mask = ct.mask_counts[0]
        results.append(CertificateResult("fixed-point-mask", mask > 0, float(mask),
                                         f"fine mask {mask} of {x_star.size}"))
    return results


def check_converged(trace: SolverTrace, rel_tol: float, name: str) -> CertificateResult:
    """The run met its relative prox-gradient tolerance within its budget."""
    rel = trace.rel_g_norms[-1] if trace.rel_g_norms else 0.0
    return CertificateResult(name, trace.converged, float(rel_tol - rel),
                             f"relative |G| {rel:.3e} after {trace.iterations} iterations")


def certify_run(trace: SolverTrace, stack: LevelStack, x_star: np.ndarray,
                F_star: float, mu: float | None = None) -> CertificateReport:
    """Aggregate every certificate the trace carries enough data for."""
    report = CertificateReport()
    L = stack.fine.L_est
    if trace.cycles and trace.cycles[0].stage_objectives:
        report.results.append(check_stage_monotonicity(trace))
        report.results.append(check_angle_condition(trace))
        report.results.append(check_smoothing_descent(trace))
        report.results.append(check_mgprox_sufficient_descent(trace, x_star, F_star))
        report.results.append(check_one_over_k(trace, x_star, F_star, L))
        report.results.append(check_work_units(trace, len(stack), stack.n_smooth))
    if mu is not None:
        report.results.append(check_linear_rate(trace, F_star, mu, L))
    if "phi_bar" in trace.extras:
        gamma0 = trace.meta.get("gamma0", L)
        report.extend(check_fast_certificates(trace, gamma0, L))
    return report


# The verification suite: one function per ``proxmg verify`` scope.

def _start(seed: int, dim: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(seed)).uniform(0.0, 1.0, size=dim)


def _obstacle_reference(n_side: int, lam: float, levels: int, seed: int):
    stack = build_obstacle_hierarchy(n_side, lam, levels, 20)
    return stack, reference_solution(stack, tol=1e-12, seed=seed)


def verify_prox(seed: int) -> list[CertificateResult]:
    """Hinge and l1 prox maps against golden section on 500 random draws each."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(500):
        v, lam, c = rng.uniform(-3, 3), rng.uniform(0, 2), rng.uniform(-1, 1)
        step = rng.uniform(0.05, 3)
        bracket = (v - 10 * step * lam - 1, v + 10 * step * lam + 1)
        for g, g_scalar in ((SeparableNonsmooth.hinge(lam, np.array([c])),
                             lambda t: lam * max(c - t, 0.0)),
                            (SeparableNonsmooth.l1(lam), lambda t: lam * abs(t))):
            got = g.prox(np.array([v]), step)[0]
            worst = max(worst, abs(got - brute_force_prox(g_scalar, v, step, bracket)))
    return [CertificateResult("prox-oracle", worst <= 1e-8, 1e-8 - worst,
                              f"1000 cases, max abs error {worst:.2e}")]


def verify_gradient(seed: int) -> list[CertificateResult]:
    """Membrane gradient against central differences, 5 draws per grid size."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for n_side in (3, 7):
        problem = make_obstacle_problem(n_side, 1e-6)
        for _ in range(5):
            u = rng.uniform(0.0, 1.0, size=problem.dim)
            exact = problem.smooth.grad(u)
            approx = fd_gradient(problem.smooth.value, u, 1e-6)
            rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-30)
            worst = max(worst, rel)
    return [CertificateResult("gradient-fidelity", worst <= 1e-6, 1e-6 - worst,
                              f"max rel error {worst:.2e}")]


def verify_fixed_point(seed: int) -> list[CertificateResult]:
    """One exact-coarse cycle from a reference point moves nothing: at
    lam = 1e-6, where nothing is masked, and at lam = 100 ("contact-"),
    where the fine mask must be non-empty."""
    results = []
    for prefix, lam in (("", 1e-6), ("contact-", 100.0)):
        stack, ref = _obstacle_reference(7, lam, 2, seed)
        rel = ref.g_norm / ref.g_norm_initial
        checks = [CertificateResult("reference-accuracy", rel <= 1e-12, 1e-12 - rel,
                                    f"relative |G| {rel:.3e}")]
        checks += check_fixed_point(stack, ref.x, masked=bool(prefix))
        results += [replace(r, name=prefix + r.name) for r in checks]
    return results


def _worst(name: str, results: list[CertificateResult]) -> CertificateResult:
    """One certificate over several runs: passed by all, at the least margin."""
    worst = min(results, key=lambda r: r.margin)
    return CertificateResult(name, all(r.passed for r in results), worst.margin,
                             f"worst of {len(results)} runs: {worst.detail}")


def verify_mgprox(seed: int) -> list[CertificateResult]:
    """Every cycle certificate of the n = 15 solves to 1e-10 from the first
    three start points of the seed's stream, each at its worst margin over
    the three runs.  Together they must take at least 40 cycles, so that the
    certificates see long runs."""
    stack, ref = _obstacle_reference(15, 1e-6, 3, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    per_run: dict[str, list[CertificateResult]] = {}
    cycles = []
    for _ in range(3):
        x0 = rng.uniform(0.0, 1.0, size=stack.fine.problem.dim)
        _, trace = mgprox_solve(stack, x0, StoppingRule(400, 1e-10))
        cycles.append(trace.iterations)
        for r in [check_converged(trace, 1e-10, "mgprox-converged"),
                  *certify_run(trace, stack, ref.x, ref.objective).results]:
            per_run.setdefault(r.name, []).append(r)
    spare = sum(cycles) - 40
    results = [_worst(name, runs) for name, runs in per_run.items()]
    results.insert(1, CertificateResult(
        "mgprox-cycles", spare >= 0, float(spare),
        f"{' + '.join(map(str, cycles))} = {sum(cycles)} cycles, 40 required"))
    return results


def verify_linear_rate(seed: int) -> list[CertificateResult]:
    """The (1 - mu/L)^k envelope over a chain solve run to 1e-12."""
    stack = build_chain_hierarchy(64, 0.01, 2, 20, seed=seed)
    mu, L = chain_constants(stack.fine.problem)
    ref = reference_solution(stack, tol=1e-12, seed=seed)
    _, trace = mgprox_solve(stack, _start(seed, 64), StoppingRule(3000, 1e-12))
    return [check_converged(trace, 1e-12, "linear-rate-converged"),
            check_linear_rate(trace, ref.objective, mu, L)]


def verify_fast(seed: int) -> list[CertificateResult]:
    """Estimate-sequence certificates over 200 accelerated iterations."""
    stack = build_chain_hierarchy(64, 0.01, 2, 20, seed=seed)
    _, trace = fastmgprox_solve(stack, _start(seed, 64), StoppingRule(200, 0.0))
    return check_fast_certificates(trace, trace.meta["gamma0"], stack.fine.L_est)


def _control(name: str, checks: list[CertificateResult], detail: str) -> CertificateResult:
    """Passes when a check of a corrupted run fails; the margin is by how much."""
    caught = not all(c.passed for c in checks)
    return CertificateResult(name, caught, -min(c.margin for c in checks), detail)


def verify_negative_controls(seed: int) -> list[CertificateResult]:
    """The suite must detect corrupted runs: these pass when those fail."""
    stack, ref = _obstacle_reference(7, 1e-6, 2, seed)
    flipped = CycleConfig(coarse_mode="exact", tau_hook=lambda tau, level: -tau)
    tau = check_fixed_point(stack, ref.x, flipped)

    stack, ref = _obstacle_reference(7, 100.0, 2, seed)
    kocvara = CycleConfig(coarse_mode="exact", variant="kocvara3")
    coarse = check_fixed_point(stack, ref.x, kocvara)[1]

    chain = build_chain_hierarchy(64, 0.01, 2, 20, seed=seed)
    _, trace = mgprox_solve(chain, _start(seed, 64), StoppingRule(10, 0.0))
    trace.cycles[3].stage_objectives[2] = trace.cycles[3].stage_objectives[1] + 1.0
    return [
        _control("negative-control-tau", tau, "flipped tau breaks fixed point"),
        _control("negative-control-trace", [check_stage_monotonicity(trace)],
                 "tampered stage fails monotonicity"),
        _control("negative-control-kocvara3", [coarse],
                 "kocvara3 moves the coarse level at the contact x*"),
    ]


SCOPES = {
    "prox": verify_prox,
    "gradient": verify_gradient,
    "fixed-point": verify_fixed_point,
    "mgprox": verify_mgprox,
    "linear-rate": verify_linear_rate,
    "fast": verify_fast,
    "negative-controls": verify_negative_controls,
}
