"""Runtime-checkable certificates of the solvers' descent and rate guarantees.

Each check consumes a solver trace (plus, where needed, a high-accuracy
reference) and returns a pass/fail result with its margin: the least
slack of the inequalities it tests, positive where they held with room to
spare.  A check passes when that slack is non-negative (positive for the
strict ones), and a run with nothing to check holds at margin 0.  The
checks deliberately recompute everything from recorded quantities so a
corrupted trace is caught rather than papered over.

A cycle trace records numbers only, no point.  The checks that need the
distances of a cycle's points to the reference x* take them from
:func:`certify_run`, which runs the ``mgprox`` solve itself with a step
that measures them as each cycle ends.

``SCOPES`` is the verification suite: each ``proxmg verify`` scope is a
function of the seed that sets up its runs and returns their results.  The
acceptance gate calls the same functions, so the command and the gate check
the same things at the same settings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .accelerated import fastmgprox_solve, lambda_rate_bound
from .hierarchy import LevelStack, build_obstacle_hierarchy, workspace
from .membrane import build_difference_operators, make_obstacle_problem
from .multigrid import (WORK_RATIO, CycleConfig, SolverTrace, StoppingRule,
                        cycle_work_units, iterate, mgprox_solve, vcycle)
from .nonsmooth import SeparableNonsmooth
from .oracles import (Reference, brute_force_prox, build_chain_hierarchy,
                      chain_constants, fd_gradient, reference_solution)
from .problems import start_points
from .smoothing import prox_grad_step

# Tolerances of the checks.  A slack is added to the side of an inequality
# that must be the larger; a relative one is scaled by max(1, |F|).
STAGE_REL_SLACK = 1e-12       # check_stage_monotonicity
ANGLE_P_FLOOR = 1e-10         # check_angle_condition: smaller corrections count as zero
SMOOTHING_REL_SLACK = 1e-12   # check_smoothing_descent
MGPROX_DESCENT_SLACK = 1e-8   # check_mgprox_sufficient_descent
ONE_OVER_K_SLACK = 1e-9       # check_one_over_k
LINEAR_RATE_SLACK = 1e-12     # check_linear_rate
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


def _least(name: str, margins, detail: str, strict: bool = False) -> CertificateResult:
    """Holds when every margin is >= 0 (> 0 when ``strict``); reports the least.

    A run with nothing to check holds at margin 0.0.
    """
    margins = [float(m) for m in margins]
    passed = all(m > 0.0 if strict else m >= 0.0 for m in margins)
    return CertificateResult(name, passed, min(margins, default=0.0), detail)


def check_stage_monotonicity(trace: SolverTrace) -> CertificateResult:
    """Fine-level objective never increases across any stage boundary."""
    return _least("stage-monotonicity",
                  ((a - b) / max(1.0, abs(ct.stage_objectives[0])) + STAGE_REL_SLACK
                   for ct in trace.cycles
                   for a, b in zip(ct.stage_objectives, ct.stage_objectives[1:])),
                  f"{len(trace.cycles)} cycles")


def check_angle_condition(trace: SolverTrace) -> CertificateResult:
    """<subgradient, correction> < 0 whenever the correction is nonzero."""
    margins = [-ct.angle_products[0] for ct in trace.cycles
               if ct.correction_norms and ct.correction_norms[0] > ANGLE_P_FLOOR]
    return _least("angle-condition", margins, f"{len(margins)} corrections checked",
                  strict=True)


def check_smoothing_descent(trace: SolverTrace) -> CertificateResult:
    """First smoothing step of each cycle obeys F(y) <= F(x) - ||G(x)||^2/(2L).

    ||G(x)||^2 is the cycle's record, formed from the step's endpoints as
    G = L (x - y), so the check is independent of the smoothing step's own
    bookkeeping.
    """
    def margin(ct):
        F_x = ct.stage_objectives[0]
        bound = F_x - ct.G_first_sq / (2.0 * ct.L_first)
        return (bound - ct.F_y_first) / max(1.0, abs(F_x)) + SMOOTHING_REL_SLACK

    return _least("smoothing-sufficient-descent", map(margin, trace.cycles),
                  f"{len(trace.cycles)} cycles")


def check_mgprox_sufficient_descent(trace: SolverTrace, distances: list[tuple],
                                    F_star: float) -> CertificateResult:
    """Per cycle: F(x+) - F* <= (L/2)(||x - x*||^2 - ||y1 - x*||^2) + slack.

    ``distances`` holds each cycle's (||x - x*||, ||y1 - x*||), as
    :func:`certify_run` records them.
    """
    return _least("mgprox-sufficient-descent",
                  (0.5 * ct.L_first * (dx**2 - dy**2) - (F - F_star) + MGPROX_DESCENT_SLACK
                   for ct, (dx, dy), F in zip(trace.cycles, distances, trace.objectives)),
                  f"slack={MGPROX_DESCENT_SLACK:g}")


def check_one_over_k(trace: SolverTrace, distances: list[tuple], F_star: float,
                     L: float) -> CertificateResult:
    """k * (F(x^k) - F*) stays under the max(8 delta^2 L, initial gap) envelope.

    delta is the largest of the cycles' ``distances`` (see
    :func:`check_mgprox_sufficient_descent`): of any iterate or first
    smoothing point to the reference, a computable stand-in for the
    sublevel-set diameter the bound is stated with.
    """
    delta = max((d for pair in distances for d in pair), default=0.0)
    envelope = max(8.0 * delta * delta * L, trace.objective_initial - F_star)
    return _least("one-over-k-envelope",
                  (envelope / k - (F - F_star) + ONE_OVER_K_SLACK
                   for k, F in enumerate(trace.objectives, start=1)),
                  f"delta={delta:.3e}")


def check_linear_rate(trace: SolverTrace, F_star: float, mu: float,
                      L: float) -> CertificateResult:
    """F(x^{k+1}) - F* <= (1 - mu/L)^k (F(x^1) - F*) for every k.

    x^1 is the starting point, so the k-th recorded objective (the iterate
    after k cycles) is tested against rho^k times the initial gap.
    """
    gap1 = trace.objective_initial - F_star
    rho = 1.0 - mu / L
    return _least("linear-rate",
                  (rho**k * gap1 + LINEAR_RATE_SLACK - (F - F_star)
                   for k, F in enumerate(trace.objectives, start=1)),
                  f"rho={rho:.6f}")


def check_work_units(trace: SolverTrace, num_levels: int, n_smooth: int) -> CertificateResult:
    """Per-cycle smoothing work <= (8/3)(1 - r^L) fine smoothing blocks,
    with r = ``WORK_RATIO``."""
    budget = (8.0 / 3.0) * (1.0 - WORK_RATIO**num_levels) * n_smooth
    return _least("multilevel-work",
                  (budget - cycle_work_units(ct) + 1e-9 for ct in trace.cycles),
                  f"budget={budget:.2f} fine steps")


def _lambda_decay_margins(lam: list[float], restarts, gamma0: float, L: float):
    """Nesterov's bound and monotone decay for each lambda^k, with k and the
    previous lambda counted from the start of the iteration's epoch: an
    epoch starts at lambda = 1 after each iteration listed in ``restarts``."""
    restarts = set(restarts)
    k, prev = 0, 1.0
    for i, l in enumerate(lam, start=1):
        k += 1
        yield lambda_rate_bound(k, gamma0, L) - l
        yield prev - l
        k, prev = (0, 1.0) if i in restarts else (k, l)


def check_fast_certificates(trace: SolverTrace, gamma0: float,
                            L: float) -> list[CertificateResult]:
    """Estimate-sequence certificates of an accelerated run, epoch by epoch.

    The iterations after which the run restarted its estimate sequence are
    ``trace.meta["restarts"]``.  A restart resets gamma and lambda together
    and phi_bar to F(x+), so only the decay bound needs the epochs; the
    other four hold per iteration.  The decay bound's detail names the
    longest epoch of a restarted run, the largest k it was tested at.  A
    certificate fails at margin -inf, and names the series, when a series
    it reads from ``trace.extras`` does not hold one entry per iteration.
    """
    ex = trace.extras
    lam = ex.get("lam", [])
    restarts = trace.meta.get("restarts", [])
    epochs = f", longest epoch {np.diff([0, *restarts, len(lam)]).max()}" if restarts else ""

    def least(name, keys, margins, detail, strict=False):
        short = "; ".join(f"{k} holds {len(ex.get(k, []))} of {trace.iterations} entries"
                          for k in keys if len(ex.get(k, [])) != trace.iterations)
        return (CertificateResult(name, False, float("-inf"), short) if short
                else _least(name, margins, detail, strict))

    return [
        least("lambda-decay-bound", ["lam"], _lambda_decay_margins(lam, restarts, gamma0, L),
              f"{len(lam)} iterations{epochs}", strict=True),
        least("estimate-sequence-bound", ["phi_bar"],
              ((p - F) / max(1.0, abs(p)) + FAST_REL_SLACK
               for F, p in zip(trace.objectives, ex.get("phi_bar", []))),
              f"F(x^k) <= phi_bar^k, {len(restarts)} restarts"),
        least("gamma-lambda-identity", ["gamma", "lam"],
              (1e-12 - abs(g - l * gamma0) / max(1.0, g)
               for g, l in zip(ex.get("gamma", []), lam)),
              "gamma^k = lambda^k gamma0"),
        least("alpha-equation", ["alpha_residual", "lam"],
              (1e-14 - r / (gamma0 * l) for r, l in zip(ex.get("alpha_residual", []), lam)),
              "L a^2 = (1 - a) gamma, relative to gamma0 lambda^k"),
        least("accelerated-descent", ["F_y", "g_norm_y"],
              (F_y - gny * gny / (2.0 * L) + 1e-10 * max(1.0, abs(F_y)) - F_next
               for F_y, gny, F_next in zip(ex.get("F_y", []), ex.get("g_norm_y", []),
                                           trace.objectives)),
              "F(x+) <= F(y) - ||G(y)||^2/2L"),
    ]


def check_fixed_point(stack: LevelStack, x_star: np.ndarray,
                      config: CycleConfig | None = None,
                      masked: bool = False) -> list[CertificateResult]:
    """One cycle of the solvers (``mgprox_solve``'s cycle, unless ``config``
    changes it) from the reference point moves nothing, coarse level
    included.

    With ``masked``, a fourth result requires a non-empty fine mask, so that
    the adaptive transfers act in the cycle being certified.
    """
    x_next, _, ct = vcycle(stack, x_star, config)
    move = float(np.max(np.abs(x_next - x_star)))
    coarse = max(ct.coarse_moves) if ct.coarse_moves else 0.0
    F0, F1 = ct.stage_objectives[0], ct.stage_objectives[-1]
    rel_F = abs(F1 - F0) / max(1.0, abs(F0))
    results = [
        _least("fixed-point-fine", [FIXED_POINT_MOVE_TOL - move], f"inf-norm move {move:.3e}"),
        _least("fixed-point-coarse", [FIXED_POINT_MOVE_TOL - coarse],
               f"coarse move {coarse:.3e}"),
        _least("fixed-point-objective", [1e-10 - rel_F], f"relative drift {rel_F:.3e}"),
    ]
    if masked:
        mask = ct.mask_counts[0]
        results.append(_least("fixed-point-mask", [mask], f"fine mask {mask} of {x_star.size}",
                              strict=True))
    return results


def check_lipschitz_bound(stack: LevelStack) -> CertificateResult:
    """Each level's step bound L_est is at least lambda_max(D^T D + E^T E).

    That operator is the membrane energy's Hessian at u = 0 and bounds it
    everywhere (see ``lipschitz_upper_bound``), so a fixed 1/L_est step
    obeys the descent lemma only when this holds.  lambda_max comes from
    ``numpy.linalg.eigvalsh`` on the dense form of the operator built from
    the sparse difference operators, not from the stencil.  The dense form
    takes n_side^4 doubles and n_side^6 operations, so this check is for
    small grids such as ``verify``'s n = 15.  The margin is the least
    L_est - lambda_max over the levels, and the detail lists each.
    """
    margins = []
    for lev in stack.levels:
        D, E = build_difference_operators(lev.problem.smooth.grid)
        margins.append(lev.L_est - np.linalg.eigvalsh((D.T @ D + E.T @ E).toarray())[-1])
    sides = "/".join(str(lev.problem.smooth.grid.n_side) for lev in stack.levels)
    return _least("lipschitz-bound", margins, f"margins at n = {sides}: "
                  + " / ".join(f"{m:.3e}" for m in margins))


def check_converged(trace: SolverTrace, rel_tol: float, name: str) -> CertificateResult:
    """The run met its relative prox-gradient tolerance within its budget.

    A run of no iterations is judged at its start (``final_rel_g_norm``).
    """
    rel = trace.final_rel_g_norm
    return CertificateResult(name, trace.converged, float(rel_tol - rel),
                             f"relative |G| {rel:.3e} after {trace.iterations} iterations")


def certify_run(stack: LevelStack, x0: np.ndarray, stop: StoppingRule,
                ref: Reference) -> tuple[SolverTrace, list[CertificateResult]]:
    """An ``mgprox`` solve of ``stack`` from x0, and its cycle certificates
    against the reference ``ref``; returns (trace, certificates).

    The solve is ``mgprox_solve``'s, put together from the same parts, with
    a step that also records each cycle's distances (||x - x*||,
    ||y1 - x*||).  y1, the first fine smoothing step's output, is rebuilt
    from the cycle's x, its pair (f, grad f) and the L that step accepted:
    at the finest level there is no tilt, and the step's descent is
    ``prox_grad_step`` at that L, so y1 comes out with the step's bytes.
    """
    config = CycleConfig()
    work = workspace(stack, config.step_mode)
    distances = []

    def step(x, fg):
        x_next, fg_next, ct = vcycle(stack, x, config, fg, work)
        y_first = prox_grad_step(work[0].problem, None, x, ct.L_first, fg[1])
        distances.append((float(np.linalg.norm(x - ref.x)),
                          float(np.linalg.norm(y_first - ref.x))))
        return x_next, fg_next, ct

    trace = SolverTrace(algorithm=config.variant, meta={"step_mode": config.step_mode})
    iterate(trace, stack.fine.problem, x0, stop, step)
    return trace, [check_stage_monotonicity(trace), check_angle_condition(trace),
                   check_smoothing_descent(trace),
                   check_mgprox_sufficient_descent(trace, distances, ref.objective),
                   check_one_over_k(trace, distances, ref.objective, stack.fine.L_est),
                   check_work_units(trace, len(stack), stack.n_smooth)]


# The verification suite: one function per ``proxmg verify`` scope.

def _obstacle_reference(n_side: int, lam: float, levels: int, seed: int):
    stack = build_obstacle_hierarchy(n_side, lam, levels, 20)
    return stack, reference_solution(stack, seed)


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
    return [_least("prox-oracle", [1e-8 - worst], f"1000 cases, max abs error {worst:.2e}")]


def verify_gradient(seed: int) -> list[CertificateResult]:
    """Membrane gradient against central differences, 5 draws per grid size."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for n_side in (3, 7):
        problem = make_obstacle_problem(n_side, 1e-6)
        for _ in range(5):
            u = rng.uniform(0.0, 1.0, size=problem.dim)
            exact = problem.smooth.grad(u)
            approx = fd_gradient(problem.smooth.value, u)
            rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-30)
            worst = max(worst, rel)
    return [_least("gradient-fidelity", [1e-6 - worst], f"max rel error {worst:.2e}")]


def verify_fixed_point(seed: int) -> list[CertificateResult]:
    """One of the solvers' cycles from a reference point moves nothing: at
    lam = 1e-6, where nothing is masked, and at lam = 100 ("contact-"),
    where the fine mask must be non-empty."""
    results = []
    for prefix, lam in (("", 1e-6), ("contact-", 100.0)):
        stack, ref = _obstacle_reference(7, lam, 2, seed)
        checks = [_least("reference-accuracy", [1e-12 - ref.rel_g_norm],
                         f"relative |G| {ref.rel_g_norm:.3e}")]
        checks += check_fixed_point(stack, ref.x, masked=bool(prefix))
        results += [replace(r, name=prefix + r.name) for r in checks]
    return results


def _worst(runs: list[list[CertificateResult]]) -> list[CertificateResult]:
    """Each certificate over several runs: passed by all, at the least margin.

    Every run lists the same certificates in the same order.  The detail is
    the worst run's, and says how many runs there were unless every run
    reports the same detail.
    """
    merged = []
    for results in zip(*runs):
        worst = min(results, key=lambda r: r.margin)
        detail = worst.detail
        if len({r.detail for r in results}) > 1:
            detail = f"worst of {len(results)} runs: {detail}"
        merged.append(CertificateResult(worst.name, all(r.passed for r in results),
                                        worst.margin, detail))
    return merged


def verify_mgprox(seed: int) -> list[CertificateResult]:
    """Every cycle certificate of n = 15 solves to 1e-10, each at its worst
    margin over the runs.  The runs start from the seed's stream of start
    points, at least three of them, and further starts are drawn until the
    runs total 40 cycles, so that the certificates see long runs however
    fast the cycle is.  Last, the stack's step bounds against the
    curvature, level by level."""
    stack, ref = _obstacle_reference(15, 1e-6, 3, seed)
    runs = []
    cycles = []
    starts = start_points(seed, stack.fine.problem.dim)
    while len(cycles) < 3 or sum(cycles) < 40:
        trace, certs = certify_run(stack, next(starts), StoppingRule(400, 1e-10), ref)
        cycles.append(trace.iterations)
        runs.append([check_converged(trace, 1e-10, "mgprox-converged"), *certs])
    spare = sum(cycles) - 40
    results = _worst(runs)
    results.insert(1, _least("mgprox-cycles", [spare], f"{' + '.join(map(str, cycles))} = "
                             f"{sum(cycles)} cycles, 40 required"))
    return results + [check_lipschitz_bound(stack)]


def verify_linear_rate(seed: int) -> list[CertificateResult]:
    """The (1 - mu/L)^k envelope over a chain solve run to 1e-12."""
    stack = build_chain_hierarchy(64, 0.01, 2, 20, seed=seed)
    mu, L = chain_constants(stack.fine.problem)
    ref = reference_solution(stack, seed)
    _, trace = mgprox_solve(stack, next(start_points(seed, 64)), StoppingRule(3000, 1e-12))
    return [check_converged(trace, 1e-12, "linear-rate-converged"),
            check_linear_rate(trace, ref.objective, mu, L)]


def verify_fast(seed: int) -> list[CertificateResult]:
    """Estimate-sequence certificates over 200 accelerated iterations from
    the seed's first start point: on the chain problem, and on the n = 15
    obstacle problem (3 levels, fixed steps) at lam = 1e-6 and at lam = 100,
    where the mask is non-empty.  Each is reported at its worst margin over
    the three runs.  Their epochs longer than one iteration all start once
    |G| is exactly 0 (longest 1 / 52 / 6 at seed 0), so ``lambda-decay-bound``
    tests k > 1 only on an iterate that no longer moves; the test suite runs
    it over an unrestarted, moving run."""
    stacks = [build_chain_hierarchy(64, 0.01, 2, 20, seed=seed),
              *(build_obstacle_hierarchy(15, lam, 3, 20) for lam in (1e-6, 100.0))]
    runs = []
    for stack in stacks:
        x0 = next(start_points(seed, stack.fine.problem.dim))
        _, trace = fastmgprox_solve(stack, x0, StoppingRule(200, 0.0))
        runs.append(check_fast_certificates(trace, trace.meta["gamma0"], stack.fine.L_est))
    return _worst(runs)


def _control(name: str, checks: list[CertificateResult], detail: str) -> CertificateResult:
    """Passes when a check of a corrupted run fails; the margin is by how much."""
    caught = not all(c.passed for c in checks)
    return CertificateResult(name, caught, -min(c.margin for c in checks), detail)


def verify_negative_controls(seed: int) -> list[CertificateResult]:
    """The suite must detect corrupted runs: these pass when those fail."""
    flipped = CycleConfig(tau_hook=lambda tau, level: -tau)
    stack, ref = _obstacle_reference(7, 1e-6, 2, seed)
    tau = check_fixed_point(stack, ref.x, flipped)

    stack, ref = _obstacle_reference(7, 100.0, 2, seed)
    contact_tau = check_fixed_point(stack, ref.x, flipped)[1]
    coarse = check_fixed_point(stack, ref.x, CycleConfig(variant="kocvara3"))[1]

    chain = build_chain_hierarchy(64, 0.01, 2, 20, seed=seed)
    _, trace = mgprox_solve(chain, next(start_points(seed, 64)), StoppingRule(10, 0.0))
    trace.cycles[3].stage_objectives[2] = trace.cycles[3].stage_objectives[1] + 1.0
    return [
        _control("negative-control-tau", tau, "flipped tau breaks fixed point"),
        _control("negative-control-trace", [check_stage_monotonicity(trace)],
                 "tampered stage fails monotonicity"),
        _control("negative-control-kocvara3", [coarse],
                 "kocvara3 moves the coarse level at the contact x*"),
        _control("negative-control-contact-tau", [contact_tau],
                 "flipped tau moves the coarse level at the contact x*"),
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
