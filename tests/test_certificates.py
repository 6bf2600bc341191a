"""The margin rule every reducing certificate shares.

A check holds when each of its margins is non-negative (positive when
strict), reports the least of them, and holds at margin 0 when a run gives
it nothing to check.
"""

import dataclasses

import numpy as np
import pytest

from proxmg import certificates
from proxmg.accelerated import fastmgprox_solve
from proxmg.certificates import (_least, check_angle_condition, check_fast_certificates,
                                 check_linear_rate, check_mgprox_sufficient_descent,
                                 check_converged, check_one_over_k,
                                 check_smoothing_descent, check_stage_monotonicity,
                                 check_work_units)
from proxmg.cli import SOLVERS
from proxmg.hierarchy import build_obstacle_hierarchy
from proxmg.multigrid import SolverTrace, StoppingRule, mgprox_solve
from proxmg.oracles import reference_solution
from proxmg.problems import start_points


@pytest.mark.parametrize("margins, strict, passed, least", [
    ([3.0, 1.0, 2.0], False, True, 1.0),
    ([3.0, -1e-300, 2.0], False, False, -1e-300),
    ([0.0, 2.0], False, True, 0.0),
    ([0.0, 2.0], True, False, 0.0),
    ([2.0, float("nan")], False, False, 2.0),
])
def test_least_holds_when_every_margin_does(margins, strict, passed, least):
    r = _least("c", margins, "d", strict=strict)
    assert (r.passed, r.margin, r.detail) == (passed, least, "d")


def test_an_empty_run_holds_every_reducing_certificate_at_zero():
    stack = build_obstacle_hierarchy(7, 1e-6, 2, 5)
    x0 = next(start_points(0, stack.fine.problem.dim))
    _, mg = mgprox_solve(stack, x0, StoppingRule(0, 1e-10))
    _, fast = fastmgprox_solve(stack, x0, StoppingRule(0, 1e-10))
    assert mg.iterations == fast.iterations == 0
    results = [check_stage_monotonicity(mg), check_angle_condition(mg),
               check_smoothing_descent(mg), check_mgprox_sufficient_descent(mg, [], 0.0),
               check_one_over_k(mg, [], 0.0, stack.fine.L_est),
               check_linear_rate(mg, 0.0, 1.0, stack.fine.L_est),
               check_work_units(mg, len(stack), stack.n_smooth),
               *check_fast_certificates(fast, fast.meta["gamma0"], stack.fine.L_est)]
    assert len(results) == 12
    for r in results:
        assert r.passed and r.margin == 0.0 and np.copysign(1.0, r.margin) == 1.0, r.line()


# the fast certificates that read each series of an accelerated trace
FAST_READERS = {
    "lam": {"lambda-decay-bound", "gamma-lambda-identity", "alpha-equation"},
    "phi_bar": {"estimate-sequence-bound"},
    "gamma": {"gamma-lambda-identity"},
    "alpha_residual": {"alpha-equation"},
    "F_y": {"accelerated-descent"},
    "g_norm_y": {"accelerated-descent"},
    "alpha": set(),
}


def test_fast_certificates_fail_on_a_missing_or_short_series():
    stack = build_obstacle_hierarchy(15, 100.0, 3)
    _, trace = fastmgprox_solve(stack, next(start_points(0, 225)), StoppingRule(20, 0.0))
    gamma0, L = trace.meta["gamma0"], stack.fine.L_est
    assert sorted(trace.extras) == sorted(FAST_READERS)
    assert all(r.passed for r in check_fast_certificates(trace, gamma0, L))

    def failed(extras):
        results = check_fast_certificates(dataclasses.replace(trace, extras=extras), gamma0, L)
        return {r.name: r for r in results if not r.passed}

    for key, readers in FAST_READERS.items():
        without = failed({k: v for k, v in trace.extras.items() if k != key})
        assert set(without) == readers, key
        for r in without.values():
            assert r.margin == float("-inf") and f"{key} holds 0 of 20 entries" in r.detail
    short = failed({**trace.extras, "phi_bar": trace.extras["phi_bar"][:3]})
    assert set(short) == {"estimate-sequence-bound"}
    assert short["estimate-sequence-bound"].detail == "phi_bar holds 3 of 20 entries"


def test_a_run_without_iterations_is_judged_at_its_start():
    # the driver's relative |G| at the start is 1, so a failed certificate
    # cannot report a positive margin
    stack = build_obstacle_hierarchy(15, 1e-6, 3)
    _, trace = mgprox_solve(stack, next(start_points(0, 225)), StoppingRule(0, 1e-10))
    r = check_converged(trace, 1e-10, "c")
    assert not r.passed and r.margin == 1e-10 - 1.0, r.line()
    assert r.detail == "relative |G| 1.000e+00 after 0 iterations"
    # a start with |G(x0)| = 0 has relative |G| 0, as in the driver
    r = check_converged(SolverTrace("t", converged=True), 1e-10, "c")
    assert r.passed and r.margin == 1e-10, r.line()


def test_the_mgprox_scope_draws_further_starts_until_the_runs_total_40_cycles(monkeypatch):
    certify_run = certificates.certify_run

    def five_cycles(stack, x0, stop, ref):
        return certify_run(stack, x0, StoppingRule(min(stop.max_iters, 5), stop.rel_tol), ref)

    monkeypatch.setattr(certificates, "certify_run", five_cycles)
    (cycles,) = [r for r in certificates.verify_mgprox(0) if r.name == "mgprox-cycles"]
    assert cycles.passed
    assert cycles.detail == "5 + 5 + 5 + 5 + 5 + 5 + 5 + 5 = 40 cycles, 40 required"


@pytest.mark.parametrize("seed", [0, 1])
def test_certify_run_solves_as_mgprox_solve_does(seed, monkeypatch):
    # certify_run puts the solve together from mgprox_solve's parts; on the
    # mgprox scope's stack both must give the same bytes, cycle by cycle
    stack = build_obstacle_hierarchy(15, 1e-6, 3)
    ref = reference_solution(stack, seed)
    x0 = next(start_points(seed, stack.fine.problem.dim))
    stop = StoppingRule(400, 1e-10)
    ends, iterate = [], certificates.iterate

    def record(*args):
        ends.append(iterate(*args))
        return ends[-1]

    monkeypatch.setattr(certificates, "iterate", record)
    trace, results = certificates.certify_run(stack, x0, stop, ref)
    x, solved = mgprox_solve(stack, x0, stop)
    assert ends[0].tobytes() == x.tobytes()
    assert trace.converged and trace.iterations == solved.iterations > 0
    assert (trace.algorithm, trace.meta) == (solved.algorithm, solved.meta)
    assert repr(trace.objectives) == repr(solved.objectives)
    assert repr(trace.rel_g_norms) == repr(solved.rel_g_norms)
    assert ([repr(dataclasses.asdict(ct)) for ct in trace.cycles]
            == [repr(dataclasses.asdict(ct)) for ct in solved.cycles])
    assert len(results) == 6 and all(r.passed for r in results), [r.line() for r in results]


@pytest.mark.parametrize("mode", ["fixed", "backtracking"])
def test_kocvara3_fails_the_angle_condition_where_mgprox_passes(mode):
    # the control of angle-condition: kocvara3 drops the subgradient terms
    # from its correction, and at lam = 1 its corrections are not descent
    # directions of F (margins -1.29 fixed, -0.626 backtracking); at
    # lam = 1e-6 it fails only by rounding, and at lam = 100 it passes
    stack = build_obstacle_hierarchy(15, 1.0, 3)
    x0 = next(start_points(0, stack.fine.problem.dim))
    stop = StoppingRule(300, 1e-10)
    coarse, full = (check_angle_condition(SOLVERS[name](stack, x0.copy(), stop, mode)[1])
                    for name in ("kocvara3", "mgprox"))
    assert not coarse.passed and coarse.margin < -0.5, coarse.line()
    assert full.passed, full.line()
