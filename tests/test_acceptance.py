"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 1-8 and 12-14 run the scopes of ``proxmg verify`` (the table
``proxmg.certificates.SCOPES``) at its default seed 0 and assert on the
certificates they return, so the gate and the command check the same things
at the same settings; each line prints those certificates' margins.  The
wall-clock limits are the gate's own.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import hashlib
import time

import numpy as np
import pytest

from proxmg.certificates import SCOPES
from proxmg.cli import SOLVERS, main
from proxmg.hierarchy import build_obstacle_hierarchy
from proxmg.multigrid import StoppingRule, cycle_work_units, vcycle


def report(num, ok, text):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num}: {text}"


@functools.cache
def run_scope(scope):
    """The scope's certificates by name and its wall time; each scope runs once."""
    start = time.perf_counter()
    results = SCOPES[scope](0)
    return {r.name: r for r in results}, time.perf_counter() - start


def describe(cert):
    return f"{cert.name} margin {cert.margin:.2e} ({cert.detail})"


def report_certificates(num, scope, names, ok=True, note=""):
    certs, _ = run_scope(scope)
    picked = [certs[name] for name in names]
    report(num, ok and all(c.passed for c in picked),
           "; ".join(map(describe, picked)) + note)


def test_criterion_01_prox_oracle_equivalence():
    elapsed = run_scope("prox")[1]
    report_certificates(1, "prox", ["prox-oracle"], elapsed < 10.0, f", {elapsed:.1f}s")


def test_criterion_02_gradient_fidelity():
    report_certificates(2, "gradient", ["gradient-fidelity"])


def test_criterion_03_fixed_point():
    report_certificates(3, "fixed-point", ["reference-accuracy", "fixed-point-fine",
                                           "fixed-point-coarse", "fixed-point-objective"])


def test_criterion_04_angle_condition():
    report_certificates(4, "mgprox", ["mgprox-converged", "mgprox-cycles", "angle-condition"])


def test_criterion_05_stage_monotonicity():
    report_certificates(5, "mgprox", ["stage-monotonicity"])


def test_criterion_06_sufficient_descent_certificate():
    report_certificates(6, "mgprox", ["smoothing-sufficient-descent",
                                      "mgprox-sufficient-descent", "one-over-k-envelope"])


def test_criterion_07_linear_rate():
    elapsed = run_scope("linear-rate")[1]
    report_certificates(7, "linear-rate", ["linear-rate-converged", "linear-rate"],
                        elapsed < 30.0, f", {elapsed:.1f}s")


def test_criterion_08_accelerated_certificates():
    certs, _ = run_scope("fast")
    report_certificates(8, "fast", list(certs),
                        "200 iterations" in certs["lambda-decay-bound"].detail)


def test_criterion_09_benchmark_ordering():
    start = time.perf_counter()
    stack = build_obstacle_hierarchy(15, 1e-6, 3, 20)
    x0 = np.random.Generator(np.random.PCG64(0)).uniform(0.0, 1.0, size=stack.fine.problem.dim)
    _, trace = SOLVERS["mgprox"](stack, x0.copy(), StoppingRule(400, 1e-10), "fixed")
    mg_cycles = trace.iterations
    budget = 10 * mg_cycles + 1
    _, tr_f = SOLVERS["fista"](stack, x0.copy(), StoppingRule(budget, 1e-10), "fixed")
    _, tr_p = SOLVERS["proxgrad"](stack, x0.copy(), StoppingRule(budget, 1e-10), "fixed")
    _, tr_k = SOLVERS["kocvara3"](stack, x0.copy(), StoppingRule(3 * mg_cycles, 1e-10), "fixed")
    elapsed = time.perf_counter() - start
    ok = (trace.converged and mg_cycles <= 200
          and not tr_f.converged and not tr_p.converged
          and (not tr_k.converged or tr_k.iterations > mg_cycles)
          and elapsed < 120.0)
    report(9, ok, f"mgprox {mg_cycles} cycles; fista/proxgrad unconverged at "
                  f"{budget} iters; kocvara3 "
                  f"{'unconverged at ' + str(tr_k.iterations) if not tr_k.converged else str(tr_k.iterations)}"
                  f" cycles; {elapsed:.1f}s")


def test_criterion_10_work_accounting():
    rng = np.random.Generator(np.random.PCG64(2))
    x0 = rng.uniform(0, 1, size=225)
    ok = True
    details = []
    for levels in (2, 3, 4):
        stack = build_obstacle_hierarchy(15, 1e-6, levels, 20)
        _, _, ct = vcycle(stack, x0.copy())
        work = cycle_work_units(ct)
        budget = (8.0 / 3.0) * (1.0 - 0.25**levels) * stack.n_smooth
        ok = ok and work <= budget and work <= 2.67 * stack.n_smooth
        details.append(f"L={levels}: {work:.2f}<={budget:.2f}")
    report_certificates(10, "mgprox", ["multilevel-work"], ok,
                        "; smoothing work within the geometric budget ("
                        + ", ".join(details) + ")")


def test_criterion_11_compare_determinism(tmp_path):
    args = ["compare", "--n-exp", "3", "--levels", "2", "--tol", "1e-8",
            "--seed", "11", "--max-iters", "400"]
    main(args + ["--out-prefix", str(tmp_path / "a")])
    main(args + ["--out-prefix", str(tmp_path / "b")])
    same = all((tmp_path / f"a_{algo}.csv").read_bytes()
               == (tmp_path / f"b_{algo}.csv").read_bytes()
               for algo in ("mgprox", "fastmgprox", "proxgrad", "fista", "kocvara3"))
    report(11, same, "fixed-seed compare runs produce bit-identical CSVs")


def test_criterion_12_negative_controls():
    report_certificates(12, "negative-controls",
                        ["negative-control-tau", "negative-control-trace",
                         "negative-control-contact-tau"])


def test_criterion_13_contact_fixed_point():
    control = run_scope("negative-controls")[0]["negative-control-kocvara3"]
    report_certificates(13, "fixed-point",
                        ["contact-reference-accuracy", "contact-fixed-point-fine",
                         "contact-fixed-point-coarse", "contact-fixed-point-objective",
                         "contact-fixed-point-mask"], control.passed, "; " + describe(control))


def test_criterion_14_lipschitz_bound():
    report_certificates(14, "mgprox", ["lipschitz-bound"])


# SHA-256 of every scope's certificate lines, in SCOPES order, at seed 0:
# the first 31 lines ``proxmg verify`` prints.  A change that moves any
# printed margin (four significant digits) or detail, renames a certificate
# or reorders them breaks it.
VERIFY_LINES_SHA256 = "c098058eea35bad830e2247d6f4298de5bdb8fda83d775d7d0c8635d2400470e"


def test_verify_lines_are_pinned_to_the_bit():
    lines = [r.line() for scope in SCOPES for r in run_scope(scope)[0].values()]
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert (len(lines), digest) == (31, VERIFY_LINES_SHA256), "\n".join(lines)


# SHA-256 of the fast scope's 5 certificate lines at seeds 1 and 2, the
# lines ``proxmg verify --scope fast --seed S`` prints before its summary.
# Their 200-iteration runs reach the rounding floor, where epochs run longer
# than one iteration and the choice of restart tests can show.
FAST_LINES_SHA256 = {
    1: "bec71c3bc7c9aea1394acada0c6626db27b9699f2c1a0e6627fffb49821051aa",
    2: "6b8a6a92f50ecbebe73561a4f9b380942d985bd3dfb95e71df835229d670c54a",
}


@pytest.mark.parametrize("seed", sorted(FAST_LINES_SHA256))
def test_fast_verify_lines_are_pinned_to_the_bit_at_seeds_1_and_2(seed):
    lines = [r.line() for r in SCOPES["fast"](seed)]
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert (len(lines), digest) == (5, FAST_LINES_SHA256[seed]), "\n".join(lines)
