"""The benchmark's passes, metrics and report; run it through run.py.

Imports proxmg, so ``run.import_library()`` must have put this checkout's
``src`` on the path first.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from contextlib import nullcontext

import proxmg as pm
from reference import Reference
from tracer import Tracer
from workloads import (KNOWN_DEFECTS, N_SMOOTH, WORKLOADS, check_solve,
                       run_solve)

WARMUP_ITERS = {"mgprox": 3, "fastmgprox": 3, "fista": 100, "proxgrad": 100}
SETUP_REPS = 10       # extra timed set-ups before each pass
REF_SHARE = 0.25      # reference time after a solve, as a share of the solve
REF_MIN_S = 0.3
TAIL_BEYOND = 10      # samples a tail percentile must have above it
MAX_LEVELS = 5        # deepest workload hierarchy; per-level metrics L0..L4


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


class Run:
    """One workload at one seed: passes, their checked results, and failures."""

    def __init__(self, name: str, seed: int):
        workload = WORKLOADS[name]
        self.solves = workload.solves
        self.starts = workload.start_points(seed)
        self.reference = Reference(self.solves[0].sides())
        self.speed = 1.0                      # host speed at the last reference run
        self.setup_samples: list[float] = []  # calibrated
        self.setup_wall: list[float] = []
        self.factors: list[float] = []        # mean host speed of each pass
        self.passes: list[list] = []          # SolveResult lists
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.expected = None                  # fingerprints of the first pass

    def warm_up(self):
        for solve in self.solves:
            run_solve(solve, self.starts[0], WARMUP_ITERS[solve.algo])
        self.reference.speed(REF_MIN_S)  # lets the reference's own allocations settle
        self.speed = self.reference.speed(REF_MIN_S)

    def time_setup(self) -> list[float]:
        """Wall seconds of SETUP_REPS set-ups of one pass, builds alone."""
        samples = []
        for _ in range(SETUP_REPS):
            total = 0.0
            for s in self.solves * len(self.starts):
                t0 = time.perf_counter()
                pm.build_obstacle_hierarchy(s.n_side, s.lam, s.levels, N_SMOOTH)
                total += time.perf_counter() - t0
            samples.append(total)
        return samples

    def run_pass(self, tracer=None) -> tuple[list, float]:
        """Run every solve once and check the outputs after the last one.

        The reference runs after every solve, so each solve (the first one
        with the set-ups timed before it) lies between two speed readings and
        is scaled by their mean.  Returns the results and the calibrated
        seconds of the pass's solves.
        """
        runs = [(solve, x0) for x0 in self.starts for solve in self.solves]
        setups = self.time_setup()
        raw, speeds = [], [self.speed]
        with tracer.patched() if tracer is not None else nullcontext():
            for solve, x0 in runs:
                raw.append(run_solve(solve, x0))
                speeds.append(self.reference.speed(max(REF_MIN_S, REF_SHARE * raw[-1][1])))
        self.speed = speeds[-1]
        factors = [0.5 * (a + b) for a, b in zip(speeds, speeds[1:])]
        results = [check_solve(solve, *r) for (solve, _), r in zip(runs, raw)]
        del raw
        setups.append(sum(r.setup_s for r in results))
        self.setup_wall += setups
        self.setup_samples += [factors[0] * s for s in setups]
        solve_cal = sum(f * r.solve_s for f, r in zip(factors, results))
        self.factors.append(solve_cal / sum(r.solve_s for r in results))
        tag = "traced pass" if tracer is not None else "pass"
        fingerprints = [r.fingerprint() for r in results]
        if self.expected is None:
            self.expected = fingerprints
        for r, fp, ref in zip(results, fingerprints, self.expected):
            self.attempted += 1
            bad = [c.name for c in r.failed_checks]
            if fp != ref:
                bad.append(f"not reproduced: iters {fp[0]} vs {ref[0]}, "
                           f"final_rel_gnorm {fp[1]} vs {ref[1]}, x equal {fp[2] == ref[2]}")
            if bad:
                self.failed += 1
                self.failures.append(f"{tag} {len(self.passes)} solve {self.attempted}: "
                                     f"{r.algo}: {'; '.join(bad)}")
        self.passes.append(results)
        return results, solve_cal

    def report_solves(self):
        per_start = len(self.solves)
        for i, r in enumerate(self.passes[0]):
            solve = self.solves[i % per_start]
            print(f"start {i // per_start} {solve}: iters={r.iters} "
                  f"final_rel_gnorm={r.final_rel_gnorm:.6e} work_units={r.work_units:g} "
                  f"masked_coords={r.masked_coords}")
            for c in r.checks:
                note = "  [known defect]" if c.name in KNOWN_DEFECTS else ""
                print(f"  {c.line()}{note}")
        for line in self.failures:
            print(f"FAILED {line}")


def end_to_end(run: Run, solve_samples: list[float], solve_wall: list[float]) -> dict:
    first = run.passes[0]
    solve_s = statistics.median(solve_samples)
    iters = sum(r.iters for r in first)
    print(f"calibration: host speed median {statistics.median(run.factors):.4f} of nominal, "
          f"per pass " + " ".join(f"{f:.4f}" for f in run.factors))
    print(f"wall: setup {statistics.median(run.setup_wall):.6f} s median of "
          f"{len(run.setup_wall)} set-ups; solve {statistics.median(solve_wall):.6f} s median "
          f"of {len(solve_wall)} passes: " + " ".join(f"{v:.4f}" for v in solve_wall))
    print(f"samples: setup_s median of {len(run.setup_samples)} set-ups, solve_s median of "
          f"{len(solve_samples)} passes: " + " ".join(f"{v:.4f}" for v in solve_samples))
    t = tail(solve_samples)
    if t is None:
        print(f"solve_s_tail = n/a ({len(solve_samples)} samples; a tail needs "
              f"more than {TAIL_BEYOND})")
    else:
        print(f"solve_s_tail = {t[1]:.6f} s (p{t[0]:.1f} of {len(solve_samples)} samples)")
    print(f"failed_frac = {run.failed / run.attempted:.6f} "
          f"({run.failed} of {run.attempted} solves)")
    return {
        "setup_s": (statistics.median(run.setup_samples), "s"),
        "solve_s": (solve_s, "s"),
        "iters": (iters, "count"),
        "iters_per_s": (iters / solve_s, "1/s"),
        "work_units": (sum(r.work_units for r in first), "count"),
        "final_rel_gnorm": (max(r.final_rel_gnorm for r in first), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LEVELLED = ("smoothing.run_smoothing", "smoothing.backtrack_L", "membrane.value",
            "membrane.grad")
COUNTED = ("smoothing.prox_grad_map", "nonsmooth.prox", "nonsmooth.subdiff",
           "transfer.adaptive_mask", "transfer.restrict_adaptive",
           "transfer.prolong_adaptive", "hierarchy.build_tau",
           "hierarchy.build_obstacle_hierarchy", "multigrid.vcycle",
           "problems.tilted_objective", "accelerated.fast_step",
           "baselines.fista_solve", "baselines.proxgrad_solve")
# timed per-layer metrics: only layers every workload runs, so no time is
# identically zero; the full span table is printed above the result line
TIMED = (("smoothing.backtrack_L", None, True), ("smoothing.backtrack_L", 0, True),
         ("smoothing.prox_grad_map", None, True), ("membrane.value", None, False),
         ("membrane.value", 0, False), ("membrane.grad", None, False),
         ("membrane.grad", 0, False), ("nonsmooth.prox", None, False),
         ("hierarchy.build_obstacle_hierarchy", None, False))


def per_layer(run: Run, stats: list, overhead_s: float) -> dict:
    first = stats[0]
    results = run.passes[0]
    m = {}
    for fn in LEVELLED:
        for lev in range(MAX_LEVELS):
            m[f"{fn}.L{lev}.calls"] = (first.total(first.calls, fn, lev), "count")
    for fn in COUNTED:
        m[f"{fn}.calls"] = (first.total(first.calls, fn), "count")
    m["smoothing.backtrack.doublings"] = (first.backtrack_doublings, "count")
    m["membrane.points"] = (first.membrane_points, "count")
    m["transfer.masked_coords"] = (sum(r.masked_coords for r in results), "count")
    m["multigrid.line_search.calls"] = (first.total(first.calls, "multigrid.line_search"),
                                        "count")
    m["multigrid.line_search.halvings"] = (sum(r.halvings for r in results), "count")
    m["multigrid.line_search.zero_steps"] = (sum(r.zero_steps for r in results), "count")
    m["certificates.checked"] = (sum(len(r.checks) for r in results), "count")
    m["certificates.failed"] = (sum(not c.passed for r in results for c in r.checks), "count")
    for fn, lev, with_self in TIMED:
        stem = fn if lev is None else f"{fn}.L{lev}"
        m[f"{stem}.s"] = (statistics.median(s.total(s.seconds, fn, lev) for s in stats), "s")
        if with_self:
            m[f"{stem}.self_s"] = (statistics.median(s.total(s.self_seconds, fn, lev)
                                                     for s in stats), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def print_span_table(stats: list):
    first = stats[0]
    print(f"{'span':<36} {'level':>5} {'calls':>9} {'s':>10} {'self_s':>10}"
          f"   (median of {len(stats)} traced passes)")
    for key in sorted(first.calls):
        name, lev = key
        secs = statistics.median(s.seconds.get(key, 0.0) for s in stats)
        selfs = statistics.median(s.self_seconds.get(key, 0.0) for s in stats)
        level = f"L{lev}" if lev >= 0 else "-"
        print(f"{name:<36} {level:>5} {first.calls[key]:>9} {secs:>10.4f} {selfs:>10.4f}")


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    """Warm up, then repeat passes until the next one would overrun ``seconds``."""
    run = Run(name, seed)
    run.warm_up()
    tracer = Tracer(run.solves[0].level_of_dim()) if trace else None
    plain, traced, plain_wall, stats = [], [], [], []
    start = time.perf_counter()
    while True:
        use_tracer = trace and len(plain) > len(traced)
        t0 = time.perf_counter()
        if use_tracer:
            tracer.request = len(run.passes)
        results, solve_cal = run.run_pass(tracer if use_tracer else None)
        if use_tracer:
            traced.append(solve_cal)
            for s in tracer.collect().values():
                s.scale(run.factors[-1])
                stats.append(s)
        else:
            plain.append(solve_cal)
            plain_wall.append(sum(r.solve_s for r in results))
        if len(run.passes) < 2:  # a second pass is what checks reproducibility
            continue
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    if not trace:
        run.report_solves()
        return run, end_to_end(run, plain, plain_wall)
    for s in stats[1:]:
        if (s.calls, s.backtrack_doublings) != (stats[0].calls, stats[0].backtrack_doublings):
            run.failed += 1
            run.failures.append("traced passes disagree on per-layer call counts")
    run.report_solves()
    print_span_table(stats)
    overhead = statistics.median(traced) - statistics.median(plain)
    print(f"traced solve_s {statistics.median(traced):.6f} s ({len(traced)} passes), "
          f"untraced {statistics.median(plain):.6f} s ({len(plain)} passes)")
    return run, per_layer(run, stats, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="proxmg benchmark: end-to-end or per-layer metrics")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    run, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
