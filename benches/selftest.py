"""Self-test of the benchmark; takes well under a minute.

    python3 benches/selftest.py

Checks that BENCHMARK.json keeps the benchmark contract, that a short run on
a small workload emits exactly the declared metrics in both modes, that the
traced run reaches every wrapped function through the modules that import it
by name and restores all of them afterwards, that traced passes reproduce the
untraced results, and that the output checks catch a corrupted solve and a
solve that does not reproduce.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import run  # pins the thread pools before numpy loads

run.import_library()

import numpy as np  # noqa: E402

import harness  # noqa: E402
import proxmg as pm  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

TINY = workloads.Workload((
    workloads.Solve("mgprox", 15, 100.0, 3, 200, 1e-8, "backtracking"),
    workloads.Solve("fastmgprox", 15, 100.0, 3, 10, 0.0, "fixed"),
    workloads.Solve("fista", 15, 100.0, 1, 20, 0.0, "backtracking"),
    workloads.Solve("proxgrad", 15, 100.0, 1, 20, 0.0, "backtracking"),
), starts=2)

failures: list[str] = []


def expect(cond: bool, what: str):
    print(f"{'ok  ' if cond else 'FAIL'}  {what}")
    if not cond:
        failures.append(what)


def check_contract(bench: dict):
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    cmd = bench["command"]
    expect(1 <= len(cmd) <= 32 and all(len(c) <= 200 and not c.startswith("/")
                                       and ".." not in c for c in cmd),
           "command: at most 32 relative strings")
    expect(1 <= len(bench["paths"]) <= 16
           and all(PATH.match(p) and ".." not in p for p in bench["paths"]),
           "paths: 1 to 16 relative directories")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
           "run_seconds: whole number from 1 to 60")
    wl = bench["workloads"]
    expect(2 <= len(wl) <= 8 and all(set(w) == {"name", "why"} and len(w["why"]) <= 200
                                     and "\n" not in w["why"] for w in wl),
           "workloads: 2 to 8, each a name and a one-line why")
    expect({w["name"] for w in wl} == set(workloads.WORKLOADS),
           "workloads match the runner's definitions")
    e2e, layers = bench["end_to_end"], bench["per_layer"]
    expect(1 <= len(e2e) <= 16 and all(set(m) == {"name", "unit", "better", "bound"}
                                       and 0 < m["bound"] <= 0.25 for m in e2e),
           "end_to_end: 1 to 16 metrics with bounds at most 0.25")
    expect(1 <= len(layers) <= 128 and all(set(m) == {"name", "unit", "better"}
                                           for m in layers),
           "per_layer: 1 to 128 metrics without bounds")
    names = [m["name"] for m in wl + e2e + layers]
    expect(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
           "names are unique and well formed")
    expect(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in e2e + layers), "units and directions are well formed")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in e2e),
           "setup_s is present, in seconds, lower is better, with the largest bound")


def check_notes(notes: dict):
    expect(all(notes["workloads"][name]["starts"] == wl.starts
               for name, wl in workloads.WORKLOADS.items())
           and set(notes["workloads"]) == set(workloads.WORKLOADS),
           "notes.json describes the runner's workloads and their start counts")
    expect({d["certificate"] for d in notes["known_defects"]} == set(workloads.KNOWN_DEFECTS),
           "notes.json lists exactly the known certificate defects")


def check_result(result: dict, declared: list[dict], mode: str):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{mode}: result has exactly the contract keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{mode}: every solve passed its checks")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{mode}: emits exactly the declared metrics with their units")


def run_tiny(trace: int) -> dict:
    from contextlib import redirect_stdout
    from io import StringIO
    buf = StringIO()
    with redirect_stdout(buf):
        harness.main(["--workload", "tiny", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace)])
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_tracer():
    bindings = {}
    for mod_name, attr, _, _ in tracer.TARGETS:
        home = sys.modules[f"proxmg.{mod_name}"]
        if "." in attr:
            cls, meth = attr.split(".")
            bindings[attr] = getattr(home, cls).__dict__[meth]
        else:
            bindings[attr] = getattr(home, attr)
    before = {(m, k): v for m in list(sys.modules.values())
              if getattr(m, "__name__", "").startswith("proxmg")
              for k, v in vars(m).items() if callable(v)}

    tr = tracer.Tracer(TINY.solves[0].level_of_dim())
    x0 = TINY.start_points(3)[0]
    raw = []
    with tr.patched():
        expect(pm.multigrid.run_smoothing is not bindings["run_smoothing"]
               and pm.baselines.backtrack_L is not bindings["backtrack_L"]
               and pm.accelerated.vcycle is not bindings["vcycle"]
               and pm.hierarchy.restrict_adaptive is not bindings["restrict_adaptive"],
               "functions imported by name are patched in the importing modules")
        for s in TINY.solves:
            raw.append(workloads.run_solve(s, x0))
    stats = tr.collect()[0]
    after = {(m, k): v for m in list(sys.modules.values())
             if getattr(m, "__name__", "").startswith("proxmg")
             for k, v in vars(m).items() if callable(v)}
    expect(before == after, "every module binding is restored after the traced run")
    expect(all(pm.MembraneEnergy.__dict__[m] is bindings[f"MembraneEnergy.{m}"]
               for m in ("value", "grad")), "patched methods are restored")
    called = {name for name, _ in stats.calls}
    expect(called == {t[2] for t in tracer.TARGETS}, "every wrapped function was reached")
    expect(all(-1e-9 <= stats.self_seconds[k] <= stats.seconds[k] + 1e-12 for k in stats.calls),
           "self time lies between 0 and the span's time")
    expect(stats.backtrack_doublings >= 0, "backtracking doublings are counted")

    plain = [workloads.run_solve(s, x0) for s in TINY.solves]
    same = all(workloads.check_solve(s, *a).fingerprint()
               == workloads.check_solve(s, *b).fingerprint()
               for s, a, b in zip(TINY.solves, raw, plain))
    expect(same, "traced solves reproduce untraced solves bit for bit")


def check_negative_controls():
    s = TINY.solves[0]
    setup_s, solve_s, stack, x0, x, trace = workloads.run_solve(s, TINY.start_points(3)[0])
    bad = x.copy()
    bad[0] = np.nan
    res = workloads.check_solve(s, setup_s, solve_s, stack, x0, bad, trace)
    expect(bool(res.failed_checks), "a non-finite solution fails its checks")
    res = workloads.check_solve(s, setup_s, solve_s, stack, x0, x0, trace)
    expect(bool(res.failed_checks), "an unconverged solution fails its checks")

    r = harness.Run("tiny", 3)
    r.run_pass()
    r.expected = [(fp[0] + 1,) + fp[1:] for fp in r.expected]
    r.run_pass()
    expect(r.failed == len(TINY.solves) * TINY.starts,
           "a pass that does not reproduce the first is counted failed")


def main() -> int:
    root = Path(run.ROOT)
    bench = json.loads((root / "BENCHMARK.json").read_text())
    check_contract(bench)
    check_notes(json.loads((root / "benches" / "notes.json").read_text()))
    workloads.WORKLOADS["tiny"] = TINY
    check_result(run_tiny(0), bench["end_to_end"], "trace 0")
    check_result(run_tiny(1), bench["per_layer"], "trace 1")
    check_tracer()
    check_negative_controls()
    if failures:
        print(f"selftest: {len(failures)} check(s) failed")
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
