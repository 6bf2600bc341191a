"""The benchmark's workloads (benches/workloads.py) keep running on the library.

``benches/run.py`` reaches the library through ``workloads.run_solve`` and
``workloads.check_solve``, so a removed name, option or trace field in
``proxmg`` would break the benchmark without failing any other test.  Each
solve of each workload runs here for two iterations from the workload's
first start point; every check passes except those that need the full
budget.  Nothing under ``benches`` is changed and no benchmark is timed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benches"))
import workloads  # noqa: E402

# checks that a two-iteration run cannot meet: the tolerance, and the budget
NEED_FULL_BUDGET = {"converged", "rel-gnorm-within-tol", "iteration-budget"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_solve_of_the_workload_runs_and_checks(name):
    workload = workloads.WORKLOADS[name]
    x0 = workload.start_points(0)[0]
    for solve in workload.solves:
        run = workloads.run_solve(solve, x0, max_iters=2)
        result = workloads.check_solve(solve, *run)
        assert result.iters == 2, solve
        failed = [c.line() for c in result.checks
                  if not c.passed and c.name not in NEED_FULL_BUDGET]
        assert not failed, f"{solve}: {failed}"


FAST_CERTIFICATES = {"lambda-decay-bound", "estimate-sequence-bound", "gamma-lambda-identity",
                     "alpha-equation", "accelerated-descent"}


def test_contact_fastmgprox_passes_every_check_on_its_own():
    # contact-n31's accelerated solve at its full 150 iterations, seed 0's first
    # start; each check must pass by its own result, known defects or not
    workload = workloads.WORKLOADS["contact-n31"]
    (solve,) = [s for s in workload.solves if s.algo == "fastmgprox"]
    run = workloads.run_solve(solve, workload.start_points(0)[0])
    result = workloads.check_solve(solve, *run)
    assert result.iters == solve.max_iters == 150
    assert FAST_CERTIFICATES <= {c.name for c in result.checks}
    failed = [c.line() for c in result.checks if not c.passed]
    assert not failed, failed
