"""Ordering of the solvers at a larger grid, mirroring the benchmark table,
the V-cycle's cycle count under mesh refinement, and its cycle count in
contact (lam = 100)."""

import itertools

import numpy as np
import pytest

from proxmg.cli import SOLVERS
from proxmg.hierarchy import build_obstacle_hierarchy
from proxmg.multigrid import StoppingRule
from proxmg.problems import start_points


def test_multigrid_is_fastest_in_iterations_on_the_63_grid():
    stack = build_obstacle_hierarchy(63, 1e-6, 5, 20)
    rng = np.random.Generator(np.random.PCG64(0))
    x0 = rng.uniform(0, 1, size=stack.fine.problem.dim)
    _, tr = SOLVERS["mgprox"](stack, x0.copy(), StoppingRule(600, 1e-10), "backtracking")
    assert tr.converged
    stop = StoppingRule(10 * tr.iterations + 1, 1e-10)
    for name in ("fista", "proxgrad"):
        assert not SOLVERS[name](stack, x0.copy(), stop, "fixed")[1].converged, name


def _cycles(n_side, num_levels, step_mode):
    stack = build_obstacle_hierarchy(n_side, 1e-6, num_levels, 20)
    x0 = np.random.Generator(np.random.PCG64(0)).uniform(0, 1, size=stack.fine.problem.dim)
    _, tr = SOLVERS["mgprox"](stack, x0, StoppingRule(600, 1e-10), step_mode)
    assert tr.converged
    return tr.iterations


def test_cycle_count_is_mesh_independent():
    """Refining 15 -> 127 (3 -> 6 levels) at most doubles the cycles to 1e-10.

    This holds only while the transfers match the membrane's boundary: with
    the free edges at i = 1 and j = 1 treated as clamped, the count grows
    from 30 at n = 15 to beyond 600 at n = 127.
    """
    coarse, fine = _cycles(15, 3, "backtracking"), _cycles(127, 6, "backtracking")
    assert fine <= 2 * coarse, (coarse, fine)


def test_fixed_step_cycle_count_is_mesh_independent():
    """The same with fixed 1/L steps, which holds only while each level's L
    tracks its curvature: with sqrt(3) n^2 / h, about 27 times the curvature
    at n = 127, the count grows from 18 at n = 15 to 280 at n = 127."""
    coarse, fine = _cycles(15, 3, "fixed"), _cycles(127, 6, "fixed")
    assert fine <= 2 * coarse, (coarse, fine)


def _contact_cycles(n_side, num_levels, seed, starts, rel_tol, budget):
    """Backtracking cycles at lam = 100 from the seed's first ``starts``
    start points; a solve that misses rel_tol counts as None."""
    stack = build_obstacle_hierarchy(n_side, 100.0, num_levels, 20)
    counts = []
    for x0 in itertools.islice(start_points(seed, n_side * n_side), starts):
        _, tr = SOLVERS["mgprox"](stack, x0, StoppingRule(budget, rel_tol), "backtracking")
        counts.append(tr.iterations if tr.converged else None)
    return counts


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_side, num_levels", [(7, 2), (15, 3)])
def test_contact_solve_reaches_1e_12(n_side, num_levels, seed):
    """In contact, backtracking mgprox reaches relative |G| 1e-12 within 200
    cycles (11 at n = 7, 27 at n = 15).  While the line search compared two
    rounded totals of F, none of these solves got there within 2 000
    cycles; the best they reached was 2.3e-12 to 1.0e-11."""
    counts = _contact_cycles(n_side, num_levels, seed, 1, 1e-12, 200)
    assert None not in counts, counts


@pytest.mark.parametrize("seed", [0, 4])
def test_contact_n31_cycles_stay_under_95(seed):
    """The benchmark's contact-n31 solve (n = 31, 4 levels, to 1e-10) from
    the seed's three starts: 88 / 84 / 86 cycles at seed 0 and 88 / 88 / 88
    at seed 4.  With the line search on two rounded totals of F they were
    104 / 90 / 125 and 115 / 213 / 90."""
    counts = _contact_cycles(31, 4, seed, 3, 1e-10, 95)
    assert None not in counts, counts
