import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from proxmg.certificates import (check_angle_condition, check_fixed_point,
                                 check_smoothing_descent,
                                 check_stage_monotonicity)
from proxmg.cli import SOLVERS
from proxmg.grid import GridLevel
from proxmg.hierarchy import LevelStack, build_obstacle_hierarchy, workspace
from proxmg.membrane import MembraneEnergy, make_obstacle_problem
from proxmg.multigrid import (CycleConfig, StoppingRule, cycle_work_units,
                              mgprox_solve, naive_line_search, vcycle)
from proxmg.nonsmooth import SeparableNonsmooth
from proxmg.oracles import build_chain_hierarchy, reference_solution
from proxmg.problems import (CompositeProblem, QuadraticForm, laplacian_1d,
                             start_points, tilted_objective, tilted_value_change)
from proxmg.smoothing import prox_grad_step


def _quadratic(A, b):
    """F = 0.5 x'Ax - b'x, with A given as a dense list, and no penalty."""
    A = sp.csr_array(np.array(A, dtype=np.float64))
    return CompositeProblem(QuadraticForm(A, np.array(b, dtype=np.float64), 1.0),
                            SeparableNonsmooth.l1(0.0))


def test_line_search_accepts_zero_direction_immediately():
    y = np.array([1.0, 2.0])
    z, alpha = naive_line_search(_quadratic([[1, 0], [0, 1]], [0, 0]), None, y, np.zeros(2))
    assert alpha == 1.0
    assert np.array_equal(z, y)


def test_line_search_halves_an_overshooting_direction():
    problem = _quadratic([[1]], [0])  # F(v) = v^2 / 2
    y = np.array([1.0])
    p = np.array([-100.0])  # descent direction, wildly overscaled
    z, alpha = naive_line_search(problem, None, y, p)
    assert 0.0 < alpha < 1.0
    assert problem.objective(z) <= problem.objective(y)
    assert tilted_value_change(problem, None, y, z) <= 0.0


def test_line_search_uphill_falls_back_to_zero():
    problem = _quadratic([[0]], [0])  # F = 0, so the tilt alone decides
    y, p = np.array([0.0]), np.array([1.0])
    tau = np.array([-1.0])  # the tilted objective is v: any alpha > 0 climbs
    z, alpha = naive_line_search(problem, tau, y, p)
    assert alpha == 0.0
    assert np.array_equal(z, y)


def _terms(rng):
    """(name, term, y) for a smooth part or penalty of each kind."""
    membrane = MembraneEnergy(GridLevel(15))
    quadratic = QuadraticForm(laplacian_1d(64), rng.standard_normal(64), 4.0)
    obstacle = rng.uniform(-0.5, 0.5, 225)
    return [("membrane", membrane, rng.uniform(0.0, 1.0, 225)),
            ("quadratic", quadratic, rng.standard_normal(64)),
            ("hinge", SeparableNonsmooth.hinge(3.0, obstacle), rng.uniform(-1.0, 1.0, 225)),
            ("l1", SeparableNonsmooth.l1(0.5), rng.uniform(-1.0, 1.0, 64))]


def test_value_change_from_a_point_to_itself_is_exactly_zero():
    rng = np.random.Generator(np.random.PCG64(8))
    for name, term, y in _terms(rng):
        for u in (y, np.zeros_like(y), 1e3 * y):
            assert term.value_change(u, u.copy()) == 0.0, name
    problem = make_obstacle_problem(15, 100.0)
    y, tau = rng.uniform(0.0, 1.0, 225), rng.uniform(-1.0, 1.0, 225)
    assert problem.value_change(y, y) == 0.0
    assert tilted_value_change(problem, tau, y, y.copy()) == 0.0


def test_value_change_agrees_with_the_difference_of_values():
    rng = np.random.Generator(np.random.PCG64(9))
    for name, term, y in _terms(rng):
        for scale in (1.0, 1e-3, 1e-8):
            z = y + scale * rng.uniform(-1.0, 1.0, y.shape)
            v_y, v_z = term.value(y), term.value(z)
            rounding = 64 * np.finfo(float).eps * max(1.0, abs(v_y), abs(v_z))
            assert abs(term.value_change(y, z) - (v_z - v_y)) <= rounding, (name, scale)
    problem = make_obstacle_problem(15, 100.0)
    tau = rng.uniform(-1.0, 1.0, 225)
    y = rng.uniform(0.0, 1.0, 225)
    z = y + 1e-3 * rng.uniform(-1.0, 1.0, 225)
    F_y, F_z = tilted_objective(problem, tau, y), tilted_objective(problem, tau, z)
    assert tilted_value_change(problem, tau, y, z) == pytest.approx(F_z - F_y, abs=1e-11)


def test_line_search_accepts_descent_that_the_totals_round_away():
    """Near a minimizer at n = 63 (lam = 1), a prox-gradient step from x
    lowers F by at least |G|^2 / 2L, with G = L (x - T(x)), but by less
    than one ulp of F >= 63^2.  The line search, testing the change
    itself, accepts every such step at alpha = 1; comparing the two totals
    refuses some of them."""
    stack = build_obstacle_hierarchy(63, 1.0, 5, 20)
    problem = stack.fine.problem
    L = problem.lipschitz
    config = CycleConfig(step_mode="backtracking")
    work = workspace(stack, config.step_mode)
    x, fg = next(start_points(0, problem.dim)), None
    checked, refused = 0, 0
    for _ in range(40):  # 40 cycles reach relative |G| 1e-10
        x, fg, _ = vcycle(stack, x, config, fg, work)
        d = prox_grad_step(problem, None, x, L, fg[1]) - x
        bound = -0.5 * L * float(d @ d)  # F(T(x)) - F(x) <= bound
        # below one ulp of F, and above the rounding of the change itself
        if -1e-12 < bound < -1e-14:
            z, alpha = naive_line_search(problem, None, x, d)
            change = tilted_value_change(problem, None, x, z)
            assert alpha == 1.0 and change <= bound, (alpha, change, bound)
            checked += 1
            refused += problem.objective(z) > problem.objective(x)
    assert checked >= 3 and refused >= 1, (checked, refused)


def test_cycle_inherits_the_first_step_descent_guarantee():
    # F after a whole cycle is at least as good as the first smoothing step's bound
    from proxmg.smoothing import prox_grad_map
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    problem = stack.fine.problem
    L = stack.fine.L_est
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(5):
        x = rng.uniform(0, 1, size=49)
        G = np.linalg.norm(prox_grad_map(problem, None, x, L))
        x_next, _, ct = vcycle(stack, x)
        assert problem.objective(x_next) <= problem.objective(x) - G * G / (2 * L) + 1e-12


def test_cycle_config_validation():
    with pytest.raises(ValueError):
        CycleConfig(variant="wcycle")
    with pytest.raises(ValueError, match="step_mode"):
        CycleConfig(step_mode="wild")
    with pytest.raises(ValueError):
        vcycle(build_obstacle_hierarchy(7, 1e-6, 1), np.zeros(49))


def test_cycle_stage_monotonicity_and_angle_condition():
    stack = build_obstacle_hierarchy(15, 1e-6, 3)
    rng = np.random.Generator(np.random.PCG64(1))
    x0 = rng.uniform(0, 1, size=225)
    _, trace = mgprox_solve(stack, x0, StoppingRule(25, 1e-10))
    assert check_stage_monotonicity(trace).passed
    assert check_angle_condition(trace).passed
    assert check_smoothing_descent(trace).passed


def test_a_cycle_trace_records_python_numbers():
    """Every field of a cycle trace is a Python int or float, or a list of
    them, so a trace serializes as JSON as it is; neither an array nor a
    numpy scalar such as np.count_nonzero's would."""
    stack = build_obstacle_hierarchy(15, 100.0, 3)
    rng = np.random.Generator(np.random.PCG64(1))
    _, _, ct = vcycle(stack, rng.uniform(0, 1, size=225))
    assert ct.mask_counts[0] > 0  # a contact cycle: the adaptive mask acts
    counts = {"mask_counts", "smoothing_steps"}
    for f in dataclasses.fields(ct):
        value = getattr(ct, f.name)
        kind = int if f.name in counts else float
        values = value if isinstance(value, list) else [value]
        assert values and all(type(v) is kind for v in values), f.name
    json.dumps(dataclasses.asdict(ct))


def test_a_solve_retains_memory_that_does_not_grow_with_its_cycles():
    """A cycle trace keeps numbers, not points.  A backtracking contact
    solve at n = 31 takes about 90 cycles; with two fine vectors kept per
    cycle it retained 1.5 MiB while its trace was alive, and now about
    0.2 MiB."""
    stack = build_obstacle_hierarchy(31, 100.0, 4)
    x0 = next(start_points(0, stack.fine.problem.dim))
    tracemalloc.start()
    try:
        _, trace = mgprox_solve(stack, x0, StoppingRule(2000, 1e-10),
                                CycleConfig(step_mode="backtracking"))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert trace.converged and len(trace.cycles) == trace.iterations > 50
    assert retained < 0.5 * 2**20, retained


def test_fixed_point_of_one_cycle():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    ref = reference_solution(stack, seed=0)
    results = check_fixed_point(stack, ref.x)
    assert all(r.passed for r in results)
    # nothing is masked at lam = 1e-6, so a check that needs a mask fails
    mask = check_fixed_point(stack, ref.x, masked=True)[-1]
    assert (mask.name, mask.passed, mask.margin) == ("fixed-point-mask", False, 0.0)


def test_corrupted_tau_breaks_the_fixed_point():
    bad = CycleConfig(tau_hook=lambda tau, level: -tau)
    for lam in (1e-6, 100.0):
        stack = build_obstacle_hierarchy(7, lam, 2)
        ref = reference_solution(stack, seed=0)
        results = check_fixed_point(stack, ref.x, bad)
        assert not all(r.passed for r in results), lam


@pytest.mark.parametrize("num_levels", [2, 3, 4])
def test_work_units_stay_under_the_geometric_budget(num_levels):
    stack = build_obstacle_hierarchy(15, 1e-6, num_levels)
    rng = np.random.Generator(np.random.PCG64(2))
    x0 = rng.uniform(0, 1, size=225)
    _, _, ct = vcycle(stack, x0)
    budget = (8.0 / 3.0) * (1.0 - 0.25**num_levels) * stack.n_smooth
    assert cycle_work_units(ct) <= budget
    # and 2.67 fine blocks is the level-independent cap
    assert cycle_work_units(ct) <= 2.67 * stack.n_smooth


def test_solve_with_infinite_tolerance_does_nothing():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    x0 = np.ones(49)
    x, trace = mgprox_solve(stack, x0, StoppingRule(10, float("inf")))
    assert trace.iterations == 0
    assert trace.converged
    assert np.array_equal(x, x0)


def test_solve_converges_and_is_deterministic():
    rng = np.random.Generator(np.random.PCG64(3))
    x0 = rng.uniform(0, 1, size=49)
    xa, ta = mgprox_solve(build_obstacle_hierarchy(7, 1e-6, 2), x0.copy(),
                          StoppingRule(100, 1e-10))
    xb, tb = mgprox_solve(build_obstacle_hierarchy(7, 1e-6, 2), x0.copy(),
                          StoppingRule(100, 1e-10))
    assert ta.converged
    assert np.array_equal(xa, xb)
    assert ta.objectives == tb.objectives


def test_nonconvergence_is_reported_not_raised():
    stack = build_obstacle_hierarchy(7, 1e-6, 2)
    x0 = np.ones(49)
    _, trace = mgprox_solve(stack, x0, StoppingRule(2, 1e-16))
    assert not trace.converged
    assert trace.iterations == 2


def test_kocvara3_equals_mgprox_on_a_smooth_problem():
    def smooth_stack():
        stack = build_obstacle_hierarchy(7, 1e-6, 2)
        return LevelStack([dataclasses.replace(lev, problem=CompositeProblem(
            lev.problem.smooth, SeparableNonsmooth.l1(0.0))) for lev in stack.levels],
            stack.n_smooth)

    rng = np.random.Generator(np.random.PCG64(4))
    x0 = rng.uniform(0, 1, size=49)
    xa, _ = mgprox_solve(smooth_stack(), x0.copy(), StoppingRule(5, 0.0))
    xb, _ = mgprox_solve(smooth_stack(), x0.copy(), StoppingRule(5, 0.0),
                         CycleConfig(variant="kocvara3"))
    assert np.array_equal(xa, xb)


def test_kocvara3_descends_but_lags_mgprox_on_the_obstacle():
    rng = np.random.Generator(np.random.PCG64(5))
    x0 = rng.uniform(0, 1, size=225)
    x_mg, t_mg = mgprox_solve(build_obstacle_hierarchy(15, 1e-6, 3), x0.copy(),
                              StoppingRule(300, 1e-10))
    stack = build_obstacle_hierarchy(15, 1e-6, 3)
    x_k, t_k = mgprox_solve(stack, x0.copy(), StoppingRule(3 * t_mg.iterations, 1e-10),
                            CycleConfig(variant="kocvara3"))
    assert t_mg.converged
    assert check_stage_monotonicity(t_k).passed
    assert (not t_k.converged) or t_k.iterations > t_mg.iterations


def _cycle_evaluations_per_level(monkeypatch, step_mode):
    """MembraneEnergy calls per grid side over one cycle on the n = 15,
    3-level stack from seed 0's start, with the entry pair given."""
    stack = build_obstacle_hierarchy(15, 1e-6, 3, 20)
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.uniform(0, 1, size=stack.fine.problem.dim)
    fg_x = stack.fine.problem.smooth.value_and_grad(x)
    counts = {"grad": {}, "value_and_grad": {}, "value": {}}
    for name in counts:
        def counted(self, u, _name=name, _orig=getattr(MembraneEnergy, name)):
            counts[_name][self._n] = counts[_name].get(self._n, 0) + 1
            return _orig(self, u)
        monkeypatch.setattr(MembraneEnergy, name, counted)
    vcycle(stack, x, CycleConfig(step_mode=step_mode), fg_x)
    return counts


def test_fixed_step_cycle_evaluations_per_level(monkeypatch):
    # a fixed step costs one gradient; the pair (f, grad f) is completed once
    # per smoothing block, not once per step, at the end of every block,
    # and once at the corrected point (for the finest stage record and the
    # first post-smoothing step alike).  The one value call left is the
    # first fine step's F(y1) record
    assert _cycle_evaluations_per_level(monkeypatch, "fixed") == {
        "grad": {15: 38, 7: 38, 3: 19}, "value_and_grad": {15: 3, 7: 4, 3: 2},
        "value": {15: 1}}


def test_backtracking_cycle_evaluations_per_level(monkeypatch):
    # every backtracking step returns its pair, so no stage record evaluates f
    assert _cycle_evaluations_per_level(monkeypatch, "backtracking") == {
        "grad": {}, "value_and_grad": {15: 51, 7: 50, 3: 27}, "value": {}}


@pytest.mark.parametrize("lam", [1e-6, 100.0])
@pytest.mark.parametrize("variant, expected", [
    ("mgprox", {225: 1, 49: 2, 9: 1}),
    ("kocvara3", {225: 1, 49: 1}),
])
def test_each_tau_side_takes_one_subgradient(monkeypatch, lam, variant, expected):
    # each non-coarsest level evaluates its tilted subgradient once, for the
    # fine side of tau and the angle witness alike; mgprox adds one for the
    # coarse side, while kocvara3's coarse side is smooth
    stack = build_obstacle_hierarchy(15, lam, 3)
    x = np.random.Generator(np.random.PCG64(0)).uniform(0, 1, size=stack.fine.problem.dim)
    counts = {}
    orig = SeparableNonsmooth.subgradient

    def counted(self, u):
        counts[len(u)] = counts.get(len(u), 0) + 1
        return orig(self, u)
    monkeypatch.setattr(SeparableNonsmooth, "subgradient", counted)
    vcycle(stack, x, CycleConfig(variant=variant, step_mode="fixed"))
    assert counts == expected


@pytest.mark.parametrize("step_mode", ["fixed", "backtracking"])
def test_the_recorded_witness_is_the_prox_grad_step_at_L_first(step_mode):
    # certify_run rebuilds the first fine step y1 from x, L_first and grad f(x)
    stack = build_obstacle_hierarchy(15, 100.0, 3)
    p = stack.fine.problem
    x = next(start_points(0, p.dim))
    work = workspace(stack, step_mode)
    fg = p.smooth.value_and_grad(x)
    for _ in range(3):
        x_next, fg_next, ct = vcycle(stack, x, CycleConfig(step_mode=step_mode), fg, work)
        y1 = prox_grad_step(p, None, x, ct.L_first, fg[1])
        G = ct.L_first * (x - y1)
        assert np.float64(ct.G_first_sq).tobytes() == np.float64(G @ G).tobytes()
        assert np.float64(ct.F_y_first).tobytes() == np.float64(p.objective(y1)).tobytes()
        x, fg = x_next, fg_next


# SHA-256 prefixes of x and the per-iteration objectives of 12-iteration
# solves from seed 0's start on the n = 15, 3-level stack, with each cycle's
# G_first_sq and F_y_first for mgprox; the cycle takes the first fine step
# outside the smoothing block, and these bytes are those of the step taken
# as the block's first
ONE_STEP_DIGESTS = {
    ('mgprox', 1, 'fixed', 1e-06): "4a4d8c807d54a581",
    ('mgprox', 1, 'fixed', 100.0): "c1bd6576f4140dce",
    ('mgprox', 1, 'backtracking', 1e-06): "ee8c5b43d03ada6f",
    ('mgprox', 1, 'backtracking', 100.0): "fad0d6c1aa219275",
    ('mgprox', 2, 'fixed', 1e-06): "862e6969a5e8d330",
    ('mgprox', 2, 'fixed', 100.0): "e6c99cb5e891382b",
    ('mgprox', 2, 'backtracking', 1e-06): "f20eca073e6e78a9",
    ('mgprox', 2, 'backtracking', 100.0): "fe1a41271e61e119",
    ('fastmgprox', 1, 'fixed', 1e-06): "8eb52445dce6d547",
    ('fastmgprox', 1, 'fixed', 100.0): "8d347a930f4b3176",
    ('fastmgprox', 1, 'backtracking', 1e-06): "827cbb12174fe37d",
    ('fastmgprox', 1, 'backtracking', 100.0): "637b8021ea7506c4",
    ('fastmgprox', 2, 'fixed', 1e-06): "255ae3ce4fa262ea",
    ('fastmgprox', 2, 'fixed', 100.0): "1c9a5358990ef72f",
    ('fastmgprox', 2, 'backtracking', 1e-06): "15b4ac6d8dea9c5e",
    ('fastmgprox', 2, 'backtracking', 100.0): "ba0557c3411eb60b",
}


@pytest.mark.parametrize("lam", [1e-6, 100.0])
@pytest.mark.parametrize("step_mode", ["fixed", "backtracking"])
@pytest.mark.parametrize("n_smooth", [1, 2])
@pytest.mark.parametrize("solver", ["mgprox", "fastmgprox"])
def test_short_smoothing_budgets_keep_their_bytes(solver, n_smooth, step_mode, lam):
    # n_smooth = 1 is the one budget whose fine pre-smoothing block is empty
    # after the first step
    stack = build_obstacle_hierarchy(15, lam, 3, n_smooth)
    x0 = next(start_points(0, stack.fine.problem.dim))
    x, tr = SOLVERS[solver](stack, x0, StoppingRule(12, 0.0), step_mode)
    series = [*tr.objectives]
    if solver == "mgprox":
        series += [v for ct in tr.cycles for v in (ct.G_first_sq, ct.F_y_first)]
    digest = hashlib.sha256(x.tobytes() + np.array(series).tobytes()).hexdigest()[:16]
    assert digest == ONE_STEP_DIGESTS[solver, n_smooth, step_mode, lam]
