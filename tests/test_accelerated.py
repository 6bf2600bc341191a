import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmg.accelerated import (FastState, _restart_reason, fast_step, fastmgprox_solve,
                                lambda_rate_bound, phi_bar_update, solve_alpha)
from proxmg.certificates import check_fast_certificates
from proxmg.cli import SOLVERS
from proxmg.hierarchy import build_obstacle_hierarchy, workspace
from proxmg.membrane import make_obstacle_problem
from proxmg.multigrid import CycleConfig, SolverTrace, StoppingRule
from proxmg.oracles import build_chain_hierarchy, reference_solution
from proxmg.problems import start_points
from proxmg.smoothing import prox_grad_step


def test_alpha_closed_form_values():
    assert solve_alpha(1.0, 1.0) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)
    assert solve_alpha(4.0, 1.0) == pytest.approx((-1 + math.sqrt(17)) / 8, abs=1e-12)
    assert solve_alpha(1.0, 1e-12) < 1e-5
    with pytest.raises(ValueError):
        solve_alpha(0.0, 1.0)
    with pytest.raises(ValueError):
        solve_alpha(1.0, -1.0)


def test_alpha_rejects_a_nan_constant():
    # NaN slips past a plain `<= 0` test, and the root came back NaN
    with pytest.raises(ValueError, match="L and gamma must be positive"):
        solve_alpha(math.nan, 1.0)
    with pytest.raises(ValueError, match="L and gamma must be positive"):
        solve_alpha(1.0, math.nan)


@settings(max_examples=80, deadline=None)
@given(L=st.floats(1e-3, 1e6), gamma=st.floats(1e-9, 1e6))
def test_alpha_solves_its_equation_in_the_unit_interval(L, gamma):
    a = solve_alpha(L, gamma)
    assert 0.0 < a < 1.0
    scale = max(1.0, gamma, L * a * a)
    assert abs(L * a * a - (1.0 - a) * gamma) <= 1e-14 * scale


def test_lambda_rate_bound_examples():
    assert lambda_rate_bound(0, 1.0, 1.0) == pytest.approx(1.0)
    # leading k^2 term: bound(k) * k^2 -> 4 L / gamma0
    assert lambda_rate_bound(10**6, 1.0, 1.0) * 10**12 == pytest.approx(4.0, rel=1e-5)
    with pytest.raises(ValueError):
        lambda_rate_bound(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        lambda_rate_bound(-1, 1.0, 1.0)


def test_lambda_rate_bound_rejects_a_nan_constant():
    # NaN slips past a plain `<= 0` test, and the bound came back NaN
    with pytest.raises(ValueError, match="gamma0 and L must be positive"):
        lambda_rate_bound(1, math.nan, 1.0)
    with pytest.raises(ValueError, match="gamma0 and L must be positive"):
        lambda_rate_bound(1, 1.0, math.nan)


def test_lambda_recursion_stays_under_the_bound_for_unit_constants():
    L = gamma0 = 1.0
    lam, gamma = 1.0, gamma0
    for k in range(1, 201):
        a = solve_alpha(L, gamma)
        gamma *= (1.0 - a)
        lam *= (1.0 - a)
        assert 0.0 < lam < lambda_rate_bound(k, gamma0, L)


@settings(max_examples=60, deadline=None)
@given(L=st.floats(1e-3, 1e6), gamma0=st.floats(1e-3, 1e6))
def test_lambda_recursion_stays_under_the_bound_at_any_scale(L, gamma0):
    lam, gamma = 1.0, gamma0
    for k in range(1, 301):
        a = solve_alpha(L, gamma)
        gamma *= (1.0 - a)
        lam *= (1.0 - a)
        assert 0.0 < lam < lambda_rate_bound(k, gamma0, L)


def test_phi_bar_update_is_inert_for_tiny_alpha():
    g = np.array([0.3, -0.2])
    out = phi_bar_update(5.0, 1e-16, 1.0, 1.0, 4.0, g, np.zeros(2), np.zeros(2))
    assert out == pytest.approx(5.0, rel=1e-12)


def test_first_step_extrapolation_is_trivial():
    stack = build_chain_hierarchy(16, 0.05, 2, 10, seed=1)
    rng = np.random.Generator(np.random.PCG64(1))
    x0 = rng.uniform(0, 1, size=16)
    state = FastState(z=x0.copy(), gamma=stack.fine.L_est,
                      phi_bar=stack.fine.problem.objective(x0))
    # z0 = x0 makes y0 = x0 regardless of alpha
    _, _, _, diag = fast_step(stack, state, x0, CycleConfig(), workspace(stack, "fixed"))
    assert diag["F_y"] == pytest.approx(stack.fine.problem.objective(x0), rel=1e-14)


def test_accelerated_run_certificates():
    stack = build_chain_hierarchy(64, 0.01, 2, 20, seed=0)
    rng = np.random.Generator(np.random.PCG64(0))
    x0 = rng.uniform(0, 1, size=64)
    _, trace = fastmgprox_solve(stack, x0, StoppingRule(200, 0.0))
    assert trace.iterations == 200
    results = check_fast_certificates(trace, trace.meta["gamma0"], stack.fine.L_est)
    for r in results:
        assert r.passed, r.line()
    # z-recursion and lambda bookkeeping are the same formulas the solver ran;
    # spot-check the lambda product against the recorded alphas, epoch by
    # epoch: it starts again from 1 after each restart
    restarts = set(trace.meta["restarts"])
    assert restarts
    lam = 1.0
    for k, (a, l) in enumerate(zip(trace.extras["alpha"], trace.extras["lam"]), start=1):
        lam *= (1.0 - a)
        assert l == pytest.approx(lam, rel=1e-12)
        if k in restarts:
            lam = 1.0


# the problems of the fast scope: the chain, and n = 15 at lam = 1e-6 and 100
UNRESTARTED_STACKS = {
    "chain": lambda: build_chain_hierarchy(64, 0.01, 2, 20, seed=0),
    "n15-lam1e-6": lambda: build_obstacle_hierarchy(15, 1e-6, 3, 20),
    "n15-lam100": lambda: build_obstacle_hierarchy(15, 100.0, 3, 20),
}


@functools.cache
def _unrestarted_run(name):
    """200 iterations of the estimate sequence with no restart, seed 0: one
    epoch, over which Nesterov's bounds are proven with k counted from 1."""
    stack = UNRESTARTED_STACKS[name]()
    return stack, _restarted_run(stack, 200, rule=None)[1]


def test_final_rate_bound_from_the_estimate_sequence():
    for name in UNRESTARTED_STACKS:
        stack, trace = _unrestarted_run(name)
        ref = reference_solution(stack, seed=0)
        x0 = next(start_points(0, stack.fine.problem.dim))
        L = stack.fine.L_est
        gamma0 = trace.meta["gamma0"]
        anchor = (trace.objective_initial - ref.objective
                  + 0.5 * gamma0 * float((x0 - ref.x) @ (x0 - ref.x)))
        for k, F in enumerate(trace.objectives, start=1):
            assert F - ref.objective <= lambda_rate_bound(k, gamma0, L) * anchor + 1e-8, (
                name, k)


@pytest.mark.parametrize("name", list(UNRESTARTED_STACKS))
def test_the_decay_bound_holds_over_an_unrestarted_run(name):
    stack, trace = _unrestarted_run(name)
    assert trace.meta["restarts"] == []
    certs = {r.name: r for r in check_fast_certificates(trace, trace.meta["gamma0"],
                                                        stack.fine.L_est)}
    assert len(certs) == 5 and all(r.passed for r in certs.values()), [
        r.line() for r in certs.values()]
    assert certs["lambda-decay-bound"].detail == "200 iterations"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([1e-6, 1.0, 100.0]),
       scale=st.floats(0.01, 10.0))
def test_gradient_mapping_gives_a_lower_model_of_F(seed, lam, scale):
    # F(u) >= F(T(y)) + <G, u - y> + ||G||^2 / 2L with T(y) the prox-gradient
    # step at y and G = L (y - T(y)): the inequality fast_step's phi_bar rests on
    problem = make_obstacle_problem(7, lam)
    L = problem.smooth.lipschitz
    rng = np.random.Generator(np.random.PCG64(seed))
    y, u = (scale * rng.uniform(-1.0, 1.0, size=problem.dim) for _ in range(2))
    T = prox_grad_step(problem, None, y, L)
    G = L * (y - T)
    F_T = problem.objective(T)
    model = F_T + float(G @ (u - y)) + float(G @ G) / (2.0 * L)
    assert problem.objective(u) >= model - 1e-12 * max(1.0, abs(F_T))


@pytest.mark.parametrize("lam", [1e-6, 100.0])
def test_momentum_moves_z_away_from_the_start(lam):
    stack = build_obstacle_hierarchy(15, lam, 3, 20)
    problem = stack.fine.problem
    x0 = next(start_points(0, problem.dim))
    state = FastState(z=x0.copy(), gamma=stack.fine.L_est, phi_bar=problem.objective(x0))
    work = workspace(stack, "fixed")
    x = x0
    for _ in range(20):
        x, _, state, _ = fast_step(stack, state, x, CycleConfig(), work)
    assert np.linalg.norm(state.z - x0) >= 0.1 * np.linalg.norm(x - x0)


def _chain_run():
    """50 accelerated iterations on the chain problem, seed 0."""
    stack = build_chain_hierarchy(64, 0.01, 2, 20, seed=0)
    _, trace = fastmgprox_solve(stack, next(start_points(0, 64)), StoppingRule(50, 0.0))
    return trace


def test_momentum_from_the_vcycle_output_fails_the_estimate_sequence_bound():
    # the same iteration with z and phi_bar driven by L (y - x+) instead of G(y)
    stack = build_chain_hierarchy(64, 0.01, 2, 20, seed=0)
    problem = stack.fine.problem
    L = stack.fine.L_est
    x = next(start_points(0, problem.dim))
    trace = SolverTrace(algorithm="corrupted", objective_initial=problem.objective(x))
    trace.extras = {"phi_bar": []}
    state = FastState(z=x.copy(), gamma=L, phi_bar=trace.objective_initial)
    work = workspace(stack, "fixed")
    for _ in range(200):
        x_next, _, honest, diag = fast_step(stack, state, x, CycleConfig(), work)
        alpha = diag["alpha"]
        y = alpha * state.z + (1.0 - alpha) * x
        g = L * (y - x_next)
        phi_bar = phi_bar_update(state.phi_bar, alpha, honest.gamma, L,
                                 diag["F_x_next"], g, state.z, y)
        state = FastState(state.z - (alpha / honest.gamma) * g, honest.gamma, honest.lam,
                          phi_bar)
        x = x_next
        trace.objectives.append(diag["F_x_next"])
        trace.extras["phi_bar"].append(phi_bar)
    certs = {r.name: r for r in check_fast_certificates(trace, L, L)}
    assert not certs["estimate-sequence-bound"].passed, certs["estimate-sequence-bound"].line()


def test_alpha_off_by_one_part_in_1e12_fails_the_alpha_equation():
    trace = _chain_run()
    L = gamma0 = trace.meta["gamma0"]
    ex = trace.extras
    # the gamma each step started from: gamma0 at the start of every epoch
    restarts = set(trace.meta["restarts"])
    assert restarts
    gammas = [gamma0, *(gamma0 if k in restarts else g
                        for k, g in enumerate(ex["gamma"], start=1))]

    def residuals(scale):
        return [abs(L * a * a - (1.0 - a) * g)
                for a, g in zip((a * scale for a in ex["alpha"]), gammas)]

    assert residuals(1.0) == ex["alpha_residual"]
    ex["alpha_residual"] = residuals(1.0 + 1e-12)
    certs = {r.name: r for r in check_fast_certificates(trace, gamma0, L)}
    assert not certs["alpha-equation"].passed, certs["alpha-equation"].line()


def test_lambda_decaying_like_one_over_k_fails_the_decay_bound():
    trace = _chain_run()
    # halved steps: prod (1 - alpha_i / 2) decays like 1/k, not 1/k^2
    trace.extras["lam"] = list(np.cumprod([1.0 - a / 2.0 for a in trace.extras["alpha"]]))
    gamma0 = trace.meta["gamma0"]
    certs = {r.name: r for r in check_fast_certificates(trace, gamma0, gamma0)}
    assert not certs["lambda-decay-bound"].passed, certs["lambda-decay-bound"].line()


def _two_tests(F_x, F_next, diag, x, x_next, z_next):
    """The solver's restart rule."""
    return _restart_reason(F_x, F_next, x, x_next, z_next)


def _three_tests(F_x, F_next, diag, x, x_next, z_next):
    """O'Donoghue and Candes's three tests: the solver's two with the
    gradient test <G(y), x+ - x> > 0 between them."""
    d = x_next - x
    return ("function" if F_next > F_x else
            "gradient" if float(diag["G_y"] @ d) > 0.0 else
            "pullback" if float((z_next - x_next) @ d) < 0.0 else None)


def _restarted_run(stack, iters, keep_lam=False, rule=_two_tests, step_mode="fixed"):
    """``fastmgprox_solve``'s loop written out, from the seed-0 start; returns
    (x, trace).  ``rule(F_x, F_next, diag, x, x_next, z_next)`` names the
    restart test that fired, or None; with ``rule`` None the run never
    restarts, and with ``keep_lam`` a restart resets gamma to gamma0 but
    lets lambda carry on."""
    problem = stack.fine.problem
    L = stack.fine.L_est
    x = next(start_points(0, problem.dim))
    F_x = problem.objective(x)
    trace = SolverTrace(algorithm="restarted", objective_initial=F_x)
    trace.meta.update(gamma0=L, restarts=[], restart_reasons=[])
    trace.extras = {key: [] for key in ("alpha", "lam", "gamma", "phi_bar", "F_y",
                                        "g_norm_y", "alpha_residual")}
    state = FastState(z=x.copy(), gamma=L, phi_bar=F_x)
    config, work = CycleConfig(step_mode=step_mode), workspace(stack, step_mode)
    for k in range(1, iters + 1):
        x_next, _, state, diag = fast_step(stack, state, x, config, work)
        for key, series in trace.extras.items():
            series.append(diag[key])
        F_next = diag["F_x_next"]
        if rule and (reason := rule(F_x, F_next, diag, x, x_next, state.z)):
            state = FastState(x_next, L, state.lam if keep_lam else 1.0, F_next)
            trace.meta["restarts"].append(k)
            trace.meta["restart_reasons"].append(reason)
        x, F_x = x_next, F_next
        trace.objectives.append(F_x)
    return x, trace


def test_a_restart_that_keeps_lambda_fails_the_gamma_and_alpha_identities():
    stack = build_obstacle_hierarchy(15, 1e-6, 3, 20)
    L = stack.fine.L_est
    _, honest = _restarted_run(stack, 40)
    _, solved = fastmgprox_solve(stack, next(start_points(0, stack.fine.problem.dim)),
                                 StoppingRule(40, 0.0))
    # the loop above is the solver's: same restarts, same bytes in every series
    assert honest.meta["restarts"] == solved.meta["restarts"] != []
    assert honest.extras == solved.extras and honest.objectives == solved.objectives
    assert all(r.passed for r in check_fast_certificates(honest, L, L))

    certs = {r.name: r for r in check_fast_certificates(_restarted_run(stack, 40, True)[1], L, L)}
    for name in ("gamma-lambda-identity", "alpha-equation"):
        assert not certs[name].passed, certs[name].line()


def test_the_decay_bound_needs_the_epoch_count_on_a_restarted_contact_run():
    # contact-n31's accelerated solve: n = 31, lam = 100, 4 levels, 150 fixed steps
    stack = build_obstacle_hierarchy(31, 100.0, 4, 20)
    _, trace = fastmgprox_solve(stack, next(start_points(0, stack.fine.problem.dim)),
                                StoppingRule(150, 0.0))
    L, gamma0 = stack.fine.L_est, trace.meta["gamma0"]
    assert trace.meta["restarts"]
    certs = {r.name: r for r in check_fast_certificates(trace, gamma0, L)}
    assert all(r.passed for r in certs.values()), [r.line() for r in certs.values()]
    # counting k over the whole run, as if it had never restarted
    trace.meta["restarts"] = []
    global_k = check_fast_certificates(trace, gamma0, L)[0]
    assert global_k.name == "lambda-decay-bound" and not global_k.passed, global_k.line()


def _assert_cycles_within(ratio, n_side, levels, lam, step_mode):
    """Restarted ``fastmgprox`` reaches 1e-10 in at most ``ratio`` times
    ``mgprox``'s cycles, from each of seeds 0-2's first start."""
    stop = StoppingRule(1000, 1e-10)
    for seed in range(3):
        x0 = next(start_points(seed, n_side * n_side))
        cycles = {}
        for name in ("mgprox", "fastmgprox"):
            _, trace = SOLVERS[name](build_obstacle_hierarchy(n_side, lam, levels, 20), x0,
                                     stop, step_mode)
            assert trace.converged, (name, seed, trace.rel_g_norms[-1])
            cycles[name] = trace.iterations
        assert cycles["fastmgprox"] <= ratio * cycles["mgprox"], (seed, cycles)


@pytest.mark.parametrize("n_side, levels", [(15, 3), (31, 4)])
@pytest.mark.parametrize("step_mode", ["fixed", "backtracking"])
def test_restarted_fastmgprox_reaches_the_tolerance_within_half_again_mgprox(
        n_side, levels, step_mode):
    _assert_cycles_within(1.5, n_side, levels, 1e-6, step_mode)


@pytest.mark.parametrize("n_side, levels", [(15, 3), (31, 4)])
def test_restarted_fastmgprox_reaches_the_tolerance_within_mgprox_in_contact(
        n_side, levels):
    # lam = 100, where the momentum can keep F falling while the
    # extrapolation pulls the iterate back toward a stale z; the pullback
    # restart ends those epochs after their first iteration
    _assert_cycles_within(1.0, n_side, levels, 100.0, "fixed")


@pytest.mark.parametrize("ahead", [True, False])
def test_the_pullback_test_ends_an_epoch_when_z_lies_behind_the_step(ahead):
    # a step from x to x+ that lowers F, so the function test stays quiet;
    # z+ lies ahead of x+ along the step or behind it, with a component
    # across the step besides
    x, x_next = np.array([0.5, 0.0, 0.0]), np.array([1.5, 0.5, 0.0])
    step = x_next - x
    z_next = x_next + (0.1 if ahead else -0.1) * step + np.array([0.0, 0.0, 5.0])
    assert _restart_reason(2.0, 1.0, x, x_next, z_next) == (None if ahead else "pullback")
    # the function test comes first
    assert _restart_reason(1.0, 2.0, x, x_next, z_next) == "function"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), L=st.floats(1e-3, 1e6))
def test_at_an_epoch_start_a_step_that_climbs_along_G_fires_the_pullback_test(seed, L):
    # z = x, hence y = x, gamma = gamma0 = L, and z+ = x - (alpha / gamma+) G
    # with L alpha^2 = gamma+, so <z+ - x+, d> = -||d||^2 - <G, d> / (L alpha)
    # for d = x+ - x: a step with <G, d> > 0, which the gradient test would
    # catch, fires the pullback test
    rng = np.random.Generator(np.random.PCG64(seed))
    x, G, d = (rng.uniform(-1.0, 1.0, size=8) for _ in range(3))
    G *= np.sign(G @ d)
    alpha = solve_alpha(L, L)
    z_next = x - (alpha / ((1.0 - alpha) * L)) * G
    x_next = x + d
    assert float((z_next - x_next) @ (x_next - x)) == pytest.approx(
        -float(d @ d) - float(G @ d) / (L * alpha), rel=1e-9)
    assert _restart_reason(2.0, 1.0, x, x_next, z_next) == "pullback"


@pytest.mark.parametrize("lam, step_mode, gradient_at", [
    (100.0, "fixed", [73]), (1e-6, "backtracking", [140, 145])])
def test_the_gradient_test_changes_no_restart(lam, step_mode, gradient_at):
    # n = 15, 3 levels, 200 iterations from seed 0's start at rel_tol 0: near
    # the rounding floor the three tests name the gradient test first, and
    # the pullback test fires there too, so the solver's two tests restart
    # at the same iterations and keep every byte
    stack = build_obstacle_hierarchy(15, lam, 3, 20)
    x_three, three = _restarted_run(stack, 200, rule=_three_tests, step_mode=step_mode)
    x, trace = fastmgprox_solve(stack, next(start_points(0, stack.fine.problem.dim)),
                                StoppingRule(200, 0.0), CycleConfig(step_mode=step_mode))
    reasons = dict(zip(three.meta["restarts"], three.meta["restart_reasons"]))
    assert [k for k, r in reasons.items() if r == "gradient"] == gradient_at
    assert three.meta["restarts"] == trace.meta["restarts"]
    assert three.objectives == trace.objectives and x_three.tobytes() == x.tobytes()


def test_the_pullback_test_ends_the_contact_epochs():
    # n = 15, lam = 100, fixed steps, away from the rounding floor: every
    # iteration ends its epoch, and the pullback test ends most of them
    stack = build_obstacle_hierarchy(15, 100.0, 3, 20)
    _, trace = fastmgprox_solve(stack, next(start_points(0, stack.fine.problem.dim)),
                                StoppingRule(30, 0.0))
    reasons = trace.meta["restart_reasons"]
    assert trace.meta["restarts"] == list(range(1, 31))
    assert set(reasons) <= {"function", "pullback"}
    assert reasons.count("pullback") > len(reasons) / 2, reasons


def test_a_stalled_run_fails_the_accelerated_descent():
    # each F(x+) set to that iteration's F(y): the cycle after the prox step
    # lowered nothing, so F(x+) misses F(y) - ||G(y)||^2/2L
    stack = build_obstacle_hierarchy(15, 1e-6, 3, 20)
    _, trace = fastmgprox_solve(stack, next(start_points(0, stack.fine.problem.dim)),
                                StoppingRule(40, 0.0))
    L = stack.fine.L_est
    certs = {r.name: r for r in check_fast_certificates(trace, trace.meta["gamma0"], L)}
    assert certs["accelerated-descent"].passed, certs["accelerated-descent"].line()
    trace.objectives = list(trace.extras["F_y"])
    certs = {r.name: r for r in check_fast_certificates(trace, trace.meta["gamma0"], L)}
    descent = certs["accelerated-descent"]
    assert not descent.passed and descent.margin < 0.0, descent.line()


def test_the_decay_bound_names_the_longest_epoch():
    trace = SolverTrace(algorithm="restarted")
    trace.objectives = [1.0] * 7
    trace.extras = {"lam": [0.5] * 7}
    trace.meta["restarts"] = [1, 2, 5]
    cert = check_fast_certificates(trace, 1.0, 1.0)[0]
    assert cert.detail == "7 iterations, longest epoch 3"
