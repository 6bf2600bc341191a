"""Command-line harness: run solvers, compare them, run the certificate suite.

Subcommands
-----------
solve    run one solver on one problem, write a CSV trace, print a summary
compare  run all five solvers from the same start, print a comparison table
verify   run the certificate suite at desk scale; exit 0 iff everything holds

CSV schema: ``iter,time_s,objective,rel_prox_grad_norm,coarse_alpha`` with a
header row, scientific notation with 15 significant digits.  The time column
is left empty unless ``--wall-time`` is passed, so that fixed-seed runs are
bit-identical; ``coarse_alpha`` is empty for single-level solvers.

Starting points are drawn uniformly from [0, 1]^n with numpy's PCG64
generator seeded by ``--seed``, so runs are reproducible and portable.

Exit codes: 0 success, 1 solve/certificate failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from .accelerated import fastmgprox_solve
from .baselines import fista_solve, proxgrad_solve
from .certificates import (CertificateReport, CertificateResult,
                           check_fast_certificates, check_fixed_point,
                           check_linear_rate, check_stage_monotonicity,
                           certify_run)
from .hierarchy import build_obstacle_hierarchy
from .membrane import make_obstacle_problem
from .multigrid import CycleConfig, StoppingRule, mgprox_solve
from .nonsmooth import SeparableNonsmooth
from .oracles import (brute_force_prox, build_chain_hierarchy, chain_constants,
                      fd_gradient, reference_solution)
ALGORITHMS = ("mgprox", "fastmgprox", "proxgrad", "fista", "kocvara3")


@dataclass
class RunConfig:
    problem: str = "eop"
    n_exp: int = 4
    lam: float = 1e-6
    levels: int = 3
    smoothing: int = 20
    algorithm: str = "mgprox"
    tol: float = 1e-10
    max_iters: int = 100000
    seed: int = 0
    step_mode: str = "fixed"
    out: str | None = None

    def fine_size(self) -> int:
        return (2**self.n_exp - 1) ** 2 if self.problem == "eop" else 2**self.n_exp


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _load_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and #-comments ignored."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxmg",
        description="Multigrid proximal-gradient solvers and their benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_algo: bool):
        p.add_argument("--config", help="key=value file; explicit flags override it")
        p.add_argument("--problem", choices=("eop", "synthetic"), default=None,
                       help="obstacle benchmark or quadratic+l1 test problem")
        p.add_argument("--n-exp", type=_positive_int, default=None, metavar="M",
                       help="size exponent: grid side 2^M - 1 (eop) or n = 2^M (synthetic)")
        p.add_argument("--lam", type=_positive_float, default=None,
                       help="nonsmooth penalty weight (default 1e-6 for eop)")
        p.add_argument("--levels", type=_positive_int, default=None,
                       help="number of levels in the hierarchy (default 3)")
        p.add_argument("--smoothing", type=_positive_int, default=None, metavar="N",
                       help="pre/post smoothing steps per level (default 20)")
        if with_algo:
            p.add_argument("--algo", choices=ALGORITHMS, default=None)
        p.add_argument("--tol", type=_positive_float, default=None,
                       help="relative prox-gradient-map tolerance (default 1e-10)")
        p.add_argument("--max-iters", type=_positive_int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--step-mode", choices=("fixed", "backtracking"), default=None)
        p.add_argument("--wall-time", action="store_true",
                       help="write wall-clock seconds into the CSV time column "
                            "(sacrifices bit-identical output)")

    ps = sub.add_parser("solve", help="run one solver and write its trace")
    add_common(ps, with_algo=True)
    ps.add_argument("--out", default=None, help="CSV trace path")

    pc = sub.add_parser("compare", help="run all five solvers from one start")
    add_common(pc, with_algo=False)
    pc.add_argument("--out-prefix", default="compare",
                    help="per-solver CSVs are written to <prefix>_<algo>.csv")

    pv = sub.add_parser("verify", help="run the certificate suite")
    pv.add_argument("--scope", default="all",
                    choices=("all", "prox", "gradient", "fixed-point", "mgprox",
                             "linear-rate", "fast", "negative-controls"))
    pv.add_argument("--seed", type=int, default=0)
    return parser


def _merge_config(args, defaults: RunConfig, keys) -> RunConfig:
    cfg = RunConfig(**vars(defaults))
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    casts = {"n_exp": int, "levels": int, "smoothing": int, "max_iters": int,
             "seed": int, "lam": float, "tol": float}
    for key, value in file_values.items():
        if key == "algo":
            key = "algorithm"
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, casts.get(key, str)(value))
    for key in keys:
        flag = getattr(args, "algo" if key == "algorithm" else key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    return cfg


def _draw_start(cfg: RunConfig, dim: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    return rng.uniform(0.0, 1.0, size=dim)


def _setup(cfg: RunConfig):
    """Returns (problem, stack); the stack is None when levels cannot be built."""
    if cfg.problem == "eop":
        n_side = 2**cfg.n_exp - 1
        stack = build_obstacle_hierarchy(n_side, cfg.lam, cfg.levels, cfg.smoothing)
        return stack.fine.problem, stack
    stack = build_chain_hierarchy(2**cfg.n_exp, cfg.lam, cfg.levels, cfg.smoothing,
                                  seed=cfg.seed)
    return stack.fine.problem, stack


def _run_algorithm(algo: str, problem, stack, x0, cfg: RunConfig):
    stop = StoppingRule(cfg.max_iters, cfg.tol)
    if algo in ("mgprox", "kocvara3", "fastmgprox"):
        cycle_cfg = CycleConfig(variant="kocvara3" if algo == "kocvara3" else "mgprox",
                                step_mode=cfg.step_mode)
        if algo == "fastmgprox":
            return fastmgprox_solve(stack, x0, stop, cycle_cfg)
        return mgprox_solve(stack, x0, stop, cycle_cfg)
    if algo == "proxgrad":
        return proxgrad_solve(problem, x0, stop)
    if algo == "fista":
        return fista_solve(problem, x0, stop)
    raise ValueError(f"unknown algorithm {algo!r}")


def _write_csv(path: str, trace, wall_time: bool):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iter,time_s,objective,rel_prox_grad_norm,coarse_alpha\n")
        for k in range(trace.iterations):
            t = f"{trace.times[k]:.6f}" if wall_time else ""
            alpha = trace.coarse_alphas[k]
            a = "" if alpha is None else f"{alpha:.15e}"
            fh.write(f"{k + 1},{t},{trace.objectives[k]:.15e},"
                     f"{trace.rel_g_norms[k]:.15e},{a}\n")


_SOLVE_KEYS = ("problem", "n_exp", "lam", "levels", "smoothing", "algorithm",
               "tol", "max_iters", "seed", "step_mode")


def cmd_solve(args) -> int:
    cfg = _merge_config(args, RunConfig(), _SOLVE_KEYS)
    if args.out is not None:
        cfg.out = args.out
    problem, stack = _setup(cfg)
    x0 = _draw_start(cfg, problem.dim)
    x, trace = _run_algorithm(cfg.algorithm, problem, stack, x0, cfg)
    if cfg.out:
        _write_csv(cfg.out, trace, args.wall_time)
    final_rel = trace.rel_g_norms[-1] if trace.rel_g_norms else 0.0
    gap = (problem.objective(x) - trace.best_objective()) / abs(trace.objective_initial)
    mode_note = f" step_mode={trace.meta['step_mode']}" if "step_mode" in trace.meta else ""
    print(f"{cfg.algorithm}: iterations={trace.iterations} rel_norm={final_rel:.3e} "
          f"rel_gap={gap:.3e} converged={trace.converged}{mode_note}")
    return 0 if trace.converged else 1


def cmd_compare(args) -> int:
    cfg = _merge_config(args, RunConfig(step_mode="backtracking"),
                        tuple(k for k in _SOLVE_KEYS if k != "algorithm"))
    x0 = _draw_start(cfg, cfg.fine_size())
    # solvers keep their per-solve state in workspaces of their own, so they
    # share one stack and no row depends on the run order
    problem, stack = _setup(cfg)
    results = {}
    for algo in ALGORITHMS:
        start = time.perf_counter()
        x, trace = _run_algorithm(algo, problem, stack, x0.copy(), cfg)
        elapsed = time.perf_counter() - start
        results[algo] = (x, trace, elapsed)
        _write_csv(f"{args.out_prefix}_{algo}.csv", trace, args.wall_time)
    f_min = min(res[1].best_objective() for res in results.values())
    f_ini = abs(next(iter(results.values()))[1].objective_initial)
    print(f"problem={cfg.problem} n={problem.dim} lam={cfg.lam:g} levels={cfg.levels} "
          f"smoothing={cfg.smoothing} tol={cfg.tol:g} seed={cfg.seed} "
          f"step_mode={cfg.step_mode}")
    print(f"{'algorithm':<12} {'iterations':>10} {'time_s':>10} {'(F - F_min)/F_ini':>18}")
    for algo, (x, trace, elapsed) in results.items():
        gap = (problem.objective(x) - f_min) / f_ini
        iters = f"{trace.iterations}" if trace.converged else f">{trace.iterations}"
        print(f"{algo:<12} {iters:>10} {elapsed:>10.2f} {gap:>18.3e}")
    return 0


def _verify_prox(seed: int) -> list[CertificateResult]:
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(200):
        v, lam, c, step = rng.uniform(-3, 3), rng.uniform(0, 2), rng.uniform(-1, 1), rng.uniform(0.1, 3)
        hinge = SeparableNonsmooth.hinge(lam, np.array([c]))
        got = hinge.prox(np.array([v]), step)[0]
        want = brute_force_prox(lambda t: lam * max(c - t, 0.0), v, step,
                                bracket=(v - 10 * step * lam - 1, v + 10 * step * lam + 1))
        worst = max(worst, abs(got - want))
        l1 = SeparableNonsmooth.l1(lam)
        got = l1.prox(np.array([v]), step)[0]
        want = brute_force_prox(lambda t: lam * abs(t), v, step,
                                bracket=(v - 10 * step * lam - 1, v + 10 * step * lam + 1))
        worst = max(worst, abs(got - want))
    return [CertificateResult("prox-oracle", worst <= 1e-8, 1e-8 - worst,
                              f"max abs error {worst:.2e}")]


def _verify_gradient(seed: int) -> list[CertificateResult]:
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for n_side in (3, 7):
        problem = make_obstacle_problem(n_side, 1e-6)
        for _ in range(3):
            u = rng.uniform(0.0, 1.0, size=problem.dim)
            exact = problem.smooth.grad(u)
            approx = fd_gradient(problem.smooth.value, u, 1e-6)
            rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-30)
            worst = max(worst, rel)
    return [CertificateResult("gradient-fidelity", worst <= 1e-6, 1e-6 - worst,
                              f"max rel error {worst:.2e}")]


def _verify_fixed_point(seed: int, corrupt_tau: bool = False) -> list[CertificateResult]:
    stack = build_obstacle_hierarchy(7, 1e-6, 2, 20)
    ref = reference_solution(stack, tol=1e-12, seed=seed)
    hook = (lambda tau, level: -tau) if corrupt_tau else None
    cfg = CycleConfig(coarse_mode="exact", tau_hook=hook)
    return check_fixed_point(stack, ref.x, cfg)


def _verify_mgprox(seed: int) -> list[CertificateResult]:
    stack = build_obstacle_hierarchy(15, 1e-6, 3, 20)
    ref = reference_solution(stack, tol=1e-12, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    x0 = rng.uniform(0.0, 1.0, size=stack.fine.problem.dim)
    _, trace = mgprox_solve(stack, x0, StoppingRule(45, 1e-16))
    return certify_run(trace, stack, ref.x, ref.objective).results


def _verify_linear_rate(seed: int) -> list[CertificateResult]:
    stack = build_chain_hierarchy(64, 0.01, 2, 20, seed=seed)
    mu, L = chain_constants(stack.fine.problem)
    ref = reference_solution(stack, tol=1e-12, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    x0 = rng.uniform(0.0, 1.0, size=64)
    _, trace = mgprox_solve(stack, x0, StoppingRule(2000, 1e-12))
    return [check_linear_rate(trace, ref.objective, mu, L)]


def _verify_fast(seed: int) -> list[CertificateResult]:
    stack = build_chain_hierarchy(64, 0.01, 2, 20, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    x0 = rng.uniform(0.0, 1.0, size=64)
    _, trace = fastmgprox_solve(stack, x0, StoppingRule(200, 0.0))
    return check_fast_certificates(trace, trace.meta["gamma0"], stack.fine.L_est)


def _verify_negative_controls(seed: int) -> list[CertificateResult]:
    """The suite must detect corrupted runs: these checks pass when those fail."""
    fp = _verify_fixed_point(seed, corrupt_tau=True)
    tau_caught = not all(r.passed for r in fp)
    stack = build_chain_hierarchy(64, 0.01, 2, 20, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    x0 = rng.uniform(0.0, 1.0, size=64)
    _, trace = mgprox_solve(stack, x0, StoppingRule(10, 0.0))
    trace.cycles[3].stage_objectives[2] = trace.cycles[3].stage_objectives[1] + 1.0
    mono_caught = not check_stage_monotonicity(trace).passed
    return [
        CertificateResult("negative-control-tau", tau_caught,
                          1.0 if tau_caught else -1.0, "flipped tau breaks fixed point"),
        CertificateResult("negative-control-trace", mono_caught,
                          1.0 if mono_caught else -1.0, "tampered stage fails monotonicity"),
    ]


_SCOPES = {
    "prox": _verify_prox,
    "gradient": _verify_gradient,
    "fixed-point": _verify_fixed_point,
    "mgprox": _verify_mgprox,
    "linear-rate": _verify_linear_rate,
    "fast": _verify_fast,
    "negative-controls": _verify_negative_controls,
}


def cmd_verify(args) -> int:
    report = CertificateReport()
    scopes = _SCOPES if args.scope == "all" else {args.scope: _SCOPES[args.scope]}
    for name, runner in scopes.items():
        report.extend(runner(args.seed))
    for line in report.lines():
        print(line)
    failed = [r.name for r in report.results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(report.results)} certificates passed")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_verify(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
