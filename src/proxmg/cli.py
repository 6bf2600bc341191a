"""Command-line harness: run solvers, compare them, run the certificate suite.

Subcommands
-----------
solve    run one solver on one problem, write a CSV trace, print a summary
compare  run all five solvers from the same start, print a comparison table
verify   run the certificate suite (certificates.SCOPES); exit 0 iff everything holds

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
from .certificates import SCOPES, CertificateReport
from .hierarchy import build_obstacle_hierarchy
from .multigrid import CycleConfig, StoppingRule, mgprox_solve
from .oracles import build_chain_hierarchy
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
    pv.add_argument("--scope", default="all", choices=("all", *SCOPES))
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


def cmd_verify(args) -> int:
    report = CertificateReport()
    for scope in SCOPES if args.scope == "all" else [args.scope]:
        report.extend(SCOPES[scope](args.seed))
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
