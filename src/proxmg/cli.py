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

``--config`` reads a flat ``key = value`` file whose keys are the
subcommand's long flags without the leading dashes (``n-exp`` or ``n_exp``).
Each entry is parsed as the flag it names, ahead of the command line, so file
values get the flags' checks and an explicit flag wins.  ``--wall-time`` is a
switch and cannot be set from a file.

Exit codes: 0 success, 1 solve/certificate failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .accelerated import fastmgprox_solve
from .baselines import fista_solve, proxgrad_solve
from .certificates import SCOPES, CertificateReport
from .hierarchy import build_obstacle_hierarchy
from .multigrid import CycleConfig, StoppingRule, mgprox_solve
from .oracles import build_chain_hierarchy

ALGORITHMS = ("mgprox", "fastmgprox", "proxgrad", "fista", "kocvara3")


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


def _config_flags(path: str, keys) -> list[str]:
    """The flags a flat key=value file names: ``n-exp = 3`` (or ``n_exp = 3``)
    gives ``--n-exp=3``.  Blank lines and #-comments are ignored; a key must
    be one of ``keys``, the subcommand's flags with underscores."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key.replace("-", "_") not in keys:
                raise ValueError(f"unknown config key {key!r}")
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxmg",
        description="Multigrid proximal-gradient solvers and their benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_algo: bool):
        p.add_argument("--config", help="key=value file; explicit flags override it")
        p.add_argument("--problem", choices=("eop", "synthetic"), default="eop",
                       help="obstacle benchmark or quadratic+l1 test problem")
        p.add_argument("--n-exp", type=_positive_int, default=4, metavar="M",
                       help="size exponent: grid side 2^M - 1 (eop) or n = 2^M (synthetic)")
        p.add_argument("--lam", type=_positive_float, default=1e-6,
                       help="nonsmooth penalty weight (default 1e-6)")
        p.add_argument("--levels", type=_positive_int, default=3,
                       help="number of levels in the hierarchy (default 3)")
        p.add_argument("--smoothing", type=_positive_int, default=20, metavar="N",
                       help="pre/post smoothing steps per level (default 20)")
        if with_algo:
            p.add_argument("--algo", choices=ALGORITHMS, default="mgprox")
        p.add_argument("--tol", type=_positive_float, default=1e-10,
                       help="relative prox-gradient-map tolerance (default 1e-10)")
        p.add_argument("--max-iters", type=_positive_int, default=100000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--step-mode", choices=("fixed", "backtracking"), default="fixed")
        p.add_argument("--wall-time", action="store_true",
                       help="write wall-clock seconds into the CSV time column "
                            "(sacrifices bit-identical output)")

    ps = sub.add_parser("solve", help="run one solver and write its trace")
    add_common(ps, with_algo=True)
    ps.add_argument("--out", default=None, help="CSV trace path")

    pc = sub.add_parser("compare", help="run all five solvers from one start")
    add_common(pc, with_algo=False)
    pc.set_defaults(step_mode="backtracking")
    pc.add_argument("--out-prefix", default="compare",
                    help="per-solver CSVs are written to <prefix>_<algo>.csv")

    pv = sub.add_parser("verify", help="run the certificate suite")
    pv.add_argument("--scope", default="all", choices=("all", *SCOPES))
    pv.add_argument("--seed", type=int, default=0)
    return parser


def _draw_start(seed: int, dim: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(0.0, 1.0, size=dim)


def _setup(args):
    """The level stack of the requested problem."""
    if args.problem == "eop":
        return build_obstacle_hierarchy(2**args.n_exp - 1, args.lam, args.levels,
                                        args.smoothing)
    return build_chain_hierarchy(2**args.n_exp, args.lam, args.levels, args.smoothing,
                                 seed=args.seed)


def _run_algorithm(algo: str, stack, x0, args):
    stop = StoppingRule(args.max_iters, args.tol)
    if algo in ("mgprox", "kocvara3", "fastmgprox"):
        cycle_cfg = CycleConfig(variant="kocvara3" if algo == "kocvara3" else "mgprox",
                                step_mode=args.step_mode)
        if algo == "fastmgprox":
            return fastmgprox_solve(stack, x0, stop, cycle_cfg)
        return mgprox_solve(stack, x0, stop, cycle_cfg)
    if algo == "proxgrad":
        return proxgrad_solve(stack.fine.problem, x0, stop)
    if algo == "fista":
        return fista_solve(stack.fine.problem, x0, stop)
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


def cmd_solve(args) -> int:
    stack = _setup(args)
    problem = stack.fine.problem
    x, trace = _run_algorithm(args.algo, stack, _draw_start(args.seed, problem.dim), args)
    if args.out:
        _write_csv(args.out, trace, args.wall_time)
    final_rel = trace.rel_g_norms[-1] if trace.rel_g_norms else 0.0
    gap = (problem.objective(x) - trace.best_objective()) / abs(trace.objective_initial)
    mode_note = f" step_mode={trace.meta['step_mode']}" if "step_mode" in trace.meta else ""
    print(f"{args.algo}: iterations={trace.iterations} rel_norm={final_rel:.3e} "
          f"rel_gap={gap:.3e} converged={trace.converged}{mode_note}")
    return 0 if trace.converged else 1


def cmd_compare(args) -> int:
    # solvers keep their per-solve state in workspaces of their own, so they
    # share one stack and no row depends on the run order
    stack = _setup(args)
    problem = stack.fine.problem
    x0 = _draw_start(args.seed, problem.dim)
    results = {}
    for algo in ALGORITHMS:
        start = time.perf_counter()
        x, trace = _run_algorithm(algo, stack, x0.copy(), args)
        elapsed = time.perf_counter() - start
        results[algo] = (x, trace, elapsed)
        _write_csv(f"{args.out_prefix}_{algo}.csv", trace, args.wall_time)
    f_min = min(res[1].best_objective() for res in results.values())
    f_ini = abs(next(iter(results.values()))[1].objective_initial)
    print(f"problem={args.problem} n={problem.dim} lam={args.lam:g} levels={args.levels} "
          f"smoothing={args.smoothing} tol={args.tol:g} seed={args.seed} "
          f"step_mode={args.step_mode}")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's entries are parsed as the flags they name, ahead of
            # the command line, so that an explicit flag (parsed last) wins
            keys = set(vars(args)) - {"command", "config"}
            args = parser.parse_args([argv[0], *_config_flags(args.config, keys),
                                      *argv[1:]])
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
