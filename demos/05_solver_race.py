#!/usr/bin/env python3
"""All five solvers on the 15 x 15 obstacle benchmark, from one start.

The multigrid solver converges in 16 cycles with fixed 1/L steps (19 with
backtracking) where the single-level methods need several thousand
iterations (proxgrad 8 141, FISTA 6 421, both with L = 8 / h^2 as the start
of their backtracking).  The variant whose correction term ignores the
subdifferentials takes 40 cycles: from cycle 13 on, near a residual of
1.8e-9, its coarse corrections point uphill, the line search cuts them to
steps of 1e-8 or less, and the residual falls only at the pace of the
smoothing, about 10 % a cycle.  The penalty's slopes are small, but they are
exactly what the correction term needs to cancel for the cycle to have the
right fixed point.

The accelerated variant converges in 16 iterations, as the plain cycle
does.  It restarts its momentum on the first of two tests: after each
iteration that raises F (the function test), or after which the next
extrapolation would pull the iterate back against its step (the pullback
test).  Here the V-cycle's step outruns the fine prox-gradient step that
moves the auxiliary point z, so the pullback test ends every epoch after
its first iteration (16 times; no other test fires): each epoch is one
plain step (y = x), and the method runs the plain cycle plus one fine
prox-gradient step per iteration.  Without restarts it ended its 300
iterations at a residual of 6.2e-5.  Its auxiliary point z moves only
along the fine-level gradient mapping, so after 300 iterations z was still
3.7 from the solution, and each extrapolation y = alpha z + (1 - alpha) x
pulled the iterate back by about alpha |z - x|; the error then falls like
alpha, about 2/k, instead of geometrically.  A restart sets z back to the
iterate, so stale momentum is dropped and the cycle's geometric
contraction shows through.

The demo prints each solver's iterations, time, final relative residual and
objective gap, then the iterations after which fastmgprox restarted its
momentum and how many restarts each of its two tests caused.

The rows call their solvers from ``cli.SOLVERS``, as the command line does:
    proxmg compare --n-exp 4 --levels 3 --tol 1e-10 --seed 0 --max-iters 2000
"""

import time
from collections import Counter

from proxmg import StoppingRule, build_obstacle_hierarchy, start_points
from proxmg.cli import SOLVERS

TOL, CAP = 1e-10, 2000
# (row label, solver, step mode, iteration budget)
RACE = [("mgprox", "mgprox", "fixed", CAP), ("mgprox/bt", "mgprox", "backtracking", CAP),
        ("kocvara3", "kocvara3", "fixed", 200), ("fastmgprox", "fastmgprox", "fixed", 300),
        ("proxgrad", "proxgrad", "fixed", 40000), ("fista", "fista", "fixed", 40000)]
stack = build_obstacle_hierarchy(15, 1e-6, 3)
x0 = next(start_points(0, stack.fine.problem.dim))

runs = {}
for label, name, mode, budget in RACE:
    start = time.perf_counter()
    _, trace = SOLVERS[name](stack, x0.copy(), StoppingRule(budget, TOL), mode)
    runs[label] = (trace, time.perf_counter() - start)

f_min = min(tr.best_objective() for tr, _ in runs.values())
f_ini = next(iter(runs.values()))[0].objective_initial
print(f"{'solver':<12} {'iterations':>10} {'time_s':>8} {'rel residual':>13} {'(F-F_min)/F_ini':>16}")
for name, (tr, secs) in runs.items():
    iters = str(tr.iterations) if tr.converged else f">{tr.iterations}"
    gap = (tr.final_objective - f_min) / f_ini
    print(f"{name:<12} {iters:>10} {secs:>8.2f} {tr.final_rel_g_norm:>13.2e} {gap:>16.2e}")
fast_meta = runs["fastmgprox"][0].meta
print(f"\nfastmgprox restarted its momentum after iterations {fast_meta['restarts']}")
for reason, count in Counter(fast_meta["restart_reasons"]).items():
    print(f"  {reason} test: {count} restarts")
