"""Span tracing of proxmg from outside the package.

The tracer wraps the public functions of each proxmg module and records one
span per call: name, level, start, end, the span that was open when the call
began (its parent), and the request (one workload pass) it belongs to.  Spans
are kept in flat arrays and reduced to per-layer totals when a pass ends.

Several modules import their collaborators by name (``from .smoothing import
run_smoothing``), so patching the defining module alone would miss most calls.
``Tracer.patched`` therefore replaces every binding of each target function in
every loaded ``proxmg`` module, and puts the originals back on exit.  Methods
are patched on their class.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name, level attributed from the first argument's dim)
TARGETS = (
    ("smoothing", "run_smoothing", "smoothing.run_smoothing", True),
    ("smoothing", "backtrack_L", "smoothing.backtrack_L", True),
    ("smoothing", "prox_grad_map", "smoothing.prox_grad_map", False),
    ("membrane", "MembraneEnergy.value", "membrane.value", True),
    ("membrane", "MembraneEnergy.grad", "membrane.grad", True),
    ("nonsmooth", "SeparableNonsmooth.prox", "nonsmooth.prox", False),
    ("nonsmooth", "SeparableNonsmooth.subdiff", "nonsmooth.subdiff", False),
    ("transfer", "adaptive_mask", "transfer.adaptive_mask", False),
    ("transfer", "restrict_adaptive", "transfer.restrict_adaptive", False),
    ("transfer", "prolong_adaptive", "transfer.prolong_adaptive", False),
    ("hierarchy", "build_tau", "hierarchy.build_tau", False),
    ("hierarchy", "build_obstacle_hierarchy", "hierarchy.build_obstacle_hierarchy", False),
    ("multigrid", "vcycle", "multigrid.vcycle", False),
    ("multigrid", "naive_line_search", "multigrid.line_search", False),
    ("multigrid", "mgprox_solve", "multigrid.mgprox_solve", False),
    ("problems", "tilted_objective", "problems.tilted_objective", False),
    ("accelerated", "fast_step", "accelerated.fast_step", False),
    ("accelerated", "fastmgprox_solve", "accelerated.fastmgprox_solve", False),
    ("baselines", "fista_solve", "baselines.fista_solve", False),
    ("baselines", "proxgrad_solve", "baselines.proxgrad_solve", False),
)

NO_LEVEL = -1


class LayerStats:
    """Per-layer totals of one request: calls, seconds and self seconds per
    (span name, level), plus the counts derived from span parentage."""

    def __init__(self):
        self.calls: dict[tuple[str, int], int] = {}
        self.seconds: dict[tuple[str, int], float] = {}
        self.self_seconds: dict[tuple[str, int], float] = {}
        self.backtrack_doublings = 0
        self.membrane_points = 0

    def scale(self, factor: float):
        """Multiply every time by ``factor`` (the pass's calibration factor)."""
        for table in (self.seconds, self.self_seconds):
            for key in table:
                table[key] *= factor

    def total(self, table: dict, name: str, level: int | None = None):
        """Sum over levels, or the entry of one level; 0 when never called."""
        return sum(v for (n, lev), v in table.items()
                   if n == name and (level is None or lev == level))


class Tracer:
    """Records spans while patched in; ``level_of_dim`` maps a problem
    dimension to its level index in the workload's hierarchy."""

    def __init__(self, level_of_dim: dict[int, int]):
        self.level_of_dim = dict(level_of_dim)
        self.names = [t[2] for t in TARGETS]
        self.request = 0
        self._clear()

    def _clear(self):
        self._name = array("i")
        self._level = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []

    def _wrap(self, fn, name_id: int, by_level: bool):
        tracer = self
        level_of_dim = self.level_of_dim
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer._name)
            tracer._name.append(name_id)
            tracer._level.append(level_of_dim.get(args[0].dim, NO_LEVEL)
                                 if by_level else NO_LEVEL)
            tracer._parent.append(tracer._open[-1] if tracer._open else -1)
            tracer._request.append(tracer.request)
            tracer._end.append(0.0)
            tracer._open.append(idx)
            tracer._start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end[idx] = clock()
                tracer._open.pop()

        return traced

    @contextmanager
    def patched(self):
        """Route every call of a target through its span wrapper."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "proxmg" or key.startswith("proxmg.")]
        restore: list[tuple[object, str, object]] = []
        try:
            for name_id, (mod_name, attr, _, by_level) in enumerate(TARGETS):
                home = sys.modules[f"proxmg.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, name_id, by_level))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(original, name_id, by_level)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def collect(self) -> dict[int, LayerStats]:
        """Reduce the recorded spans to per-request layer totals and forget them.

        A span's self time is its duration minus the durations of the spans
        whose parent it is.
        """
        if self._open:
            raise RuntimeError("collect() called with spans still open")
        n = len(self._start)
        name = np.array(self._name, dtype=np.int64)
        level = np.array(self._level, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        request = np.array(self._request, dtype=np.int64)
        dur = np.array(self._end) - np.array(self._start)
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_dur = dur - child

        ids = {nm: i for i, nm in enumerate(self.names)}
        in_backtrack = np.zeros(n, dtype=bool)
        in_backtrack[has_parent] = name[parent[has_parent]] == ids["smoothing.backtrack_L"]
        dim_of_level = {lev: dim for dim, lev in self.level_of_dim.items()}

        out: dict[int, LayerStats] = {}
        for req in np.unique(request):
            sel = request == req
            stats = LayerStats()
            keys = np.stack([name[sel], level[sel]], axis=1)
            uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
            inverse = inverse.reshape(-1)
            counts = np.bincount(inverse, minlength=len(uniq))
            secs = np.bincount(inverse, weights=dur[sel], minlength=len(uniq))
            selfs = np.bincount(inverse, weights=self_dur[sel], minlength=len(uniq))
            for k, (nid, lev) in enumerate(uniq):
                key = (self.names[nid], int(lev))
                stats.calls[key] = int(counts[k])
                stats.seconds[key] = float(secs[k])
                stats.self_seconds[key] = float(selfs[k])
            prox_in_bt = int(np.count_nonzero(sel & in_backtrack
                                              & (name == ids["nonsmooth.prox"])))
            stats.backtrack_doublings = prox_in_bt - stats.total(stats.calls,
                                                                 "smoothing.backtrack_L")
            for (nm, lev), c in stats.calls.items():
                if nm in ("membrane.value", "membrane.grad"):
                    stats.membrane_points += c * dim_of_level[lev]
            out[int(req)] = stats
        self._clear()
        return out
