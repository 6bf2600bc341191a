"""Separable convex nonsmooth penalties: values, prox maps, subdifferentials.

Three penalty kinds are supported:

``hinge``
    ``g(u) = lam * sum_i max(c_i - u_i, 0)`` -- a one-sided penalty that
    charges for dipping below a per-coordinate floor ``c`` (the obstacle).
``l1``
    ``g(u) = lam * sum_i |u_i|``.
``zero``
    ``g(u) = 0``, for smooth problems run through the same machinery.

Each penalty is real-valued everywhere (no indicator functions), separable,
and proper convex lower semi-continuous, so the subdifferential is a closed
interval per coordinate and the prox has a per-coordinate closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IntervalVec:
    """Per-coordinate closed intervals ``[lo_i, hi_i]``, e.g. a subdifferential."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must have equal shape")
        if np.any(self.lo > self.hi):
            raise ValueError("interval with lo > hi")

    def set_valued(self) -> np.ndarray:
        """Boolean array: True where the interval is non-degenerate."""
        return self.lo < self.hi

    def __len__(self) -> int:
        return self.lo.shape[0]


@dataclass(frozen=True)
class SeparableNonsmooth:
    """One of the supported separable penalties, with its parameters frozen."""

    kind: str
    lam: float = 0.0
    obstacle: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("hinge", "l1", "zero"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.lam < 0:
            raise ValueError("penalty weight must be nonnegative")
        if self.kind == "hinge" and self.obstacle is None:
            raise ValueError("hinge penalty needs an obstacle vector")

    @classmethod
    def hinge(cls, lam: float, obstacle: np.ndarray) -> "SeparableNonsmooth":
        return cls("hinge", lam, np.asarray(obstacle, dtype=np.float64))

    @classmethod
    def l1(cls, lam: float) -> "SeparableNonsmooth":
        return cls("l1", lam)

    @classmethod
    def zero(cls) -> "SeparableNonsmooth":
        return cls("zero")

    def _check_dim(self, u: np.ndarray):
        if self.kind == "hinge" and u.shape[0] != self.obstacle.shape[0]:
            raise ValueError(
                f"dimension mismatch: obstacle has {self.obstacle.shape[0]}, vector has {u.shape[0]}"
            )

    def value(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=np.float64)
        self._check_dim(u)
        if self.kind == "hinge":
            gap = self.obstacle - u
            return float(self.lam * np.sum(np.maximum(gap, 0.0, out=gap)))
        if self.kind == "l1":
            return float(self.lam * np.sum(np.abs(u)))
        return 0.0

    def prox(self, v: np.ndarray, step: float) -> np.ndarray:
        """Exact minimizer of ``step * g(u) + 0.5 * ||u - v||^2``, per coordinate.

        The unit-step closed forms extend to a general step by scaling
        ``lam -> step * lam``, which is exact for these positively homogeneous
        penalties.

        The hinge prox is the clamp ``max(v, min(v + lam, c))``, taken in two
        passes over one output array: v + lam where that is below the floor,
        v where v is above it, and c in between.  numpy's minimum and maximum
        return their second argument when the two compare equal (+0.0 and
        -0.0 do), so with this argument order a tie yields the same signed
        zero as the three-way case split (v + lam < c, v > c, otherwise c);
        the tests hold the two to the same bytes.  A NaN in v propagates to
        the output.
        """
        if step <= 0:
            raise ValueError(f"prox step must be positive, got {step}")
        v = np.asarray(v, dtype=np.float64)
        self._check_dim(v)
        lam = step * self.lam
        if self.kind == "hinge":
            out = v + lam
            np.minimum(out, self.obstacle, out=out)
            return np.maximum(v, out, out=out)
        if self.kind == "l1":
            return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
        return v.copy()

    def subdiff(self, u: np.ndarray) -> IntervalVec:
        """Per-coordinate subdifferential intervals at ``u``.

        Set-valued coordinates are detected by exact floating-point equality
        (``u_i == c_i`` for the hinge, ``u_i == 0`` for l1); prox outputs land
        on those points bit-exactly, so no epsilon band is used.
        """
        u = np.asarray(u, dtype=np.float64)
        self._check_dim(u)
        lam = self.lam
        if self.kind == "hinge":
            c = self.obstacle
            lo = np.where(u <= c, -lam, 0.0)
            hi = np.where(u < c, -lam, 0.0)
            return IntervalVec(lo, hi)
        if self.kind == "l1":
            sign = np.sign(u)
            lo = np.where(u == 0.0, -lam, lam * sign)
            hi = np.where(u == 0.0, lam, lam * sign)
            return IntervalVec(lo, hi)
        zeros = np.zeros_like(u)
        return IntervalVec(zeros, zeros.copy())


def select_subgradient(intervals: IntervalVec, policy: str = "zero") -> np.ndarray:
    """Pick one subgradient from per-coordinate intervals.

    Singleton coordinates always return their unique value.  For set-valued
    coordinates, policy ``"zero"`` returns 0 when the interval contains it and
    the endpoint nearest 0 otherwise; ``"midpoint"`` returns the interval
    midpoint.  Any choice is clamped into the interval.
    """
    lo, hi = intervals.lo, intervals.hi
    if policy == "zero":
        choice = np.zeros_like(lo)
    elif policy == "midpoint":
        choice = 0.5 * (lo + hi)
    else:
        raise ValueError(f"unknown subgradient policy {policy!r}")
    return np.clip(choice, lo, hi)
