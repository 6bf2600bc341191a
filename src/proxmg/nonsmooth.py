"""Separable convex nonsmooth penalties: values, prox maps, subdifferentials.

Two penalty kinds are supported:

``hinge``
    ``g(u) = lam * sum_i max(c_i - u_i, 0)`` -- a one-sided penalty that
    charges for dipping below a per-coordinate floor ``c`` (the obstacle).
``l1``
    ``g(u) = lam * sum_i |u_i|``; at lam = 0 it is the zero penalty of a
    smooth problem run through the same machinery.

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


@dataclass(frozen=True)
class SeparableNonsmooth:
    """One of the supported separable penalties, with its parameters frozen."""

    kind: str
    lam: float = 0.0
    obstacle: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("hinge", "l1"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if not 0.0 <= self.lam < np.inf:  # NaN compares false
            raise ValueError(f"penalty weight must be finite and >= 0, got {self.lam}")
        if self.kind == "hinge" and self.obstacle is None:
            raise ValueError("hinge penalty needs an obstacle vector")
        if self.obstacle is not None:
            object.__setattr__(self, "obstacle", np.asarray(self.obstacle, dtype=np.float64))

    @classmethod
    def hinge(cls, lam: float, obstacle: np.ndarray) -> "SeparableNonsmooth":
        return cls("hinge", lam, obstacle)

    @classmethod
    def l1(cls, lam: float) -> "SeparableNonsmooth":
        return cls("l1", lam)

    def _vector(self, u) -> np.ndarray:
        """``u`` as a float64 array, checked against the obstacle's dimension."""
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "hinge" and u.shape[0] != self.obstacle.shape[0]:
            raise ValueError(
                f"dimension mismatch: obstacle has {self.obstacle.shape[0]}, vector has {u.shape[0]}"
            )
        return u

    def value(self, u: np.ndarray) -> float:
        u = self._vector(u)
        if self.kind == "hinge":
            gap = self.obstacle - u
            return float(self.lam * np.add.reduce(np.maximum(gap, 0.0, out=gap)))
        return float(self.lam * np.add.reduce(np.abs(u)))

    def value_change(self, y: np.ndarray, z: np.ndarray) -> float:
        """g(z) - g(y), summed from pointwise differences: lam times the sum
        of max(c - z, 0) - max(c - y, 0) (hinge) or |z| - |y| (l1)."""
        y, z = self._vector(y), self._vector(z)
        if self.kind == "hinge":
            c = self.obstacle
            change = np.maximum(c - z, 0.0)
            np.subtract(change, np.maximum(c - y, 0.0), out=change)
        else:
            change = np.abs(z)
            np.subtract(change, np.abs(y), out=change)
        return float(self.lam * np.add.reduce(change))

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
        if not step > 0:  # NaN compares false
            raise ValueError(f"prox step must be positive, got {step}")
        v = self._vector(v)
        lam = step * self.lam
        if self.kind == "hinge":
            out = v + lam
            np.minimum(out, self.obstacle, out=out)
            return np.maximum(v, out, out=out)
        return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)

    def subdiff(self, u: np.ndarray) -> IntervalVec:
        """Per-coordinate subdifferential intervals at ``u``.

        Set-valued coordinates are detected by exact floating-point equality
        (``u_i == c_i`` for the hinge, ``u_i == 0`` for l1); prox outputs land
        on those points bit-exactly, so no epsilon band is used.
        """
        u = self._vector(u)
        lam = self.lam
        if self.kind == "hinge":
            c = self.obstacle
            lo = np.where(u <= c, -lam, 0.0)
            hi = np.where(u < c, -lam, 0.0)
            return IntervalVec(lo, hi)
        sign = np.sign(u)
        lo = np.where(u == 0.0, -lam, lam * sign)
        hi = np.where(u == 0.0, lam, lam * sign)
        return IntervalVec(lo, hi)

    def mask(self, u: np.ndarray) -> np.ndarray:
        """True where the subdifferential at ``u`` is set-valued.

        The closed form of ``subdiff(u).set_valued()``: the kink is hit by
        exact equality (``u_i == c_i``, ``u_i == 0``) and has width lam, so
        nothing is set-valued at lam = 0.
        """
        u = self._vector(u)
        if self.lam == 0.0:
            return np.zeros(u.shape, dtype=bool)
        return u == (self.obstacle if self.kind == "hinge" else 0.0)

    def subgradient(self, u: np.ndarray) -> np.ndarray:
        """The subgradient of least magnitude at ``u``.

        The closed form of ``select_subgradient(subdiff(u))``, to the
        byte: -lam below the hinge's floor and 0 on and above it, and
        lam * sign(u) for l1.  At lam = 0 the interval clip returns the
        -0.0 of a degenerate [-0.0, -0.0] interval, and so do these.
        """
        u = self._vector(u)
        if self.kind == "hinge":
            return np.where(u < self.obstacle, -self.lam, 0.0)
        return self.lam * np.sign(u)


def select_subgradient(intervals: IntervalVec) -> np.ndarray:
    """The least-magnitude subgradient in per-coordinate intervals.

    Singleton coordinates return their unique value; set-valued ones return
    0 when the interval contains it and the endpoint nearest 0 otherwise.
    """
    return np.clip(np.zeros_like(intervals.lo), intervals.lo, intervals.hi)
