"""Square-grid geometry shared by all modules.

Vectors on an ``n_side x n_side`` grid of interior points are stored flat in
column-major order: the flat index of the 1-based point ``(i, j)`` is
``(j - 1) * n_side + (i - 1)``, so ``i`` is the fast index.  The membrane
stencil fixes this ordering: it reads a flat vector as ``u.reshape(n_side,
n_side)``, whose row ``j - 1`` is grid column ``j``.  :func:`ij_to_k` spells
the same rule out point by point, as an index oracle for the tests.

All floating-point work is IEEE double precision.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass


def _is_pow2_minus_1(n: int) -> bool:
    return n >= 1 and (n + 1) & n == 0


@dataclass(frozen=True)
class GridLevel:
    """Interior points of a uniform square grid at one resolution level.

    ``n_side`` must be an integer (numpy's included) equal to ``2**m - 1``
    for some ``m >= 1`` so that the next coarser grid, with
    ``(n_side - 1) // 2`` points per side, has the same form.  ``h`` is the
    algebraic mesh width ``1 / (n_side + 1)``; physical coordinates enter
    only where a concrete domain is sampled.
    """

    n_side: int

    def __post_init__(self):
        if not (isinstance(self.n_side, numbers.Integral) and _is_pow2_minus_1(self.n_side)):
            raise ValueError(f"n_side must be an integer 2**m - 1 for some m >= 1, "
                             f"got {self.n_side!r}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n_side + 1)

    @property
    def n_total(self) -> int:
        return self.n_side * self.n_side


def ij_to_k(i: int, j: int, n_side: int) -> int:
    """Flat (0-based) index of the 1-based interior point ``(i, j)``."""
    if not (1 <= i <= n_side and 1 <= j <= n_side):
        raise IndexError(f"point ({i}, {j}) outside 1..{n_side} square")
    return (j - 1) * n_side + (i - 1)
