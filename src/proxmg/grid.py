"""Square-grid geometry shared by all modules.

Vectors on an ``n_side x n_side`` grid of interior points are stored flat in
column-major order: the flat index of the 1-based point ``(i, j)`` is
``(j - 1) * n_side + (i - 1)``, so ``i`` is the fast index.  The membrane
stencil fixes this ordering: it reads a flat vector as ``u.reshape(n_side,
n_side)``, whose row ``j - 1`` is grid column ``j``.  :func:`ij_to_k` and
:func:`k_to_ij` spell the same rule out point by point, as an index oracle
for the tests.

All floating-point work is IEEE double precision.
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_pow2_minus_1(n: int) -> bool:
    return n >= 1 and (n + 1) & n == 0


@dataclass(frozen=True)
class GridLevel:
    """Interior points of a uniform square grid at one resolution level.

    ``n_side`` must equal ``2**m - 1`` for some ``m >= 1`` so that the next
    coarser grid, with ``(n_side - 1) // 2`` points per side, has the same
    form.  ``h`` is the algebraic mesh width ``1 / (n_side + 1)``; physical
    coordinates enter only where a concrete domain is sampled.
    """

    level: int
    n_side: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")
        if not _is_pow2_minus_1(self.n_side):
            raise ValueError(
                f"n_side must be 2**m - 1 for some m >= 1, got {self.n_side}"
            )

    @property
    def h(self) -> float:
        return 1.0 / (self.n_side + 1)

    @property
    def n_total(self) -> int:
        return self.n_side * self.n_side

    def coarsen(self) -> "GridLevel":
        """The next coarser grid (points at every second fine point)."""
        if self.n_side < 3:
            raise ValueError("cannot coarsen a grid with a single interior point")
        return GridLevel(self.level + 1, (self.n_side - 1) // 2)


def ij_to_k(i: int, j: int, n_side: int) -> int:
    """Flat (0-based) index of the 1-based interior point ``(i, j)``."""
    if not (1 <= i <= n_side and 1 <= j <= n_side):
        raise IndexError(f"point ({i}, {j}) outside 1..{n_side} square")
    return (j - 1) * n_side + (i - 1)


def k_to_ij(k: int, n_side: int) -> tuple[int, int]:
    """Inverse of :func:`ij_to_k`."""
    if not (0 <= k < n_side * n_side):
        raise IndexError(f"flat index {k} outside 0..{n_side * n_side - 1}")
    j, i = divmod(k, n_side)
    return (i + 1, j + 1)
