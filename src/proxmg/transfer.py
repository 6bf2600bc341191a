"""Grid transfer operators: full weighting restriction, prolongation, masking.

Restriction R maps a fine-grid vector to the next coarser grid; the coarse
point (I, J) sits over the fine point (2I, 2J) and averages its 3x3 fine
neighborhood with the kernel (1/8) * [[1, 2, 1], [2, 4, 2], [1, 2, 1]].
Prolongation is P = c * R^T with c = 2.

The full weighting matches the membrane's boundary (see
:mod:`proxmg.membrane`): clamped past the last row and column, free at
i = 1 and j = 1.  Its 1-D factor is the [1, 2, 1] leg set centered at fine
index 2I, with the leg of the (absent) coarse point I = 0 folded into fine
index 1, which therefore carries weight 2 in the row I = 1 instead of 1.
Since n_fine = 2 n_coarse + 1, no leg reaches past the clamped high end.
P then extrapolates the first coarse value as a constant onto the free edges
instead of halving it toward a zero that is not there: P @ 1 is 1 everywhere
except on the clamped high edges (1/2) and at their corner (1/4).  The row
sums of R are 2 away from the free edges, 5/2 on the rows with I = 1 or
J = 1 alone, and 25/8 at I = J = 1.

Both builders, this full weighting and the chain's line weighting, write
R directly as CSR arrays.  Row (J - 1) n_c + (I - 1) of the full weighting
holds 9 entries, (1/8) w_j w_i for the legs j of J and i of I, with
w = [1, 2, 1] ([2, 2, 1] at the first coarse index); they are stored sorted
by fine column (j - 1) n + (i - 1), j-major.  Row I of the line weighting
(0-based) holds (1/4) [1, 2, 1] at fine indices 2I, 2I + 1, 2I + 2, less
the leg past the end of an even chain.  So no zero is stored and the
indices are sorted.

A ``TransferPair`` holds R alone and derives P = 2 R^T from it, as the CSC
view of R's doubled CSR arrays, so no pair carries a P that disagrees with
its R.  Its matvec adds each fine point's products in ascending coarse
index, as a CSR P's would, so P @ v has the bytes of the CSR product.

The adaptive variants zero out fine coordinates where the nonsmooth term's
subdifferential is set-valued: columns of R when restricting subgradients (so
the restricted subgradient is single-valued) and rows of P when prolonging
corrections (so those fine points receive no coarse correction).  Plain
variables always restrict with the full R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .grid import GridLevel
from .nonsmooth import SeparableNonsmooth

# the scale c of every prolongation P = c R^T
PROLONG_SCALE = 2.0


@dataclass(frozen=True)
class TransferPair:
    """Restriction R and the prolongation P = PROLONG_SCALE * R^T it implies."""

    restrict: sp.csr_array
    prolong: sp.csc_array = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "prolong", (PROLONG_SCALE * self.restrict).T)

    @property
    def n_coarse(self) -> int:
        return self.restrict.shape[0]

    @property
    def n_fine(self) -> int:
        return self.restrict.shape[1]


def _csr_pair(vals: np.ndarray, cols: np.ndarray, width: int, n_coarse: int,
              n_fine: int) -> TransferPair:
    """The pair of the R whose row I holds entries width I, ...,
    width (I + 1) - 1 of (vals, cols), columns ascending and the last row
    possibly short."""
    indptr = np.arange(0, width * n_coarse + 1, width)
    indptr[-1] = cols.size
    return TransferPair(sp.csr_array((vals, cols, indptr), shape=(n_coarse, n_fine)))


def build_full_weighting(fine: GridLevel) -> TransferPair:
    """Full weighting for a square grid with n_side = 2**m - 1, m >= 2, free
    at i = 1 and j = 1 and clamped past the last row and column."""
    n = fine.n_side
    if n < 3:
        raise ValueError("fine grid too small to coarsen")
    n_c = (n - 1) // 2
    # 1-D legs of coarse index I (0-based): fine indices 2I, 2I + 1, 2I + 2
    legs = 2 * np.arange(n_c)[:, None] + np.arange(3)
    w = np.tile([1.0, 2.0, 1.0], (n_c, 1))
    w[0, 0] = 2.0  # the free edge takes the leg of the absent coarse point
    # axes (J, I, j-leg, i-leg): rows in order, each row's columns ascending
    cols = (n * legs[:, None, :, None] + legs[None, :, None, :]).ravel()
    vals = (0.125 * w[:, None, :, None] * w[None, :, None, :]).ravel()
    return _csr_pair(vals, cols, 9, n_c * n_c, n * n)


def build_line_weighting(n_fine: int) -> TransferPair:
    """1-D weighting (1/4) * [1, 2, 1] for chain problems; coarse size is n_fine // 2.

    Used by the synthetic rate-verification hierarchy.  Out-of-range stencil
    legs are dropped (Dirichlet ends): an even ``n_fine`` clips the last leg.
    """
    n_c = n_fine // 2
    if n_c < 1:
        raise ValueError("chain too short to coarsen")
    # legs of coarse index I (0-based): fine indices 2I, 2I + 1, 2I + 2; an
    # even chain drops the last one, fine index n_fine, from the last row
    nnz = 3 * n_c - 1 + n_fine % 2
    cols = (2 * np.arange(n_c)[:, None] + np.arange(3)).ravel()[:nnz]
    vals = np.tile([0.25, 0.5, 0.25], n_c)[:nnz]
    return _csr_pair(vals, cols, 3, n_c, n_fine)


def adaptive_mask(g: SeparableNonsmooth, x: np.ndarray) -> np.ndarray:
    """True at fine coordinates where the subdifferential of g is set-valued."""
    return g.mask(x)


def restrict_adaptive(t: TransferPair, mask: np.ndarray, v: np.ndarray) -> np.ndarray:
    """R with masked columns zeroed, applied to v."""
    if v.shape[0] != t.n_fine:
        raise ValueError(f"dimension mismatch: expected {t.n_fine}, got {v.shape[0]}")
    mask = np.asarray(mask, dtype=bool)
    return t.restrict @ np.where(mask, 0.0, v)


def prolong_adaptive(t: TransferPair, mask: np.ndarray, v_coarse: np.ndarray) -> np.ndarray:
    """P with masked rows zeroed, applied to v_coarse."""
    if v_coarse.shape[0] != t.n_coarse:
        raise ValueError(f"dimension mismatch: expected {t.n_coarse}, got {v_coarse.shape[0]}")
    mask = np.asarray(mask, dtype=bool)
    out = t.prolong @ v_coarse
    out[mask] = 0.0
    return out
