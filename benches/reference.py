"""A frozen reference computation that gauges the host's speed during a run.

On a shared virtual machine the same code runs at speeds that drift by a
third over tens of seconds, which would swamp any change to proxmg.  The
benchmark therefore times this fixed computation next to every pass and
reports times scaled to a nominal host speed:

    calibrated = wall * (nominal chunk time / measured chunk time).

One chunk is one proximal-gradient step of the membrane energy on each grid
side of the workload's hierarchy, written here with its own copies of the
operators so that no change to proxmg changes it.  It uses the same kinds of
operations as the library (scipy.sparse products, small numpy element-wise
work, Python-level dispatch), so a slowdown of the host slows both alike.
Changing anything in this file changes every calibrated number: re-measure
the baseline after.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# seconds per proximal-gradient step on each grid side, measured on the host
# the baseline was taken on (2-vCPU Intel Xeon virtual machine, Python 3.11,
# numpy 2.4, scipy 1.17); they fix the scale of every calibrated time.  The
# 127 entry is the step time inside a warmed-up benchmark process, where it
# runs about twice as fast as in a fresh one.
NOMINAL_STEP_S = {127: 4.5e-4, 63: 1.3e-4, 31: 7.4e-5, 15: 4.9e-5, 7: 4.6e-5, 3: 4.5e-5}


def _operators(n: int):
    h = 1.0 / (n + 1)
    eye = sp.identity(n, format="csr")
    band = sp.csr_array(sp.diags_array([np.ones(n - 1)], offsets=[1], shape=(n, n))) - eye
    D = sp.csr_array(sp.kron(band / h, eye, format="csr"))
    E = sp.csr_array(sp.kron(eye, band / h, format="csr"))
    x = np.linspace(0.0, 1.0, n * n)
    return D, E, sp.csr_array(D.T), sp.csr_array(E.T), 32.0 / h**2, x, 0.5 * x


class Reference:
    """The reference computation on a workload's grid sides."""

    def __init__(self, sides):
        self._grids = [_operators(n) for n in sides]
        self._nominal_chunk_s = sum(NOMINAL_STEP_S[n] for n in sides)

    def _chunk(self) -> float:
        total = 0.0
        for D, E, Dt, Et, L, x, floor in self._grids:
            du = D @ x
            eu = E @ x
            r = np.sqrt(1.0 + du * du + eu * eu)
            g = Dt @ (du / r) + Et @ (eu / r)
            v = x - g / L
            shifted = v + 1e-3 / L
            y = np.where(shifted < floor, shifted, np.where(v > floor, v, floor))
            total += float(np.sum(r)) + float(y[0])
        return total

    def speed(self, seconds: float) -> float:
        """Run whole chunks for at least ``seconds``; return the host's speed
        relative to nominal, NOMINAL chunk time / measured chunk time."""
        chunks = 0
        t0 = time.perf_counter()
        while True:
            self._chunk()
            chunks += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return self._nominal_chunk_s * chunks / elapsed
