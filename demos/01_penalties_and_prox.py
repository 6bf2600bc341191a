#!/usr/bin/env python3
"""Anatomy of the separable penalties: values, prox maps, subdifferentials.

The obstacle penalty charges lam per unit of dipping below a floor c; its
prox either shifts a point up by step*lam, clamps it exactly onto the floor,
or leaves it alone.  Landing *exactly* on the floor is what the multigrid
solver's adaptive masking keys on, so we show the three regimes explicitly
and cross-check every closed form against a brute-force search.
"""

import sys

import numpy as np

from proxmg import SCOPES, SeparableNonsmooth, brute_force_prox, select_subgradient

lam, c, step = 1.0, 0.0, 1.0
hinge = SeparableNonsmooth.hinge(lam, np.array([c]))

print("== hinge prox regimes (lam = 1, floor c = 0, step = 1) ==")
for v in (-2.0, -0.5, 0.5):
    out = hinge.prox(np.array([v]), step)[0]
    oracle = brute_force_prox(lambda t: lam * max(c - t, 0.0), v, step,
                              bracket=(v - 11, v + 11))
    regime = "shifted up" if out < c else ("clamped to floor" if out == c else "untouched")
    print(f"  v = {v:+.1f} -> {out:+.4f}  ({regime}; oracle {oracle:+.10f})")

print("\n== the same prox with a smaller step scales the shift ==")
print(f"  v = -2, step = 0.5 -> {hinge.prox(np.array([-2.0]), 0.5)[0]:+.4f}")

print("\n== subdifferential intervals ==")
for u in (-1.0, 0.0, 5.0):
    iv = hinge.subdiff(np.array([u]))
    tag = "set-valued" if iv.set_valued()[0] else "singleton"
    print(f"  at u = {u:+.1f}: [{iv.lo[0]:+.1f}, {iv.hi[0]:+.1f}]  ({tag})")
iv = hinge.subdiff(np.array([0.0]))
print(f"  least-magnitude subgradient at the kink: {select_subgradient(iv)[0]:+.1f}")

print("\n== l1 penalty: soft threshold and sign intervals ==")
l1 = SeparableNonsmooth.l1(2.0)
v = np.array([5.0, -5.0, 0.5])
print(f"  prox of {v} at step 1: {l1.prox(v, 1.0)}")
iv = l1.subdiff(np.array([0.0]))
print(f"  interval at 0: [{iv.lo[0]:+.1f}, {iv.hi[0]:+.1f}]")

print("\n== the closed forms against the golden-section oracle ==")
certs = SCOPES["prox"](0)
for cert in certs:
    print(f"  {cert.line()}")
sys.exit(0 if all(cert.passed for cert in certs) else 1)
