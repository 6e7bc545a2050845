#!/usr/bin/env python3
"""The concrete intertwiner model: duality maps, word projections, the
almost-isometries with their Gaussian-binomial norms, and the decay of the
projection-commutation defects."""

import math

import numpy as np

from aufwalk import (
    IntertwinerEngine,
    ModelConfig,
    classical_dim,
    qdim,
    vtilde_norm_indecomposable,
)

cfg = ModelConfig.from_q(0.5, n=2, tensor_cap=12)
eng = IntertwinerEngine(cfg)
q = cfg.q
print(f"model: n = {cfg.n}, q = {q:.4f}, character eigenvalues {tuple(round(r, 4) for r in cfg.rho)}")

print()
print("=== duality maps ===")
r, rbar = eng.duality_maps()
print(f"R vector over (b,a): {np.round(r.array.ravel(), 6)}")
print(f"pairing R*R = {float((r.adjoint @ r).array[0, 0]):.6f} = q + 1/q")

print()
print("=== word projections ===")
for w in ["a", "ab", "aab", "abab"]:
    p = eng.word_projection(w).array
    rank = np.linalg.matrix_rank(p, tol=1e-9)
    print(f"p_{w}: shape {p.shape}, rank {rank} = classical dim {classical_dim(w)}, "
          f"idempotency defect {np.abs(p @ p - p).max():.1e}")

print()
print("=== almost-isometries and their norms ===")
print("v = e gives the plain inclusion (norm 1); general v inserts a duality")
print("vector and the norm follows a ratio of Gaussian binomials:")
for s, v, t in [("ab", "", "ba"), ("a", "b", "b"), ("ab", "a", "a"), ("b", "ab", "")]:
    nrm = eng.vtilde(s, v, t).norm
    closed = vtilde_norm_indecomposable(s, v, t, q) if v else 1.0
    print(f"  (s,v,t) = ({s or 'e'},{v or 'e'},{t or 'e'}): norm {nrm:.8f}, closed form {closed:.8f}")
print(f"upper bound sqrt(qdim(v)) holds; e.g. v='ab': {math.sqrt(qdim('ab', q)):.6f}")

print()
print("=== commutation defects decay with the cancellation exponent ===")
print("family u='a', y='ba', z=x: exponent = (|z|+|x|-|y|)/2")
for stem in ["b", "ab", "bab", "abab"]:
    x = stem + "a"
    d, e = eng.defect_audit("a", x, "ba", x)
    ref = q ** e
    note = f"defect/q^E = {d / ref:.4f}" if d > 1e-12 else "exactly zero (parity)"
    print(f"  x = {x:6s} E = {e:.0f}: defect = {d:.3e}  {note}")

print()
print("trace sanity: normalized trace of the identity on H_a (x) H_ab:")
from aufwalk.intertwiners import Intertwiner

ident = Intertwiner(("a", "ab"), ("a", "ab"), np.eye(eng.block_dim(("a", "ab"))))
print(f"  nested-R route:  {eng.categorical_trace(ident):.12f}")
print(f"  weight route:    {eng.weighted_trace(ident):.12f}")
