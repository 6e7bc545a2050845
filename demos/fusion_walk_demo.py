#!/usr/bin/env python3
"""Walkthrough of the fusion ring and the classical random walk it induces.

Words over {a, b} label the irreducible objects; the tensor product of two
words decomposes by cancelling a suffix of the first against the matching
prefix involution of the second.  A finitely supported measure then drives a
bounded-range random walk on the tree of words.
"""

import numpy as np

from aufwalk import (
    Measure,
    ball,
    classical_dim,
    fuse,
    involution,
    is_generating,
    qdim,
    transition_matrix,
    weighted_operator_norm,
)

q = 0.5

print("=== fusion rules ===")
for x, y in [("a", "b"), ("ab", "ab"), ("ab", "ba"), ("ba", "a")]:
    comps = fuse(x, y)
    print(f"{x or 'e'} (x) {y or 'e'}  =  {' + '.join(c or 'e' for c in comps)}")
    total = sum(qdim(c, q) for c in comps)
    print(f"   dimension check: {qdim(x, q) * qdim(y, q):.6f} = {total:.6f}")

print()
print("=== quantum vs classical dimensions ===")
for w in ["a", "ab", "aa", "abab", "aabb"]:
    print(f"{w}: qdim = {qdim(w, q):.6f}, classical = {classical_dim(w)}, bar = {involution(w)}")

print()
print("=== the induced walk ===")
mu = Measure({"a": 0.5, "b": 0.5})
domain = ball(6)
tm = transition_matrix(mu, domain, q)
sums = tm.row_sums()
interior = tm.interior_words(6)
gap = max(abs(sums[tm.index[w]] - 1.0) for w in interior)
print(f"domain: ball(6), {tm.size} words; walk range {tm.range_bound}")
print(f"largest interior row-sum deviation: {gap:.2e}")
print(f"generating: {is_generating(mu, 4, q)}")

lam = tm.norm_bound
measured = weighted_operator_norm(tm.matrix, tm.haar_weights())
print(f"norm bound sum mu(r) dim(r)/qdim(r) = {lam:.6f}")
print(f"power-iteration norm on the weighted space = {measured:.6f} (below the bound)")

print()
print("row of the matrix at s = 'ba':")
i = tm.index["ba"]
row = tm.matrix.getrow(i).tocoo()
for j, v in sorted(zip(row.col, row.data)):
    print(f"   ba -> {domain[j] or 'e':5s}  p = {v:.6f}")
