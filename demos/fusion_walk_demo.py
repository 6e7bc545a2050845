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
    ball_words,
    classical_dim,
    format_word,
    fuse,
    heap_index,
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
domain = ball(6)  # heap indices; on a ball a word's position is its heap index
tm = transition_matrix(mu, domain, q)
sums = tm.row_sums()
interior = [i for i, w in enumerate(ball_words(6)) if 6 - len(w) > tm.range_bound]
gap = max(abs(sums[i] - 1.0) for i in interior)
print(f"domain: ball(6), {tm.size} words; walk range {tm.range_bound}")
print(f"largest interior row-sum deviation: {gap:.2e}")
print(f"generating: {is_generating(tm)}")

lam = tm.norm_bound
bottom, top = weighted_operator_norm(tm.matrix, tm.haar_weights())
print(f"norm bound sum mu(r) dim(r)/qdim(r) = {lam:.6f}")
print(f"one-step certified interval around the weighted norm = [{bottom:.6f}, {top:.6f}] (top at most the bound)")

print()
print("row of the matrix at s = 'ba':")
i = heap_index("ba")
# the walk's weights are a CSR: row i holds indices and data[indptr[i]:indptr[i + 1]]
row = slice(tm.matrix.indptr[i], tm.matrix.indptr[i + 1])
for j, v in zip(tm.matrix.indices[row], tm.matrix.data[row]):
    print(f"   ba -> {format_word(j):5s}  p = {v:.6f}")
