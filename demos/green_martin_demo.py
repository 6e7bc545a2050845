#!/usr/bin/env python3
"""Green and Martin kernels of the truncated walk, and the tree estimates:
Harnack, multiplicativity along geodesics, and the last-entry decomposition
at a branch cut."""

from aufwalk import (
    Measure,
    ball,
    branch,
    green_table,
    heap_index,
    heap_indices,
    harnack_audit,
    last_entry_audit,
    martin_rows,
    multiplicativity_audit,
    transition_matrix,
    truncation_error_bound,
    uniform_irreducibility_constants,
)
from aufwalk.cli import AUDITS
from aufwalk.words import code_lengths

q = 0.5
radius = 8
mu = Measure({"a": 0.5, "b": 0.5})

domain = ball(radius)
tm = transition_matrix(mu, domain, q)
lam = tm.norm_bound
table = green_table(tm)  # based at the root, heap index 0
print(f"Green table on ball({radius}): {table.size} vertices")
bottom, top = table.norm_interval
print(f"solver residual {table.residual:.2e}, norm in [{bottom:.4f}, {top:.4f}], top <= {lam:.4f}")
print(f"G(e,e) = {table.green_entry(0, 0):.8f}  (diagonal capped by 1/(1-lam) = {1/(1-lam):.3f})")

print()
print("=== truncation control ===")
for w in ["", "a", "ab"]:
    bound = truncation_error_bound(radius, heap_index(w), heap_index(w), tm)
    print(f"rigorous truncation bound at ({w or 'e'},{w or 'e'}): {bound:.2e}")

print()
print("=== Harnack and multiplicativity on the interior ===")
delta0, k = uniform_irreducibility_constants(tm, k_max=3)
lengths = code_lengths(domain)
interior = domain[(radius - lengths > tm.range_bound) & (lengths <= 6)]
delta = delta0 ** k  # the chain bound
print(f"chain constants delta0 = {delta0:.4f}, K = {k}; bound delta0^K = {delta:.4f}")
empirical = harnack_audit(table, interior)
# the verdict is the audit table's comparison for the harnack entry
verdict = next(a for group in AUDITS for a in group if a.name == "harnack").entry(empirical, delta)
print(f"empirical Harnack constant {empirical:.4f}  (passes: {verdict['pass']})")
# the geodesic constants against 1/(1 - lam) and 3 (2/delta^2)^(S-1), S the range of the walk
c_lower, c_upper = multiplicativity_audit(table, interior)
print(f"geodesic product constants: lower {c_lower:.4f} <= {1.0 / (1.0 - lam):.4f}, "
      f"upper {c_upper:.4f} <= {3.0 * (2.0 / delta ** 2) ** (tm.range_bound - 1):.4f}")

print()
print("=== last-entry decomposition at the branch of 'a' ===")
sub = branch("a", radius)
branch_table = green_table(tm.restrict(sub))
for s, t in [("b", "aa"), ("ab", "aba"), ("bb", "a")]:
    resid = last_entry_audit(heap_index(s), heap_index(t), table, branch_table)
    print(f"G({s},{t}) vs sum over the cut: relative residual {resid:.2e}")

print()
print("Martin kernel rows (base e): K(s, t) for s in {e, a, ba}")
sources = ["", "a", "ba"]
ray = heap_indices(["a" * k for k in range(1, 6)])
for s, vals in zip(sources, martin_rows(table, heap_indices(sources), ray)):
    print(f"  s={s or 'e':3s}: K(s, a^n) = " + ", ".join(f"{v:.5f}" for v in vals))
