#!/usr/bin/env python3
"""Green and Martin kernels of the truncated walk, and the tree estimates:
Harnack, multiplicativity along geodesics, and the last-entry decomposition
at a branch cut."""

from aufwalk import (
    Measure,
    ball,
    branch,
    green_table,
    harnack_audit,
    last_entry_audit,
    martin_rows,
    multiplicativity_audit,
    transition_matrix,
    truncation_error_bound,
    uniform_irreducibility_constants,
)

q = 0.5
radius = 8
mu = Measure({"a": 0.5, "b": 0.5})

domain = ball(radius)
tm = transition_matrix(mu, domain, q)
lam = tm.norm_bound
table = green_table(tm, base="")
print(f"Green table on ball({radius}): {table.size} vertices")
print(f"solver residual {table.residual:.2e}, norm {table.power_norm:.4f} <= {lam:.4f}")
print(f"G(e,e) = {table.green_entry('', ''):.8f}  (diagonal capped by 1/(1-lam) = {1/(1-lam):.3f})")

print()
print("=== truncation control ===")
for w in ["", "a", "ab"]:
    bound = truncation_error_bound(radius, w, w, tm)
    print(f"rigorous truncation bound at ({w or 'e'},{w or 'e'}): {bound:.2e}")

print()
print("=== Harnack and multiplicativity on the interior ===")
delta0, k = uniform_irreducibility_constants(tm, k_max=3)
interior = [w for w in domain if radius - len(w) > tm.range_bound and len(w) <= 6]
har = harnack_audit(table, delta0, k, interior)
print(f"chain constants delta0 = {delta0:.4f}, K = {k}; bound delta0^K = {har.delta_bound:.4f}")
print(f"empirical Harnack constant {har.empirical_delta:.4f}  (passes: {har.passes})")
mult = multiplicativity_audit(table, har.delta_bound, interior)
print(f"geodesic product constants: lower {mult.c1_lower:.4f} <= {mult.lower_bound:.4f}, "
      f"upper {mult.c1_upper:.4f} <= {mult.upper_bound:.4f}")

print()
print("=== last-entry decomposition at the branch of 'a' ===")
sub = branch("a", radius)
branch_table = green_table(tm.restrict(sub), base="a")
for s, t in [("b", "aa"), ("ab", "aba"), ("bb", "a")]:
    resid = last_entry_audit("a", s, t, table, branch_table)
    print(f"G({s},{t}) vs sum over the cut: relative residual {resid:.2e}")

print()
print("Martin kernel rows (base e): K(s, t) for s in {e, a, ba}")
sources = ["", "a", "ba"]
for s, vals in zip(sources, martin_rows(table, sources, ["a" * k for k in range(1, 6)])):
    print(f"  s={s or 'e':3s}: K(s, a^n) = " + ", ".join(f"{v:.5f}" for v in vals))
