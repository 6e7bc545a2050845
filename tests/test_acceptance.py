"""Acceptance battery: every quantitative property of the build at its stated
tolerance, one printed pass/fail line per criterion.

Criterion 10 checks the decay of the perturbation residuals |qhat - p|.
Each coefficient is the overlap of two isometric routes out of H_t, so
p - qhat = p eps^2 / 2 exactly, with eps the commutation defect of the two
routes.  The commutation defects decay at rate log q (criterion 8), so the
residual decays at 2 log q.  The criterion asserts that identity entry by entry and a fitted
slope within 15% of 2 log q.  The `audit` subcommand's `perturbation_rate`
entry still compares the slope with log q and fails.
"""

import itertools
import math

import numpy as np
import pytest

from aufwalk.fusion import (
    Measure,
    dual_audit,
    norm_upper_bound,
    transition_matrix,
    uniform_irreducibility_constants,
)
from aufwalk.intertwiners import Intertwiner, IntertwinerEngine, ModelConfig, vtilde_norm_indecomposable
from aufwalk.kernels import (
    green_table,
    harnack_audit,
    last_entry_audit,
    martin_rows,
    multiplicativity_audit,
    ray_words,
    tail_decreasing,
    truncation_error_bound,
    weighted_operator_norm,
)
from aufwalk.perturbed import (
    BranchContext,
    commutation_defect,
    decay_audit,
    gdif_audit,
    green_Q,
    q_matrix,
    qhat_entry,
    qhat_oracle,
    required_entries,
    residual_matrix,
)
from aufwalk.words import (
    ball,
    branch,
    classical_dim,
    code_lengths,
    heap_index,
    heap_indices,
    indecomposable_factors,
    involution,
    qdim,
)
from aufwalk.cli import AUDITS, main as cli_main

QS = (0.3, 0.5, 0.7)
MU_A = Measure({"a": 1.0})
MU_AB = Measure({"a": 0.5, "b": 0.5})
MU_MIX = Measure({"a": 0.25, "b": 0.25, "ab": 0.5})


def criterion(num: int, desc: str, ok: bool, detail: str = ""):
    tail = f"  [{detail}]" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}{tail}")
    assert ok, f"criterion {num:02d} failed: {desc}{tail}"


def diagonal_within_bound(table) -> bool:
    """Every diagonal entry of a full Green table is at most 1/(1 - lam), lam the walk's norm bound."""
    return table.green.diagonal().max() <= 1.0 / (1.0 - table.walk.norm_bound)


@pytest.fixture(scope="module")
def engines():
    return {q: IntertwinerEngine(ModelConfig.from_q(q, n=2, tensor_cap=12)) for q in QS}


@pytest.fixture(scope="module")
def walk10():
    tm = transition_matrix(MU_AB, ball(10), 0.5)
    return tm, green_table(tm)


def test_c01_stochasticity():
    worst = 0.0
    for q in QS:
        for mu in (MU_A, MU_AB, MU_MIX):
            tm = transition_matrix(mu, ball(10), q)
            # the words farther than the range from the length-10 frontier
            interior = code_lengths(tm.codes) < 10 - tm.range_bound
            worst = max(worst, float(np.abs(tm.row_sums()[interior] - 1.0).max()))
    criterion(1, "interior row sums equal 1 on ball(10)", worst < 1e-12, f"max gap {worst:.2e}")


def test_c02_duality():
    worst = 0.0
    for q in QS:
        for mu in (MU_A, MU_AB, MU_MIX):
            worst = max(worst, dual_audit(transition_matrix(mu, ball(8), q)))
    criterion(2, "dual-measure identity on ball(8)", worst < 1e-12, f"max deviation {worst:.2e}")


def test_c03_norm_bound():
    ok = True
    details = []
    for q in QS:
        for mu in (MU_AB, MU_MIX):
            tm = transition_matrix(mu, ball(12), q)
            lam = tm.norm_bound
            bottom, top = weighted_operator_norm(tm.matrix, tm.haar_weights())
            ok = ok and bottom <= top <= lam < 1.0
            details.append(f"q={q} |P| in [{bottom:.4f}, {top:.4f}], top<={lam:.4f}")
    bound_05 = norm_upper_bound(MU_AB, ModelConfig.from_q(0.5).q)
    ok = ok and abs(bound_05 - 0.8) < 1e-12
    criterion(3, "weighted operator norm on ball(12) below the dimension bound", ok,
              "; ".join(details[:2]) + f"; bound(q=0.5)={bound_05:.12f}")


def test_c04_green_solver(walk10):
    tm, table = walk10
    ok = table.residual < 1e-10 and table.error_bound <= 1e-12 and diagonal_within_bound(table)
    for q in (0.3, 0.7):
        tq = green_table(transition_matrix(MU_AB, ball(8), q))
        ok = ok and tq.residual < 1e-10 and tq.error_bound <= 1e-12 and diagonal_within_bound(tq)
        # oracle: the certified rows (first, middle, last) against a dense inverse
        n = tq.size
        rows = [0, (n - 1) // 2, n - 1]
        inv = np.linalg.inv(np.eye(n) - tq.walk.matrix.toarray())[rows]
        ok = ok and (np.abs(tq.green[rows] - inv) / inv).max() <= tq.error_bound
    criterion(4, "Green solve residual, certified error bound, diagonal bound", ok,
              f"residual {table.residual:.2e}, error bound {table.error_bound:.2e}")


def test_c05_conjugate_equations(engines):
    worst = 0.0
    for q, eng in engines.items():
        r, rbar = eng.duality_maps()
        target = q + 1.0 / q
        for letter, first, second in (("a", r, rbar), ("b", rbar, r)):
            ident = Intertwiner((letter,), (letter,), np.eye(eng.n))
            comp = second.adjoint.tensor(ident) @ ident.tensor(first)
            worst = max(worst, float(np.abs(comp.array - np.eye(eng.n)).max()))
        worst = max(
            worst,
            abs(float((r.adjoint @ r).array[0, 0]) - target),
            abs(float((rbar.adjoint @ rbar).array[0, 0]) - target),
        )
    criterion(5, "conjugate equations and pairing normalization", worst < 1e-10,
              f"max residual {worst:.2e}")


def test_c06_projection_ranks(engines):
    mismatches = 0
    for q in (0.3, 0.5):
        eng = engines[q]
        for length in range(8):
            for letters in itertools.product("ab", repeat=length):
                w = "".join(letters)
                if eng.irr_dim(w) != classical_dim(w):
                    mismatches += 1
    criterion(6, "projection ranks match classical dimensions for |x| <= 7",
              mismatches == 0, f"{mismatches} mismatches")


def _triples(limit, cap):
    pool = [""] + ["".join(p) for L in range(1, limit) for p in itertools.product("ab", repeat=L)]
    for s, v, t in itertools.product(pool, repeat=3):
        if not v or len(s) + len(v) + len(t) > limit:
            continue
        if len(s) + 2 * len(v) + len(t) > cap:
            continue
        vb = involution(v)
        if (
            indecomposable_factors(s + v) == [s + v]
            and indecomposable_factors(v + vb) == [v + vb]
            and indecomposable_factors(vb + t) == [vb + t]
        ):
            yield s, v, t


def test_c07_vtilde_norms(engines):
    worst = 0.0
    floors = []
    for q, eng in engines.items():
        lo, hi, count = math.inf, 0.0, 0
        for s, v, t in _triples(6, eng.cfg.tensor_cap):
            nrm = eng.vtilde(s, v, t).norm
            closed = vtilde_norm_indecomposable(s, v, t, q)
            worst = max(worst, abs(nrm - closed) / closed)
            ratio = nrm / math.sqrt(qdim(v, q))
            lo, hi = min(lo, ratio), max(hi, ratio)
            count += 1
        floors.append(lo)
        assert count >= 100
        assert hi <= 1.0 + 1e-10
    ok = worst < 1e-8 and min(floors) > 0.1
    criterion(7, "almost-isometry norms match the Gaussian-binomial form", ok,
              f"worst rel {worst:.2e}, lower ratios {[f'{f:.3f}' for f in floors]}")


def test_c08_defect_decay(engines):
    ok = True
    details = []
    for q, eng in engines.items():
        pts = []
        # the two point masses cover complementary parities of the exponent
        for stems, u, y in ((["b", "ab", "bab", "abab"], "a", "ba"),
                            (["b", "ab", "bab", "abab"], "ab", "ba")):
            for stem in stems:
                x = stem + "a"
                d, e = eng.defect_audit(u, x, y, x)
                if d > 1e-12:
                    pts.append((e, math.log(d)))
        xs, ys = zip(*pts)
        slope = float(np.polyfit(xs, ys, 1)[0])
        gap = abs(slope / math.log(q) - 1.0)
        ok = ok and gap <= 0.2
        details.append(f"q={q} slope/logq={slope / math.log(q):.3f}")
    criterion(8, "projection-commutation defects decay at rate log q (within 20%)", ok,
              "; ".join(details))


def test_c09_qhat_realness_and_domination(engines):
    worst_oracle = 0.0
    worst_dom = -math.inf
    for q, eng in engines.items():
        mus = (MU_AB, MU_MIX) if q == 0.5 else (MU_AB,)
        for mu in mus:
            ctx = BranchContext(eng, transition_matrix(mu, ball(6), eng.q), "a", 6)
            for (u, s, t) in required_entries(ctx):
                val = qhat_entry(u, s, t, ctx)
                oracle, resid = qhat_oracle(u, s, t, ctx)
                worst_oracle = max(worst_oracle, abs(val - oracle), resid)
                p = qdim(t, q) / (qdim(u, q) * qdim(s, q)) if t else 0.0
                worst_dom = max(worst_dom, abs(val) - p)
    ok = worst_oracle < 1e-9 and worst_dom <= 1e-12
    criterion(9, "perturbed coefficients: cross-oracle agreement and domination", ok,
              f"oracle gap {worst_oracle:.2e}, domination excess {worst_dom:.2e}")


def test_c10_perturbation_envelope(engines):
    eng = engines[0.5]
    ctx = BranchContext(eng, transition_matrix(MU_AB, ball(5), eng.q), "a", 5)
    identity_gap = 0.0
    for (u, s, t) in required_entries(ctx):
        p = qdim(t, 0.5) / (qdim(u, 0.5) * qdim(s, 0.5))
        eps = commutation_defect(u, s, t, ctx)
        identity_gap = max(identity_gap, abs(p - qhat_entry(u, s, t, ctx) - p * eps ** 2 / 2))
    lengths, maxima, slope = decay_audit(residual_matrix(ctx), ctx)
    # the least constant c with residual <= c q^len over the maxima, widened by 1e-6
    c = max(m / ctx.q ** l for l, m in zip(lengths, maxima))
    envelope_gap = max(m - c * ctx.q ** l * (1 + 1e-6) for l, m in zip(lengths, maxima))
    envelope_ok = envelope_gap <= 0.0 and set(lengths) <= set(range(1, 6))
    # second order in the defect: the residual decays at twice the defect rate
    slope_ratio = slope / (2.0 * math.log(ctx.q))
    slope_ok = abs(slope_ratio - 1.0) <= 0.15
    criterion(10, "p - qhat = p eps^2/2 and fitted slope within 15% of 2 log q",
              envelope_ok and identity_gap <= 1e-12 and slope_ok,
              f"identity gap {identity_gap:.2e}, envelope gap {envelope_gap:.2e}, "
              f"slope/(2 logq) = {slope_ratio:.3f}")


def test_c11_harnack_and_multiplicativity():
    # each constant is judged by the comparison of its entry in the audit table
    audits = {a.name: a for group in AUDITS for a in group}
    ok = True
    details = []
    for q in QS:
        tm = transition_matrix(MU_AB, ball(8), q)
        table = green_table(tm)
        delta0, k = uniform_irreducibility_constants(tm, k_max=3)
        lengths = code_lengths(tm.codes)
        interior = tm.codes[(8 - lengths > tm.range_bound) & (lengths <= 6)]
        # the chain bound delta0^K, and the geodesic bounds 1/(1 - lam) and 3 (2/delta^2)^(S-1)
        delta = delta0 ** k
        empirical = harnack_audit(table, interior)
        c_lower, c_upper = multiplicativity_audit(table, interior)
        ok = ok and all(audits[name].entry(measured, bound)["pass"] for name, measured, bound in (
            ("harnack", empirical, delta),
            ("multiplicativity_lower", c_lower, 1.0 / (1.0 - tm.norm_bound)),
            ("multiplicativity_upper", c_upper, 3.0 * (2.0 / delta ** 2) ** (tm.range_bound - 1)),
        ))
        details.append(f"q={q} delta={empirical:.4f}>={delta:.4f}")
    criterion(11, "Harnack and geodesic multiplicativity with the chain constants", ok,
              "; ".join(details))


def test_c12_branch_green_envelope(engines):
    eng = engines[0.5]
    ctx = BranchContext(eng, transition_matrix(MU_AB, ball(7), eng.q), "a", 7)
    x_list = ["a", "ba", "aba", "baba"]
    rels = gdif_audit(q_matrix(ctx), ctx, x_list)
    # the envelope c q^len(x) anchored at the first word
    c = rels[0] / ctx.q ** len(x_list[0])
    envelope_gap = max(rel / (c * ctx.q ** len(x)) for rel, x in zip(rels, x_list))
    ok = envelope_gap <= 1.0 + 1e-9
    criterion(12, "perturbed branch Green kernels inside a single q^len(x) envelope", ok,
              f"relative gaps {[f'{r:.2e}' for r in rels]}, envelope gap {envelope_gap:.6f}")


def test_c13_last_entry(walk10):
    tm, table = walk10
    sub, x = branch("a", 10), heap_index("a")
    branch_table = green_table(tm.restrict(sub))
    worst = 0.0
    for s in heap_indices(["b", "ab", "bb"]):
        for t in heap_indices(["a", "aa", "aba", "baa"]):
            worst = max(worst, last_entry_audit(s, t, table, branch_table))
    ok = worst < 1e-8
    # range-2 measure: residual must stay below the combined truncation bounds
    tm2 = transition_matrix(MU_MIX, ball(10), 0.5)
    table2 = green_table(tm2)
    branch2 = green_table(tm2.restrict(sub))
    worst2 = 0.0
    combined = math.inf
    for s, t in (("b", "aa"), ("ab", "a")):
        worst2 = max(worst2, last_entry_audit(heap_index(s), heap_index(t), table2, branch2))
        combined = min(
            combined,
            truncation_error_bound(10, heap_index(s), heap_index(t), tm2)
            + truncation_error_bound(10, heap_index("a"), heap_index(t), tm2),
        )
    ok = ok and worst2 <= combined
    criterion(13, "last-entry decomposition through the branch cut", ok,
              f"range-1 residual {worst:.2e}; range-2 residual {worst2:.2e} <= {combined:.2e}")


def test_c14_boundary_profiles(engines):
    ok = True
    details = []
    for q in QS:
        eng = IntertwinerEngine(ModelConfig.from_q(q, n=2, tensor_cap=10))
        tm = transition_matrix(MU_AB, ball(7), eng.q)
        ctx = BranchContext(eng, tm, "a", 7)
        full = green_table(tm)
        _, q_table = green_Q(ctx)
        ray = ray_words("", "a", "a", 6)
        sources = heap_indices(["a" * k for k in range(1, 6)])
        k_p = martin_rows(full, sources, ray)
        k_q = martin_rows(q_table, sources, ray, root=full)
        trend = np.abs(k_q[:, -1] / k_p[:, -1] - 1.0)
        cauchy = all(
            tail_decreasing(s, ray, p_values) and tail_decreasing(s, ray, q_values)
            for s, p_values, q_values in zip(sources, k_p, k_q)
        )
        positive = (k_q[:, -1] > 0).all()
        toward_one = all(b < a for a, b in zip(trend, trend[1:]))
        ok = ok and cauchy and positive and toward_one
        details.append(f"q={q} |ratio-1| {trend[0]:.1e}->{trend[-1]:.1e}")
    criterion(14, "ray profiles Cauchy, perturbed kernel positive, ratio moves to 1", ok,
              "; ".join(details))


def test_c15_reproducibility(tmp_path):
    import json as _json

    cfg = {
        "model": {"n": 2, "q": 0.5},
        "measure": {"a": 0.5, "b": 0.5},
        "ballRadius": 6,
        "tensorCap": 10,
        "branchZ": "a",
        "rays": [["e", "a"]],
        "sources": ["e", "a"],
        "tolerances": {"solver": 1e-10},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(_json.dumps(cfg))
    blobs = []
    for _ in range(2):
        for command in ("walk", "boundary", "intertwiner"):
            assert cli_main([command, str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        blobs.append(
            {p.name: p.read_bytes() for p in sorted((tmp_path / "run").iterdir())}
        )
    criterion(15, "identical configs produce byte-identical outputs", blobs[0] == blobs[1],
              f"{len(blobs[0])} files compared")
