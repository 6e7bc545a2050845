
import math
import tracemalloc

import numpy as np
import pytest

from aufwalk.fusion import CSR, Measure, fuse, multiplicity, norm_upper_bound, transition_matrix
from aufwalk.intertwiners import IntertwinerEngine, ModelConfig, TensorCapError
from aufwalk.kernels import (
    Shortfall,
    green_table,
    martin_rows,
    ray_words,
    tail_decreasing,
    weighted_operator_norm,
)
from aufwalk.perturbed import (
    BranchContext,
    commutation_defect,
    decay_audit,
    exact_by_cut,
    gdif_audit,
    green_Q,
    q_matrix,
    qhat_entry,
    qhat_oracle,
    required_entries,
    residual_matrix,
    trace_routes,
)
from aufwalk.words import ball, ball_words, branch, ends_with, heap_index, heap_indices, involution, qdim, word
from conftest import branch_context, from_scipy, to_scipy

Q = 0.5


@pytest.fixture(scope="module")
def setup(engine, mu_letters):
    tm = transition_matrix(mu_letters, ball(6), engine.q)
    ctx = BranchContext(engine, tm, "a", 6)
    return ctx, tm, ctx.walk.matrix.toarray()


class TestBranchContext:
    def test_y_is_zbar_z(self, engine, mu_letters):
        ctx = branch_context(engine, mu_letters, "ab", 5)
        assert ctx.y == involution("ab") + "ab" == "abab"
        assert all(word(c).endswith("ab") for c in ctx.walk.codes)

    def test_holds_the_restricted_walk(self, setup, mu_letters):
        ctx, tm, _ = setup
        assert ctx.walk.codes.tolist() == branch("a", 6).tolist() and ctx.walk.mu is mu_letters and ctx.q == tm.q
        assert not {"omega", "index"} & set(vars(ctx))

    def test_walk_must_hold_the_branch(self, engine, mu_letters):
        with pytest.raises(ValueError, match="'aaaaaa'"):
            BranchContext(engine, transition_matrix(mu_letters, ball(5), engine.q), "a", 6)

    def test_walk_at_another_q_rejected(self, engine, mu_letters):
        with pytest.raises(ValueError, match="engine"):
            BranchContext(engine, transition_matrix(mu_letters, ball(6), 0.3), "a", 6)

    def test_membership_matches_fusion(self, setup):
        # w lies in the branch of z iff w is a component of w (x) y, y = bar(z) z
        ctx, _, _ = setup
        for w in ball_words(5):
            assert (multiplicity(w, w, ctx.y) == 1) == ctx.contains(w) == w.endswith("a")

    def test_rejects_empty(self, engine):
        with pytest.raises(ValueError):
            BranchContext(engine, transition_matrix(Measure({"a": 0.5, "b": 0.5}), ball(4), engine.q), "", 4)


class TestQhatEntry:
    def test_empty_u_is_identity(self, setup):
        ctx, _, _ = setup
        assert qhat_entry("", "a", "a", ctx) == 1.0
        assert qhat_entry("", "aa", "aa", ctx) == 1.0
        assert qhat_entry("", "aa", "ba", ctx) == 0.0

    def test_zero_without_fusion_component(self, setup):
        ctx, _, _ = setup
        assert qhat_entry("a", "a", "ba", ctx) == 0.0

    def test_real_float_output(self, setup):
        ctx, _, _ = setup
        val = qhat_entry("a", "a", "aa", ctx)
        assert isinstance(val, float)

    def test_oracle_agreement_and_domination(self, setup):
        ctx, _, _ = setup
        worst = 0.0
        for (u, s, t) in required_entries(ctx):
            val = qhat_entry(u, s, t, ctx)
            oracle, resid = qhat_oracle(u, s, t, ctx)
            worst = max(worst, abs(val - oracle), resid)
            p = multiplicity(t, u, s) * qdim(t, Q) / (qdim(u, Q) * qdim(s, Q))
            assert abs(val) <= p + 1e-12
        assert worst < 1e-9

    def test_outside_branch_rejected(self, setup):
        ctx, _, _ = setup
        with pytest.raises(ValueError):
            qhat_entry("a", "ab", "b", ctx)

    def test_cap_exceeded_lists_entry(self, engine, mu_letters):
        small = branch_context(IntertwinerEngine(ModelConfig.from_q(Q, tensor_cap=5)), mu_letters, "a", 6)
        with pytest.raises(TensorCapError):
            qhat_entry("a", "aba", "aaba", small)

    def test_cut_rule_entry_above_cap_is_classical(self, mu_letters):
        small = branch_context(IntertwinerEngine(ModelConfig.from_q(Q, tensor_cap=5)), mu_letters, "a", 6)
        u, s, t = "a", "a" * 5, "a" * 6
        assert exact_by_cut(u, s, t, small.z)
        q = small.q
        assert qhat_entry(u, s, t, small) == qdim(t, q) / (qdim(u, q) * qdim(s, q))
        assert not any(k[0] == "qhat" for k in small.engine._memos)


def _cut_anywhere(u, s, t, z):
    """Negative control: the cut rule without either bound."""
    return any(s[j - 1] == s[j] for j in range(1, len(s)))


def _cut_past_cancellation(u, s, t, z):
    """Negative control: the cut rule without the bound from z."""
    c = (len(u) + len(s) - len(t)) // 2
    return any(s[j - 1] == s[j] for j in range(c + 1, len(s)))


CUT_RULES = {"rule": exact_by_cut, "any cut": _cut_anywhere, "no z bound": _cut_past_cancellation}
CUT_GRID = [
    (q, z, radius) for q in (0.3, 0.7) for z, radius in (("a", 6), ("ab", 6), ("aab", 5), ("baa", 5))
]


@pytest.fixture(scope="module")
def cut_gaps():
    """Per grid point and rule: the number of required entries the rule
    selects, for the uniform measure on the 14 words of length <= 3, and the
    worst |qhat - p| / p over them, with qhat the full partial trace of
    qhat_oracle (which never takes the cut rule)."""
    mu = Measure({w: 1 / 14 for w in ball_words(3) if w})
    out = {}
    for q, z, radius in CUT_GRID:
        ctx = branch_context(IntertwinerEngine(ModelConfig.from_q(q, tensor_cap=14)), mu, z, radius)
        gaps = {name: (0, 0.0) for name in CUT_RULES}
        for (u, s, t) in set(required_entries(ctx)):
            chosen = [name for name, rule in CUT_RULES.items() if rule(u, s, t, z)]
            if not chosen:
                continue
            p = qdim(t, ctx.q) / (qdim(u, ctx.q) * qdim(s, ctx.q))
            gap = abs(qhat_oracle(u, s, t, ctx)[0] - p) / p
            for name in chosen:
                n, worst = gaps[name]
                gaps[name] = (n + 1, max(worst, gap))
        out[q, z] = gaps
    return out


class TestCutRule:
    @pytest.mark.parametrize("q,z", [(q, z) for q, z, _ in CUT_GRID])
    def test_rule_matches_full_trace(self, cut_gaps, q, z):
        n, worst = cut_gaps[q, z]["rule"]
        assert n > 0
        assert worst <= 1e-13

    @pytest.mark.parametrize("control,z", [("any cut", "a"), ("no z bound", "baa")])
    def test_controls_without_a_bound_fail(self, cut_gaps, control, z):
        for q in (0.3, 0.7):
            assert cut_gaps[q, z][control][1] > 0.5

    def test_bounds(self):
        # c = 0: the cut at j = 1 lies past the cancellation but inside y's reach
        assert not exact_by_cut("a", "aa", "aaa", "aa")
        assert exact_by_cut("a", "aa", "aaa", "a")
        # c = 1: the cut at j = 1 lies inside the cancellation
        assert not exact_by_cut("b", "aaba", "aba", "a")
        assert exact_by_cut("b", "aaaba", "aaba", "a")


class TestQMatrix:
    def test_dominated_by_classical(self, setup):
        ctx, _, p_branch = setup
        qm = q_matrix(ctx).matrix.toarray()
        assert (np.abs(qm) <= p_branch + 1e-12).all()

    def test_leaves_the_classical_walk_unchanged(self, setup):
        ctx, _, p_branch = setup
        before = ctx.walk.matrix
        qm = q_matrix(ctx)
        assert ctx.walk.matrix is before and np.array_equal(before.toarray(), p_branch)
        assert qm.matrix is not before and not np.array_equal(qm.matrix.toarray(), p_branch)
        assert qm.codes is ctx.walk.codes

    def test_zero_pattern_inside_classical(self, setup):
        ctx, _, p_branch = setup
        qm = q_matrix(ctx).matrix.toarray()
        assert (np.abs(qm[p_branch == 0]) < 1e-14).all()

    def test_point_mass_at_root_gives_identity(self, engine):
        ctx = branch_context(engine, Measure({"": 1.0}), "a", 6)
        qm = q_matrix(ctx)
        assert np.array_equal(qm.matrix.toarray(), np.eye(ctx.walk.size))

    def test_exact_on_all_a_words(self, setup):
        # on the doubled-letter sub-branch the perturbed and classical
        # weights coincide exactly
        ctx, _, p_branch = setup
        qm = q_matrix(ctx).matrix.toarray()
        sub = np.flatnonzero(ends_with(ctx.walk.codes, heap_index("aa")))
        gap = np.abs(qm[np.ix_(sub, sub)] - p_branch[np.ix_(sub, sub)])
        assert gap.max() < 1e-12

    def test_second_assembly_traces_nothing(self, mu_letters, monkeypatch):
        # every computed coefficient is read back from the engine memo
        ctx = branch_context(IntertwinerEngine(ModelConfig.from_q(Q, tensor_cap=8)), mu_letters, "a", 5)
        calls = []
        build = ctx.engine.normalized_V
        monkeypatch.setattr(ctx.engine, "normalized_V", lambda *a: calls.append(a) or build(*a))
        first = q_matrix(ctx).matrix.toarray()
        assert calls
        calls.clear()
        assert np.array_equal(q_matrix(ctx).matrix.toarray(), first)
        assert calls == []

    def test_cap_violation_reported(self, mu_letters):
        ctx = branch_context(IntertwinerEngine(ModelConfig.from_q(Q, tensor_cap=6)), mu_letters, "a", 6)
        with pytest.raises(TensorCapError):
            q_matrix(ctx)

    def test_norm_dominated_by_classical(self, setup, mu_letters):
        ctx, _, p_branch = setup
        qm = q_matrix(ctx)
        m = ctx.walk.haar_weights()
        assert qm.norm_bound == norm_upper_bound(mu_letters, ctx.q)
        # |qhat| <= p: the Collatz-Wielandt top of Q is at most that of P, and
        # the interval holds Q's norm, from a dense SVD of its conjugate
        q_bottom, q_top = weighted_operator_norm(qm.matrix, m)
        _, p_top = weighted_operator_norm(p_branch, m)
        d = np.sqrt(m)
        norm = np.linalg.norm(d[:, None] * qm.matrix.toarray() / d[None, :], 2)
        assert q_bottom <= norm <= q_top <= p_top <= qm.norm_bound
        # range-1 coefficients are positive; with signs flipped |qhat| <= p
        # still holds, and so does the classical top
        signed = from_scipy(to_scipy(qm.matrix))
        signed.data[::2] *= -1.0
        s_bottom, s_top = weighted_operator_norm(signed, m)
        assert s_bottom <= s_top == q_top <= p_top


def entrywise_q_matrix(ctx):
    """The branch matrix entry by entry: mud(u) (m_s / m_t)^2 qhat_u(s, t)
    summed over every required entry, traced or not, into a dense array."""
    mud = ctx.walk.mu.dual()
    dims = ctx.walk.qdims()
    out = np.zeros((ctx.walk.size, ctx.walk.size))
    for (u, s, t) in required_entries(ctx):
        si, ti = ctx.walk.positions(heap_indices([s, t]))
        out[ti, si] += mud.weight(u) * (dims[si] / dims[ti]) ** 2 * qhat_entry(u, s, t, ctx)
    return out


class TestSparseQMatrix:
    @pytest.fixture(params=[(0.3, "mu_letters"), (0.3, "mu_mixed"), (0.7, "mu_letters"), (0.7, "mu_mixed")])
    def case(self, request):
        q, measure = request.param
        return branch_context(
            IntertwinerEngine(ModelConfig.from_q(q, tensor_cap=10)), request.getfixturevalue(measure), "a", 5
        )

    def test_matches_the_entrywise_oracle(self, case):
        ctx = case
        qm = q_matrix(ctx)
        assert qm.codes is ctx.walk.codes and qm.q == ctx.q
        assert isinstance(qm.matrix, CSR)
        want = entrywise_q_matrix(ctx)
        assert (np.abs(qm.matrix.toarray() - want) <= 1e-15 * np.abs(want)).all()

    def test_classical_off_the_traced_cells(self, case):
        ctx = case
        traced = np.zeros((ctx.walk.size, ctx.walk.size), dtype=bool)
        for (u, s, t) in required_entries(ctx):
            if u and not exact_by_cut(u, s, t, ctx.z):
                traced[tuple(ctx.walk.positions(heap_indices([t, s])))] = True
        classical = transition_matrix(ctx.walk.mu, ctx.walk.codes, ctx.q).matrix.toarray()
        assert 0 < traced.sum() < (classical != 0).sum() / 2
        assert np.array_equal(q_matrix(ctx).matrix.toarray()[~traced], classical[~traced])
        assert residual_matrix(ctx).toarray()[~traced].max() == 0.0

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("weights", [
        {"a": 0.5, "b": 0.5}, {"a": 0.25, "b": 0.25, "ab": 0.5}, {"a": 0.25, "b": 0.25, "aa": 0.25, "ba": 0.25},
    ])
    def test_restricted_ball_walk_is_the_branch_assembly(self, q, weights):
        """A restriction of the ball walk, to a branch or to the generating
        check's ball of radius 4, equals the assembly there bit for bit, with
        the same sparsity structure, so no sub-domain needs an assembly of its own."""
        mu = Measure(weights)
        ball_walk = transition_matrix(mu, ball(7), q)
        for sub in (branch("a", 7), branch("ab", 6), branch("b", 5), ball(4)):
            got = ball_walk.restrict(sub).matrix
            want = transition_matrix(mu, sub, q).matrix
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), (sub[0], part)

    def test_no_dense_table_at_ball_11(self):
        """At cap 14, ball 11 (2047 words, one n x n float table is 32 MiB)
        both assemblies stay a small fraction of a table, cold or warm."""
        engine = IntertwinerEngine(ModelConfig.from_q(Q, tensor_cap=14))
        ctx = branch_context(engine, Measure({"a": 0.35, "b": 0.65}), "a", 11)
        assert ctx.walk.size == 2047
        for build in (q_matrix, residual_matrix, q_matrix):
            tracemalloc.start()
            try:
                build(ctx)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2 ** 20


class TestDecayAudit:
    def test_envelope_and_rate(self, setup):
        ctx, _, _ = setup
        lengths, maxima, slope = decay_audit(residual_matrix(ctx), ctx)
        # the least single constant over the maxima keeps each one inside c q^len
        c = max(m / ctx.q ** l for l, m in zip(lengths, maxima))
        assert max(m - c * ctx.q ** l * (1 + 1e-6) for l, m in zip(lengths, maxima)) <= 0.0
        assert len(lengths) >= 4 and lengths == sorted(lengths) and len(maxima) == len(lengths)
        # measured slope: one factor of q^2 per unit length (the trace kills
        # the first-order defect), strictly below the guaranteed envelope
        assert slope <= math.log(ctx.q)
        assert slope == pytest.approx(2.0 * math.log(ctx.q), rel=0.1)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_residual_matrix_is_the_difference(self, q, mu_mixed):
        """The residual built from the defects is |q_matrix - p| entry by entry."""
        ctx = branch_context(IntertwinerEngine(ModelConfig.from_q(q, tensor_cap=10)), mu_mixed, "a", 5)
        p_branch = ctx.walk.matrix.toarray()
        resid = residual_matrix(ctx).toarray()
        assert resid.min() >= 0.0 and resid.max() > 1e-3
        assert np.abs(resid - np.abs(q_matrix(ctx).matrix.toarray() - p_branch)).max() <= 1e-14

    def test_needs_enough_lengths(self, engine, mu_letters):
        ctx = branch_context(engine, mu_letters, "a", 3)
        with pytest.raises(Shortfall, match="lengths") as info:
            decay_audit(residual_matrix(ctx), ctx)
        assert info.value.need == 4 and info.value.have < 4


class TestTraceRoutes:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_residual_is_half_the_squared_defect(self, q, mu_letters):
        # no rate window here: at q = 0.7 lengths 1-5 are still pre-asymptotic
        ctx = branch_context(IntertwinerEngine(ModelConfig.from_q(q, tensor_cap=10)), mu_letters, "a", 5)
        for (u, s, t) in required_entries(ctx):
            route_a, route_b = trace_routes(u, s, t, ctx)
            ident = np.eye(route_a.shape[1])
            assert np.abs(route_a.T @ route_a - ident).max() < 1e-12
            assert np.abs(route_b.T @ route_b - ident).max() < 1e-12
            p = qdim(t, q) / (qdim(u, q) * qdim(s, q))
            eps = commutation_defect(u, s, t, ctx)
            assert p - qhat_entry(u, s, t, ctx) == pytest.approx(p * eps ** 2 / 2, abs=1e-12)

    def test_rejects_non_component(self, setup):
        ctx, _, _ = setup
        with pytest.raises(ValueError, match="component"):
            trace_routes("a", "a", "ba", ctx)


def kron_routes(u, s, t, ctx):
    """The trace routes through explicit Kronecker products with identities."""
    eng = ctx.engine
    v_us = eng.normalized_V(t, u, s)
    v_ty = eng.normalized_V(t, t, ctx.y)
    v_sy = eng.normalized_V(s, s, ctx.y)
    d_u, d_y = eng.irr_dim(u), eng.irr_dim(ctx.y)
    route_a = np.kron(np.eye(d_u), v_sy) @ v_us
    route_b = np.kron(v_us, np.eye(d_y)) @ v_ty
    return v_us, v_sy, route_a, route_b


def kron_qhat(u, s, t, ctx):
    """qhat_u(s, t) as trace(composite @ W) with the Kronecker-product routes."""
    eng = ctx.engine
    v_us, v_sy, _, route_b = kron_routes(u, s, t, ctx)
    composite = np.kron(np.eye(eng.irr_dim(u)), v_sy.T) @ (route_b @ v_us.T)
    weight = np.kron(eng.rho_weight(u), eng.rho_weight(s))
    return float(np.trace(composite @ weight)) / (eng.qdim(u) * eng.qdim(s))


class TestKroneckerFree:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_entries_and_routes_match_kron_formula(self, q, mu_mixed):
        ctx = branch_context(IntertwinerEngine(ModelConfig.from_q(q, n=2, tensor_cap=10)), mu_mixed, "a", 5)
        entries = required_entries(ctx)
        assert len(entries) > 50
        for (u, s, t) in entries:
            assert qhat_entry(u, s, t, ctx) == pytest.approx(kron_qhat(u, s, t, ctx), abs=1e-13)
            route_a, route_b = trace_routes(u, s, t, ctx)
            _, _, ref_a, ref_b = kron_routes(u, s, t, ctx)
            assert np.abs(route_a - ref_a).max() <= 1e-13
            assert np.abs(route_b - ref_b).max() <= 1e-13


class TestGreenQ:
    def test_solver_tolerance_below_residual_raises(self, setup):
        ctx, _, _ = setup
        qm, table = green_Q(ctx)
        assert table.residual > 0.0
        with pytest.raises(RuntimeError, match="residual"):
            green_Q(ctx, solver_tol=table.residual / 2)
        # the first sub-branch solve of the gap audit is the perturbed one on H_a
        resid = green_table(qm.restrict(branch("a", ctx.radius))).residual
        assert resid > 0.0
        with pytest.raises(RuntimeError, match="residual"):
            gdif_audit(qm, ctx, ["a", "ba"], solver_tol=resid / 2)

    def test_solver_contract(self, setup):
        ctx, _, p_branch = setup
        qm, table = green_Q(ctx)
        assert table.residual < 1e-10
        assert table.green.diagonal().min() >= 1.0 - 1e-12
        m = ctx.walk.haar_weights()
        assert table.norm_interval[1] <= weighted_operator_norm(p_branch, m)[1]

    def test_martin_Q_bounded(self, setup):
        ctx, tm, _ = setup
        _, q_table = green_Q(ctx)
        full = green_table(tm)
        omega = ctx.walk.codes
        kq = martin_rows(q_table, omega, omega, root=full)
        assert kq.shape == (len(omega), len(omega))
        assert np.isfinite(kq).all()
        a, aa = ctx.walk.positions(heap_indices(["a", "aa"]))
        assert kq[a, a] > 0
        # normalised by the classical G(e, t), not at the branch table's own root
        assert kq[0, aa] == q_table.green[0, aa] / full.green_entry(0, heap_index("aa"))

    def test_synthetic_identical_matrices_give_zero_gap(self, setup):
        ctx, tm, _ = setup
        sub = branch("aa", ctx.radius)
        g_q = green_table(q_matrix(ctx).restrict(sub))
        g_p = green_table(tm.restrict(sub))
        assert np.abs(g_q.green - g_p.green).max() < 1e-10


class TestGdif:
    def test_envelope_along_alternating_branches(self, setup):
        ctx, _, _ = setup
        x_list = ["a", "ba", "aba"]
        rels = gdif_audit(q_matrix(ctx), ctx, x_list)
        assert rels[0] > rels[1] > rels[2] > 0
        # anchored envelope: deeper branches decay at least as fast as q
        c = rels[0] / ctx.q ** len(x_list[0])
        assert max(rel / (c * ctx.q ** len(x)) for rel, x in zip(rels, x_list)) <= 1.0 + 1e-9

    def test_rejects_words_outside_branch(self, setup):
        ctx, _, _ = setup
        with pytest.raises(ValueError):
            gdif_audit(q_matrix(ctx), ctx, ["b"])

    def test_rejects_an_empty_word_list(self, setup):
        # no envelope is anchored without a first word: a shortfall of 0 words against 1
        ctx, _, _ = setup
        with pytest.raises(Shortfall, match="only 0 sub-branch words; need at least 1") as info:
            gdif_audit(q_matrix(ctx), ctx, [])
        assert (info.value.have, info.value.need) == (0, 1)


class TestBoundary:
    def test_ratio_trend_and_positivity(self, engine, mu_letters):
        radius = 7
        tm = transition_matrix(mu_letters, ball(radius), engine.q)
        ctx = BranchContext(engine, tm, "a", radius)
        full = green_table(tm)
        _, q_table = green_Q(ctx)
        ray = ray_words("", "a", "a", radius - 1)
        s_list = heap_indices(["a" * k for k in range(1, 6)])
        k_p = martin_rows(full, s_list, ray)
        k_q = martin_rows(q_table, s_list, ray, root=full)
        trend = np.abs(k_q[:, -1] / k_p[:, -1] - 1.0)
        assert all(b < a for a, b in zip(trend, trend[1:]))
        assert (k_q[:, -1] > 0).all()
        for s, p_values, q_values in zip(s_list, k_p, k_q):
            assert tail_decreasing(s, ray, p_values)
            assert tail_decreasing(s, ray, q_values)

    def test_ray_outside_branch_rejected(self, setup):
        ctx, tm, _ = setup
        _, q_table = green_Q(ctx)
        full = green_table(tm)
        with pytest.raises(ValueError, match="leaves the domain at 'b'"):
            martin_rows(q_table, [heap_index("a")], [heap_index("b")], root=full)
