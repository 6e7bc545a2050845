import collections
import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from aufwalk import cli
from aufwalk.fusion import Measure, transition_matrix
from aufwalk.intertwiners import (
    Intertwiner,
    IntertwinerEngine,
    ModelConfig,
    TensorCapError,
    split_component,
    vtilde_norm_indecomposable,
)
from aufwalk.perturbed import BranchContext, exact_by_cut, qhat_entry, required_entries
from aufwalk.words import ball, ball_words, classical_dim, indecomposable_factors, involution, qdim, qnumber

Q = 0.5


def identity_on(eng, factors):
    return Intertwiner(tuple(factors), tuple(factors), np.eye(eng.block_dim(tuple(factors))))


def inclusion(eng, x, y):
    """The embedding H_xy -> H_x (x) H_y as an intertwiner."""
    return Intertwiner((x, y), (x + y,), eng.inclusion_block(x, y))


def indecomposable_triples(limit):
    pool = [""] + ["".join(p) for L in range(1, limit) for p in itertools.product("ab", repeat=L)]
    for s, v, t in itertools.product(pool, repeat=3):
        if not v or len(s) + len(v) + len(t) > limit:
            continue
        vb = involution(v)
        if (
            indecomposable_factors(s + v) == [s + v]
            and indecomposable_factors(v + vb) == [v + vb]
            and indecomposable_factors(vb + t) == [vb + t]
        ):
            yield s, v, t


class TestModelConfig:
    def test_from_q_roundtrip(self):
        for q in (0.3, 0.5, 0.7, 1e-4, 1e-7, 1e-9):
            cfg = ModelConfig.from_q(q, n=2)
            assert cfg.q == pytest.approx(q, rel=1e-12)
            lam = cfg.lambdas
            target = q + 1.0 / q
            assert sum(l * l for l in lam) == pytest.approx(target, rel=1e-12)
            assert sum(l ** -2 for l in lam) == pytest.approx(target, rel=1e-12)

    def test_higher_n(self):
        cfg = ModelConfig.from_q(0.2, n=3, tensor_cap=8)
        assert cfg.n == 3
        assert sum(cfg.rho) == pytest.approx(0.2 + 5.0, rel=1e-12)

    def test_cap_bounds_the_ambient_rows(self):
        # n^cap ambient rows at most 2^14, the bound cap 14 sets at n = 2
        cfg = ModelConfig.from_q(0.2, n=3, tensor_cap=8)
        with pytest.raises(ValueError, match="tensor_cap"):
            ModelConfig(q=cfg.q, rho=cfg.rho, tensor_cap=9)

    def test_unitary_two_by_two_rejected(self):
        with pytest.raises(ValueError, match="q = 1|unitary"):
            ModelConfig.from_f_diag((1.0, 1.0), n=2)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            ModelConfig.from_f_diag((2.0, 1.0), n=2)

    @pytest.mark.parametrize("f_diag", [(1e-200, 1e200), (1e-160, 1e160), (0.5, 1e-300)])
    def test_rho_outside_the_normal_floats_rejected(self, f_diag):
        with pytest.raises(ValueError, match="normal positive float"):
            ModelConfig.from_f_diag(f_diag, n=2)

    def test_overflowing_trace_is_not_normalized(self):
        # each rho = 1e308 is normal, but their sum overflows to inf
        with pytest.raises(ValueError, match="not normalized"):
            ModelConfig.from_f_diag((1e154, 1e154), n=2)

    @pytest.mark.parametrize("q", [1e-320, 5e-324])
    def test_q_too_small_for_floats_rejected(self, q):
        with pytest.raises(ValueError, match="too small"):
            ModelConfig.from_q(q)

    @pytest.mark.parametrize("q", [1e-160, 1e-300])
    def test_tiny_q_kept_where_t_squared_overflows(self, q):
        # t = q + 1/q squares past the float range; the root is then 1/t
        assert ModelConfig.from_q(q).q == pytest.approx(q, rel=1e-15)

    def test_cap_limits(self):
        with pytest.raises(ValueError):
            ModelConfig.from_q(0.5, tensor_cap=15)

    @pytest.mark.parametrize("q", [round(0.30 + 0.05 * k, 2) for k in range(9)])
    def test_from_q_keeps_q_and_the_character_q_1_over_q(self, q):
        cfg = ModelConfig.from_q(q, n=2)
        assert cfg.q == q
        assert cfg.rho == (q, 1.0 / q)

    @pytest.mark.parametrize("q", [0.2, 0.3, 0.35])
    def test_higher_n_keeps_q(self, q):
        cfg = ModelConfig.from_q(q, n=3, tensor_cap=8)
        assert cfg.q == q
        assert sum(cfg.rho) == pytest.approx(q + 1.0 / q, rel=1e-12)

    def test_from_f_diag_takes_the_root_of_the_trace(self):
        # rho = f^2 sums to 2.5 with round-off, and q + 1/q = 2.5 has that root below 1
        f_diag = (math.sqrt(0.5), math.sqrt(2.0))
        cfg = ModelConfig.from_f_diag(f_diag, n=2)
        assert cfg.q == 0.4999999999999998
        assert cfg.rho == tuple(f * f for f in f_diag)

    @pytest.mark.parametrize("q, rho", [
        (0.3, (0.5, 2.0)),
        (0.5 * (1 + 1e-11), (0.5, 2.0)),
        (2.0, (0.5, 2.0)),  # q + 1/q agrees, but q is not below 1
        (0.2, (0.5, 2.0, 1.0)),
    ])
    def test_q_that_disagrees_with_the_character_rejected(self, q, rho):
        with pytest.raises(ValueError, match="q \\+ 1/q = sum rho"):
            ModelConfig(q=q, rho=rho, tensor_cap=8)


class TestDualityMaps:
    def test_pairing_norms(self, engine):
        r, rbar = engine.duality_maps()
        target = engine.q + 1.0 / engine.q
        assert (r.adjoint @ r).array[0, 0] == pytest.approx(target, rel=1e-12)
        assert (rbar.adjoint @ rbar).array[0, 0] == pytest.approx(target, rel=1e-12)
        assert r.norm == pytest.approx(math.sqrt(target), rel=1e-12)

    def test_conjugate_equations_all_letter_pairs(self, engine):
        r, rbar = engine.duality_maps()
        for letter, first, second in (("a", r, rbar), ("b", rbar, r)):
            ident = identity_on(engine, (letter,))
            comp = second.adjoint.tensor(ident) @ ident.tensor(first)
            assert np.abs(comp.array - np.eye(engine.n)).max() < 1e-10

    def test_standard_solution_norm_squared_is_qdim(self, engine):
        for v in ("a", "b", "ab", "ba", "aa", "aab", "abab"):
            rb = engine.rbar_block(v)
            assert rb @ rb == pytest.approx(qdim(v, engine.q), rel=1e-11)

    def test_nested_gram_matches_weights(self, engine):
        # the Gram matrix of the nested solution is the character weight block
        for factors in (("a",), ("ab",), ("a", "ba"), ("ab", "b")):
            m = engine.nested_r_matrix(factors)
            gram = m.T @ m
            w = np.eye(1)
            for f in factors:
                w = np.kron(w, engine.rho_weight(f))
            assert np.abs(gram - w).max() < 1e-10


class TestProjections:
    def test_ranks_match_classical_dims(self, engine):
        for w in ball_words(7):
            assert engine.irr_dim(w) == classical_dim(w)

    def test_projection_properties(self, engine):
        for w in ("ab", "aab", "abab", "babab"):
            p = engine.word_projection(w).array
            assert np.abs(p @ p - p).max() < 1e-10
            assert np.abs(p - p.T).max() < 1e-10
            assert np.linalg.matrix_rank(p, tol=1e-9) == classical_dim(w)

    def test_letter_projections_are_identity(self, engine):
        assert np.array_equal(engine.word_projection("a").array, np.eye(2))
        assert np.abs(engine.word_projection("aa").array - np.eye(4)).max() < 1e-12

    def test_entries_real_dtype(self, engine):
        assert engine.word_projection("ab").array.dtype == np.float64

    def test_cap_enforced(self):
        eng = IntertwinerEngine(ModelConfig.from_q(0.5, tensor_cap=4))
        with pytest.raises(TensorCapError):
            eng.basis("ababa")

    def test_basis_memory_is_linear_in_the_constraint_rows(self):
        """The last-gap constraint of the alternating word of length 14 has
        4096 rows and 28 columns; its null space comes from a thin SVD, so no
        4096 x 4096 factor (128 MiB) is ever allocated."""
        eng = IntertwinerEngine(ModelConfig.from_q(0.5, tensor_cap=14))
        w = "ab" * 7
        eng.basis(w[:-1])
        tracemalloc.start()
        try:
            b = eng.basis(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b.shape == (2 ** 14, classical_dim(w))
        assert np.abs(b.T @ b - np.eye(b.shape[1])).max() < 1e-10
        assert peak < 32 * 2 ** 20


class TestInclusions:
    def test_isometry(self, engine):
        for x, y in (("", "ab"), ("a", "a"), ("a", "b"), ("ab", "ba"), ("ba", "ab")):
            v = engine.inclusion_block(x, y)
            d = v.shape[1]
            assert v.shape[0] == engine.irr_dim(x) * engine.irr_dim(y) and d == engine.irr_dim(x + y)
            assert np.abs(v.T @ v - np.eye(d)).max() < 1e-10

    def test_trivial_cases(self, engine):
        assert np.abs(engine.inclusion_block("", "ab") - np.eye(3)).max() < 1e-12
        assert np.abs(engine.inclusion_block("a", "a") - np.eye(4)).max() < 1e-12

    def test_ab_image_dimension(self, engine):
        v = engine.inclusion_block("a", "b")
        assert v.shape == (4, 3)
        p = v @ v.T
        assert np.linalg.matrix_rank(p, tol=1e-9) == 3


class TestCategoricalTrace:
    def test_identity_normalized(self, engine):
        for factors in (("a",), ("ab", "b"), ("a", "ab")):
            ident = identity_on(engine, factors)
            assert engine.categorical_trace(ident) == pytest.approx(1.0, abs=1e-12)
            assert engine.weighted_trace(ident) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self, engine, rng):
        factors = ("a", "b")
        d = engine.block_dim(factors)
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, d))
        ta, tb = Intertwiner(factors, factors, a), Intertwiner(factors, factors, b)
        tsum = Intertwiner(factors, factors, 2.0 * a + b)
        assert engine.categorical_trace(tsum) == pytest.approx(
            2.0 * engine.categorical_trace(ta) + engine.categorical_trace(tb), rel=1e-10
        )

    def test_projection_trace_gives_qdim(self, engine):
        # both code paths: trace of the word projection against the full
        # tensor factors recovers the quantum dimension ratio
        for x in ("ab", "aab", "abab"):
            t = engine.word_projection(x)
            full_dim = (engine.q + 1 / engine.q) ** len(x)
            for tr in (engine.categorical_trace, engine.weighted_trace):
                assert tr(t) * full_dim == pytest.approx(qdim(x, engine.q), rel=1e-10)

    def test_isometry_conjugation(self, engine):
        v = engine.normalized_V("ab", "ab", "")
        t = Intertwiner(("ab", ""), ("ab", ""), v @ v.T)
        assert engine.categorical_trace(t) == pytest.approx(1.0, abs=1e-11)

    def test_two_routes_agree(self, engine, rng):
        for factors in (("a",), ("ab",), ("a", "ba")):
            d = engine.block_dim(factors)
            t = Intertwiner(factors, factors, rng.standard_normal((d, d)))
            assert engine.categorical_trace(t) == pytest.approx(
                engine.weighted_trace(t), rel=1e-10, abs=1e-12
            )

    def test_weighted_trace_is_trace_of_product(self, engine, rng):
        # sum of A * W^T against the plain trace(A @ W)
        for factors in (("a",), ("ab", "b"), ("a", "ba", "ab")):
            d = engine.block_dim(factors)
            a = rng.standard_normal((d, d))
            w = np.eye(1)
            for f in factors:
                w = np.kron(w, engine.rho_weight(f))
            expected = np.trace(a @ w) / math.prod(qdim(f, engine.q) for f in factors)
            got = engine.weighted_trace(Intertwiner(factors, factors, a))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_shape_mismatch_rejected(self, engine):
        t = Intertwiner(("a",), ("b",), np.eye(2))
        with pytest.raises(ValueError):
            engine.categorical_trace(t)


class TestVtilde:
    def test_trivial_insertion_is_isometric(self, engine):
        nrm = engine.vtilde("ab", "", "ba").norm
        assert nrm == pytest.approx(1.0, rel=1e-12)

    def test_left_empty_closed_form(self, engine):
        # norm^2 = qdim(vbar t) / qdim(t) when the left part is empty
        for v, t in (("ab", "a"), ("a", "ab"), ("ba", "b")):
            nrm = engine.vtilde("", v, t).norm
            expected = math.sqrt(qdim(involution(v) + t, engine.q) / qdim(t, engine.q))
            assert nrm == pytest.approx(expected, rel=1e-11)

    def test_indecomposable_closed_form(self, engine12):
        count = 0
        for s, v, t in indecomposable_triples(6):
            nrm = engine12.vtilde(s, v, t).norm
            closed = vtilde_norm_indecomposable(s, v, t, engine12.q)
            assert nrm == pytest.approx(closed, rel=1e-8)
            count += 1
        assert count >= 50

    def test_norm_bounds_with_stable_ratio(self, engine12):
        ratios = []
        for s, v, t in indecomposable_triples(6):
            nrm = engine12.vtilde(s, v, t).norm
            ratios.append(nrm / math.sqrt(qdim(v, engine12.q)))
        assert max(ratios) <= 1.0 + 1e-10
        assert min(ratios) > 0.5

    def test_multiplicative_reduction(self, engine):
        # splitting v = v1 (x) v2 multiplies the norm by sqrt(qdim(v2))
        base = engine.vtilde("a", "b", "b").norm
        ext = engine.vtilde("a", "bb", "b").norm
        assert ext == pytest.approx(base * math.sqrt(qdim("b", engine.q)), rel=1e-10)

    def test_proportional_to_isometry(self, engine):
        for s, v, t in (("a", "b", "b"), ("ab", "a", "a"), ("", "ab", "b")):
            # the Gram matrix of iv is a multiple of the identity (Schur)
            iv = engine.vtilde(s, v, t)
            nrm = iv.norm
            gram = iv.array.T @ iv.array
            scale = np.trace(gram) / gram.shape[0]
            assert scale == pytest.approx(nrm ** 2, rel=1e-10)
            assert np.linalg.norm(gram - scale * np.eye(gram.shape[0]), 2) / scale < 1e-9

    def test_split_component(self):
        assert split_component("abba", "ab", "ba") == ("ab", "", "ba")
        assert split_component("ab", "ab", "ab") == ("a", "b", "b")
        assert split_component("", "a", "b") == ("", "a", "")
        with pytest.raises(ValueError):
            split_component("b", "ab", "ba")

    def test_normalized_V_unit_norm(self, engine):
        v = engine.normalized_V("a", "a", "ba")
        assert np.linalg.norm(v, 2) == pytest.approx(1.0, rel=1e-12)

    def test_cap_exceeded(self):
        eng = IntertwinerEngine(ModelConfig.from_q(0.5, tensor_cap=5))
        with pytest.raises(TensorCapError):
            eng.vtilde("ab", "ab", "ab")
        # the message lists the first 8 distinct words and counts the rest
        long_words = ["a" * 6 + "b" * k for k in range(10)]
        with pytest.raises(TensorCapError, match=r"'aaaaaabbbbbbb' and 2 more$") as exc:
            eng.check_cap("ab", long_words[0], *long_words)
        assert exc.value.words == tuple(long_words) and "'aaaaaabbbbbbbb'" not in str(exc.value)

    def test_matches_outer_product_einsum(self, engine):
        # reference: the 5-index outer product of the inclusion of H_st with
        # the duality vector, contracted against both inclusions at once
        pool = ball_words(2) + ["aba", "bab", "aab"]
        count = 0
        for s, v, t in itertools.product(pool, repeat=3):
            if not v or len(s) + 2 * len(v) + len(t) > 8:
                continue
            iv = engine.vtilde(s, v, t)
            vb = involution(v)
            a = engine.inclusion_block(s, t)
            d_s, d_t = engine.irr_dim(s), engine.irr_dim(t)
            rb = engine.rbar_block(v).reshape(engine.irr_dim(v), engine.irr_dim(vb))
            mid = np.einsum("ijc,kl->ikljc", a.reshape(d_s, d_t, -1), rb)
            p1 = engine.inclusion_block(s, v).reshape(d_s, engine.irr_dim(v), -1)
            p2 = engine.inclusion_block(vb, t).reshape(engine.irr_dim(vb), d_t, -1)
            ref = np.einsum("ika,ljb,ikljc->abc", p1, p2, mid).reshape(iv.array.shape)
            assert np.abs(iv.array - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
            assert iv.norm == pytest.approx(np.linalg.norm(ref, 2), rel=1e-13)
            count += 1
        assert count > 300

    def test_norm_computed_once_per_triple(self, monkeypatch):
        """Each memoized value (basis, inclusion, Rbar block, weight) is built
        once per key and engine, however often it is requested; the norm of
        each V tilde is taken from its fresh array, so repeated V's agree
        bit for bit."""
        builds = collections.Counter()
        for name in ("_build_basis", "_build_inclusion", "_build_rbar", "_build_rho_weight"):
            def counting(self, *args, _name=name, _build=getattr(IntertwinerEngine, name)):
                builds[id(self), _name, args] += 1
                return _build(self, *args)

            monkeypatch.setattr(IntertwinerEngine, name, counting)
        engines = [IntertwinerEngine(ModelConfig.from_q(q, tensor_cap=8)) for q in (0.5, 0.3)]
        requests = [("a", "a", "ba"), ("aa", "a", "a"), ("ba", "ba", "ba"), ("", "ab", "ab"),
                    ("b", "b", "ab"), ("bbaa", "bb", "aa")]
        weighted = ["a", "ab", "bba", "abab"]
        for eng in engines:
            first = [eng.normalized_V(*r) for r in requests]
            weights = [eng.rho_weight(w) for w in weighted]
            for _ in range(3):
                for r, arr in zip(requests, first):
                    assert np.array_equal(eng.normalized_V(*r), arr)
                for w, weight in zip(weighted, weights):
                    assert eng.rho_weight(w) is weight
        assert max(builds.values()) == 1
        assert len({(engine, name) for engine, name, _ in builds}) == 2 * 4


class TestDefects:
    def test_plain_inclusion_commutes(self, engine):
        d, _ = engine.defect_audit("a", "ab", "", "ab")
        assert d < 1e-12

    def test_nested_projections_commute(self, engine):
        # components with nothing cancelled embed exactly
        d, e = engine.defect_audit("a", "ab", "b", "abb")
        assert d < 1e-12 and e == pytest.approx(2.0)

    def test_defect_decays_along_family(self, engine):
        vals = []
        for stem in ("b", "bab"):
            defect, expo = engine.defect_audit("a", stem + "a", "ba", stem + "a")
            assert defect > 1e-12
            vals.append((expo, defect))
        (e1, d1), (e2, d2) = vals
        rate = (math.log(d2) - math.log(d1)) / (e2 - e1)
        assert rate == pytest.approx(math.log(engine.q), rel=0.2)


def defect_by_kron(eng, u, x, y, z):
    """The commutation defect by its explicit formula, every identity a
    Kronecker factor: |(i_u (x) V) P_uz - (P_ux (x) i_y)(i_u (x) V)|."""
    vb = eng.normalized_V(z, x, y)
    d_u, d_y = eng.irr_dim(u), eng.irr_dim(y)
    inc_uz, inc_ux = eng.inclusion_block(u, z), eng.inclusion_block(u, x)
    term1 = np.kron(np.eye(d_u), vb) @ (inc_uz @ inc_uz.T)
    term2 = np.kron(inc_ux @ inc_ux.T, np.eye(d_y)) @ np.kron(np.eye(d_u), vb)
    return float(np.linalg.norm(term1 - term2, 2))


class TestDefectAuditOracle:
    """defect_audit applies P_ux (x) i_y without forming it; the explicit
    formula is the oracle, within 1e-13 relative and an absolute 1e-15 for
    the round-off-level defects of the families that commute."""

    @staticmethod
    def check(eng, families):
        for u, x, y, z in families:
            defect, expo = eng.defect_audit(u, x, y, z)
            want = defect_by_kron(eng, u, x, y, z)
            assert abs(defect - want) <= max(1e-13 * want, 1e-15), (u, x, y, z, defect, want)
            assert expo == (len(z) + len(x) - len(y)) / 2.0

    def test_audit_families_at_n2(self, engine):
        self.check(engine, cli._defect_families())

    def test_audit_families_at_n3(self):
        # the oracle holds (d_u d_x d_y)^2 floats: 648 MiB for u = ab, x = ababa,
        # so the families whose oracle fits in about 100 MiB (7 of 8) are compared
        families = [f for f in cli._defect_families()
                    if 8 * math.prod(classical_dim(w, 3) for w in f[:3]) ** 2 <= 100 * 2 ** 20]
        assert len(families) == 7
        self.check(IntertwinerEngine(ModelConfig.from_q(0.3, n=3, tensor_cap=7)), families)


class TestIntertwinerAlgebra:
    def test_compose_checks_labels(self, engine):
        v = inclusion(engine, "a", "b")
        with pytest.raises(ValueError):
            v @ v

    def test_tensor_and_adjoint(self, engine):
        v = inclusion(engine, "a", "b")
        w = v.tensor(identity_on(engine, ("a",)))
        assert w.target == ("a", "b", "a")
        assert w.source == ("ab", "a")
        assert np.abs((v.adjoint @ v).array - np.eye(3)).max() < 1e-10

    def test_norm_of_a_product_source_is_the_largest_singular_value(self, engine, rng):
        """Out of a product of blocks A^T A is not a multiple of 1: the
        projection onto H_ab in a (x) b has norm 1 but Frobenius norm sqrt(3)."""
        proj = engine.word_projection("ab")
        assert proj.source == ("a", "b")
        assert proj.norm == pytest.approx(1.0, rel=1e-14)
        d = engine.block_dim(("a", "ab"))
        arr = rng.standard_normal((d, d))
        top = np.linalg.svd(arr, compute_uv=False)[0]
        assert Intertwiner(("a", "ab"), ("a", "ab"), arr).norm == pytest.approx(top, rel=1e-14)


class TestConcurrency:
    def test_cache_safe_under_concurrent_insert_or_get(self):
        import concurrent.futures

        eng = IntertwinerEngine(ModelConfig.from_q(0.5, tensor_cap=8))
        words = ["ab", "ba", "aab", "abab", "babab", "aabba"]

        def work(w):
            return eng.word_projection(w).array.sum()

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, words * 8))
        expected = {w: work(w) for w in words}
        for w, got in zip(words * 8, results):
            assert got == expected[w]

    def test_qhat_memo_safe_under_concurrent_entries(self):
        """Threads sharing one BranchContext read the serial values, and the
        engine memo keeps one qhat key per computed coefficient (the cut
        rule's entries are never memoized)."""
        import concurrent.futures

        class YieldingDict(dict):
            # hands the interpreter lock to another thread inside every memo
            # insert, so racing builds of one key both reach the insert
            def setdefault(self, key, value):
                time.sleep(0)
                return super().setdefault(key, value)

        cfg = ModelConfig.from_q(0.5, tensor_cap=8)
        eng = IntertwinerEngine(cfg)
        eng._memos = YieldingDict()
        walk = transition_matrix(Measure({"a": 0.5, "b": 0.5}), ball(5), cfg.q)
        ctx = BranchContext(eng, walk, "a", 5)
        entries = required_entries(ctx)
        # eight consecutive requests of each entry: the threads race on every key
        calls = [e for e in entries for _ in range(8)]
        serial = BranchContext(IntertwinerEngine(cfg), walk, "a", 5)
        expected = [qhat_entry(*e, serial) for e in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda e: qhat_entry(*e, ctx), calls))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        computed = {e for e in entries if not exact_by_cut(*e, ctx.z)}
        assert 0 < len(computed) < len(set(entries))
        assert {k for k in eng._memos if k[0] == "qhat"} == {("qhat", "a", *e) for e in computed}


class TestHigherRank:
    def test_n3_model(self):
        # dimensions follow the fusion recursion and the norm closed form
        # depends only on q, not on n
        cfg = ModelConfig.from_q(0.3, n=3, tensor_cap=8)
        eng = IntertwinerEngine(cfg)
        assert eng.irr_dim("a") == 3
        assert eng.irr_dim("ab") == 8
        assert eng.irr_dim("aa") == 9
        assert eng.irr_dim("aba") == 21
        for s, v, t in (("a", "b", "b"), ("", "ab", "a")):
            nrm = eng.vtilde(s, v, t).norm
            assert nrm == pytest.approx(vtilde_norm_indecomposable(s, v, t, cfg.q), rel=1e-10)
        r, rbar = eng.duality_maps()
        ident = Intertwiner(("a",), ("a",), np.eye(3))
        comp = rbar.adjoint.tensor(ident) @ ident.tensor(r)
        assert np.abs(comp.array - np.eye(3)).max() < 1e-10

    def test_projection_ranks_are_the_classical_dimensions_at_n3(self):
        eng = IntertwinerEngine(ModelConfig.from_q(0.3, n=3, tensor_cap=5))
        for w in ball_words(5):
            assert classical_dim(w, 3) == eng.irr_dim(w)
