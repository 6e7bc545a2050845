import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from aufwalk import kernels
from aufwalk.fusion import (
    Measure,
    TransitionMatrix,
    transition_matrix,
    uniform_irreducibility_constants,
)
from aufwalk.kernels import (
    entry_set,
    green_rows,
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
from aufwalk.words import ball, branch, heap_indices, qdim, tree_distance

Q = 0.5


class TestWeightedNorm:
    def test_zero_matrix(self):
        assert weighted_operator_norm(np.zeros((4, 4)), np.ones(4)) == 0.0

    def test_diagonal(self):
        w = np.diag([0.3, 0.7, 0.1])
        assert weighted_operator_norm(w, np.ones(3)) == pytest.approx(0.7, rel=1e-10)

    def test_weighting_matters(self):
        w = np.array([[0.0, 1.0], [0.0, 0.0]])
        m = np.array([4.0, 1.0])
        # conjugation by sqrt(m) rescales the single entry by 2
        assert weighted_operator_norm(w, m) == pytest.approx(2.0, rel=1e-10)

    def test_below_analytic_bound(self, mu_letters, mu_mixed):
        for mu in (mu_letters, mu_mixed):
            for q in (0.3, 0.5, 0.7):
                tm = transition_matrix(mu, ball(8), q)
                nrm = weighted_operator_norm(tm.matrix, tm.haar_weights())
                assert nrm <= tm.norm_bound + 1e-8
                assert nrm < 1.0
                # one path: dense input is converted to the same CSR matrix
                assert weighted_operator_norm(tm.matrix.toarray(), tm.haar_weights()) == nrm


@pytest.fixture(scope="module")
def walk7():
    dom = ball(7)
    tm = transition_matrix(Measure({"a": 0.35, "b": 0.65}), dom, Q)
    return tm, green_table(tm)


class TestGreenTable:
    def test_zero_matrix_gives_identity(self):
        dom = ball(2)
        table = green_table(TransitionMatrix(dom, np.zeros((len(dom), len(dom))), Measure({"a": 1.0}), Q))
        assert np.array_equal(table.green, np.eye(len(dom)))

    def test_three_point_ball_scalar_series(self, mu_letters):
        # oracle: the explicit 3x3 matrix has a single return loop e->a|b->e
        # of weight 2 * (1/2) * (1/2) / [2]^2, so G(e,e) = 1/(1 - 0.08)
        dom = ball(1)
        tm = transition_matrix(mu_letters, dom, 0.5)
        table = green_table(tm)
        assert table.green_entry("", "") == pytest.approx(1.0 / 0.92, rel=1e-12)

    def test_residual_and_diag(self, walk8):
        tm, table = walk8
        assert table.residual < 1e-10
        assert table.green.diagonal().min() >= 1.0
        assert table.diagonal_bound_gap() <= 0.0

    def test_neumann_within_tail_bound(self, walk8):
        _, table = walk8
        assert table.neumann_gap <= 0.0

    def test_green_entries_nonnegative(self, walk8):
        assert walk8[1].green.min() >= 0.0

    def test_dense_and_csr_input_give_identical_tables(self, walk8):
        tm, table = walk8
        dense = green_table(TransitionMatrix(tm.domain, tm.matrix.toarray(), tm.mu, Q), base="")
        assert np.array_equal(dense.green, table.green)
        assert (dense.residual, dense.power_norm, dense.neumann_gap) == (
            table.residual, table.power_norm, table.neumann_gap
        )

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_matches_dense_inverse(self, q):
        dom = ball(7)
        tm = transition_matrix(Measure({"a": 0.35, "b": 0.65}), dom, q)
        g = green_table(tm).green
        inv = np.linalg.inv(np.eye(len(dom)) - tm.matrix.toarray())
        assert (np.abs(g - inv) / np.abs(inv)).max() < 1e-13

    def test_panels_give_the_one_shot_table(self, walk7):
        # 255 words: fifteen full panels and a partial one
        tm, table = walk7
        n = tm.size
        assert n % kernels._PANEL != 0
        lu = splu(sp.identity(n, format="csc") - tm.matrix.tocsc())
        assert np.array_equal(table.green, lu.solve(np.eye(n)))

    def test_residual_covers_the_whole_table(self, walk7):
        tm, table = walk7
        g = table.green
        assert table.residual == np.abs(tm.matrix @ g - g + np.eye(tm.size)).max()

    def test_residual_above_tolerance_raises(self, walk8):
        tm, table = walk8
        assert table.residual > 0.0
        with pytest.raises(RuntimeError, match="residual"):
            green_table(tm, base="", solver_tol=table.residual / 2)

    def test_memory_is_one_table(self, mu_letters):
        """At ball 10 (2047 words, a 32 MiB table) the solve allocates the
        table and panel-sized temporaries, not an n x n right-hand side,
        residual or copy."""
        tm = transition_matrix(mu_letters, ball(10), Q)
        tracemalloc.start()
        try:
            table = green_table(tm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * table.green.nbytes

    def test_rejects_norm_one(self):
        # a stochastic 2-cycle has norm 1 in the flat weighting
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="norm"):
            green_table(TransitionMatrix(["", "a"], w, Measure({"a": 1.0}), Q))

    def test_monotone_in_domain(self, mu_letters):
        small = green_table(transition_matrix(mu_letters, ball(4), Q))
        big = green_table(transition_matrix(mu_letters, ball(6), Q))
        k = small.size
        assert (big.green[:k, :k] - small.green >= -1e-13).all()

    def test_duality_green_symmetry(self, mu_mixed):
        # G_dual(s,t) m(s) = G(t,s) m(t), relatively, on matched truncations
        dom = ball(6)
        g = green_table(transition_matrix(mu_mixed, dom, Q)).green
        gd = green_table(transition_matrix(mu_mixed.dual(), dom, Q)).green
        m = np.array([qdim(w, Q) for w in dom]) ** 2
        lhs = gd * m[:, None]
        rhs = (g * m[:, None]).T
        rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
        assert rel.max() < 1e-9


class TestTruncationBound:
    # the walk of mu_letters at q = 0.5 has range 1 and norm bound 2 / [2]_q = 0.8
    def test_frozen_value(self, walk8):
        got = truncation_error_bound(12, "", "", walk8[0])
        assert got == pytest.approx(0.8 ** 24 / 0.2, rel=1e-12)

    def test_doubling_depth_squares_factor(self, walk8):
        b1 = truncation_error_bound(8, "", "", walk8[0])
        b2 = truncation_error_bound(16, "", "", walk8[0])
        assert b2 == pytest.approx(b1 ** 2 * 0.2, rel=1e-10)

    def test_bound_dominates_observed_truncation(self, mu_letters):
        small = green_table(transition_matrix(mu_letters, ball(6), Q))
        big = green_table(transition_matrix(mu_letters, ball(10), Q))
        for s in ("", "a", "ab"):
            for t in ("", "b", "aa"):
                gap = abs(big.green_entry(s, t) - small.green_entry(s, t))
                assert gap <= truncation_error_bound(6, s, t, small.walk)

    def test_rejects_outside(self, walk8):
        with pytest.raises(ValueError):
            truncation_error_bound(3, "aaaa", "", walk8[0])

    def test_heap_index_array_matches_words(self, mu_mixed):
        walk = transition_matrix(mu_mixed, ball(2), Q)
        domain = ball(5)[::-1][3:40]
        got = truncation_error_bound(6, "ab", heap_indices(domain), walk)
        assert got.tolist() == [truncation_error_bound(6, "ab", t, walk) for t in domain]


class TestDistanceMatrix:
    @pytest.mark.parametrize("domain", [ball(5), ball(5)[50:3:-2]], ids=["ball", "reversed"])
    def test_matches_pairwise_tree_distance(self, walk8, domain):
        # the audits read G and the distances of their interior words off the table and its walk
        table = walk8[1]
        g, dist = kernels._interior_block(table, domain)
        assert dist.tolist() == [[tree_distance(s, t) for t in domain] for s in domain]
        assert g.tolist() == [[table.green_entry(s, t) for t in domain] for s in domain]


@pytest.fixture(scope="module")
def audit_setup(walk8):
    tm, table = walk8
    delta0, k = uniform_irreducibility_constants(tm, k_max=3)
    interior = [w for w in tm.domain if 8 - len(w) > tm.range_bound and len(w) <= 6]
    return tm, table, delta0, k, interior


class TestHarnackAndMultiplicativity:
    def test_harnack_passes_with_chain_bound(self, audit_setup):
        tm, table, delta0, k, interior = audit_setup
        rep = harnack_audit(table, delta0, k, interior)
        assert rep.passes
        assert rep.empirical_delta >= rep.delta_bound

    def test_multiplicativity_constants(self, audit_setup):
        tm, table, delta0, k, interior = audit_setup
        rep = multiplicativity_audit(table, delta0 ** k, interior)
        assert rep.c1_lower <= rep.lower_bound
        assert rep.c1_upper <= rep.upper_bound
        assert all(rep.verdicts())
        # nearest-neighbor walk: cut vertices make the upper constant <= 1
        assert rep.c1_upper <= 1.0 + 1e-12

    def test_audits_read_a_rows_table_through_its_rows(self, audit_setup):
        # the interior's rows, solved in reverse order, give the full table's constants
        tm, table, delta0, k, interior = audit_setup
        rows = green_rows(tm, interior[::-1], base="")
        har, har_rows = (harnack_audit(t, delta0, k, interior) for t in (table, rows))
        assert har_rows.empirical_delta == pytest.approx(har.empirical_delta, rel=1e-12)
        mult, mult_rows = (multiplicativity_audit(t, delta0 ** k, interior) for t in (table, rows))
        assert mult_rows.c1_lower == pytest.approx(mult.c1_lower, rel=1e-12)
        assert mult_rows.c1_upper == pytest.approx(mult.c1_upper, rel=1e-12)

    def test_martin_positive_and_bounded(self, audit_setup):
        tm, table, delta0, k, interior = audit_setup
        martin = martin_rows(table, tm.domain, tm.domain)
        assert martin.min() > 0
        delta = delta0 ** k
        gee = table.green_entry("", "")
        for s in interior:
            bound = delta ** -len(s) * gee
            cols = [tm.index[t] for t in interior]
            assert martin[tm.index[s], cols].max() <= bound


class TestLastEntry:
    def test_exact_on_matched_truncations(self, walk8):
        tm, table = walk8
        branch_table = green_table(tm.restrict(branch("a", 8)), base="a")
        for s in ("b", "ab", "bb"):
            for t in ("a", "aa", "aba"):
                resid = last_entry_audit("a", s, t, table, branch_table)
                assert resid < 1e-10

    def test_single_cut_for_nearest_neighbor(self, walk8):
        tm, table = walk8
        sub = branch("ab", 8)
        assert entry_set(sub, "ab", tm.range_bound) == ["ab"]
        branch_table = green_table(tm.restrict(sub), base="ab")
        resid = last_entry_audit("ab", "b", "aab", table, branch_table)
        assert resid < 1e-10

    def test_two_step_measure_below_truncation_bounds(self, mu_mixed):
        dom = ball(8)
        tm = transition_matrix(mu_mixed, dom, Q)
        table = green_table(tm)
        branch_table = green_table(tm.restrict(branch("a", 8)), base="a")
        for s, t in (("b", "aa"), ("ab", "a")):
            resid = last_entry_audit("a", s, t, table, branch_table)
            assert resid < 1e-10

    def test_rejects_bad_sides(self, walk8):
        tm, table = walk8
        branch_table = green_table(tm.restrict(branch("a", 8)), base="a")
        with pytest.raises(ValueError):
            last_entry_audit("a", "aa", "a", table, branch_table)
        with pytest.raises(ValueError):
            last_entry_audit("a", "b", "bb", table, branch_table)


class TestBoundaryProfile:
    def test_root_profile_is_one(self, walk8):
        _, table = walk8
        values = martin_rows(table, [""], ["a" * k for k in range(1, 8)])
        assert values.shape == (1, 7)
        assert all(v == pytest.approx(1.0, abs=1e-14) for v in values[0])

    def test_ray_words(self):
        assert ray_words("", "a", "a", 4) == ["a", "aa", "aaa", "aaaa"]
        assert ray_words("b", "ab", "", 5) == ["b", "abb", "ababb"]
        with pytest.raises(ValueError):
            ray_words("", "a", "", 0)

    def test_leaves_domain_rejected(self, walk8):
        _, table = walk8
        with pytest.raises(ValueError, match="leaves"):
            martin_rows(table, [""], ["a" * 9])

    def test_tail_decreasing_for_on_and_off_axis(self, walk8):
        _, table = walk8
        ray = ["a" * k for k in range(1, 8)]
        sources = ["a", "aaa", "ba", "bba"]
        for s, values in zip(sources, martin_rows(table, sources, ray)):
            assert tail_decreasing(s, ray, values)

    def test_two_radii_agree_within_truncation(self, mu_letters):
        t_small = green_table(transition_matrix(mu_letters, ball(6), Q))
        t_big = green_table(transition_matrix(mu_letters, ball(8), Q))
        ray = ["a" * k for k in range(1, 5)]
        for s in ("a", "ba"):
            small = martin_rows(t_small, [s], ray)[0]
            big = martin_rows(t_big, [s], ray)[0]
            for t, v_small, v_big in zip(ray, small, big):
                bound_s = truncation_error_bound(6, s, t, t_small.walk)
                bound_t = truncation_error_bound(6, "", t, t_small.walk)
                ge = t_small.green_entry("", t)
                tol = (bound_s + abs(v_small) * bound_t) / ge * 4.0
                assert abs(v_small - v_big) <= tol

    def test_tail_decreasing_from_the_merge_point(self):
        ray = ["a", "aa", "aaa", "aaaa", "aaaaa"]
        # gaps 0.5, 0.25, 0.125, 0.0625: decreasing throughout
        assert tail_decreasing("a", ray, np.array([1.0, 1.5, 1.75, 1.875, 1.9375]))
        # a rising gap before the merge point of "aaa" is not checked, one after it is
        rising_early = np.array([1.0, 1.1, 1.6, 1.85, 1.975])
        assert tail_decreasing("aaa", ray, rising_early)
        assert not tail_decreasing("a", ray, rising_early)
        # gaps at the numerical floor may stall
        assert tail_decreasing("a", ray, np.array([1.0, 1.5, 1.5 + 4e-12, 1.5 + 8e-12, 1.5 + 12e-12]))
        assert not tail_decreasing("a", ray, np.array([1.0, 1.5, 1.5, 1.5, 1.5 + 1e-10]))


class TestGreenRows:
    def test_rows_match_dense_table(self, walk8):
        tm, table = walk8
        rows = green_rows(tm, ["a", "ba"], base="")
        assert rows.residual < 1e-10
        assert rows.rows == ["a", "ba", ""]
        for s in rows.rows:
            assert np.abs(rows.source_rows([s])[0] - table.green[tm.index[s], :]).max() < 1e-11

    def test_returns_the_weighted_norm(self, walk8):
        tm, _ = walk8
        rows = green_rows(tm, ["a"], base="")
        assert rows.power_norm == weighted_operator_norm(tm.matrix, tm.haar_weights())

    def test_neumann_within_tail_bound_on_radius_12(self, mu_letters):
        dom = ball(12)
        tm = transition_matrix(mu_letters, dom, Q)
        gap = green_rows(tm, ["a", "ba"], base="").neumann_gap
        assert -1e-11 < gap <= 0.0

    def test_neumann_catches_a_perturbed_row(self, walk8, monkeypatch):
        # an error of 5e-11 in G(a, a) passes the 1e-10 residual gate but not
        # the series check, whose bound there is about 1e-12
        tm, _ = walk8
        real_splu = kernels.splu

        class PerturbedLU:
            def __init__(self, a):
                self.lu = real_splu(a)

            def solve(self, rhs, trans="N"):
                x = self.lu.solve(rhs, trans=trans)
                x[tm.index["a"], 0] += 5e-11
                return x

        monkeypatch.setattr(kernels, "splu", PerturbedLU)
        rows = green_rows(tm, ["a"], base="")
        assert rows.residual < 1e-10
        assert rows.neumann_gap > 1e-11

    @pytest.mark.parametrize("error, passes", [(1e-10, True), (1e-9, False)])
    def test_neumann_bound_scales_with_the_dual_weights(self, mu_letters, monkeypatch, error, passes):
        """On the row path entry t of the row of e may be off by about
        tail * sqrt(m_t / m_e), which is 1365 tails at t = ababababab (radius
        10, q = 0.5): an error of 1e-10 there is inside the bound, 1e-9 is not.
        With the weights m in place of 1/m the bound is the 1e-12 floor, and
        1e-10 fails."""
        dom = ball(10)
        tm = transition_matrix(mu_letters, dom, Q)
        real_splu = kernels.splu

        class PerturbedLU:
            def __init__(self, a):
                self.lu = real_splu(a)

            def solve(self, rhs, trans="N"):
                x = self.lu.solve(rhs, trans=trans)
                x[tm.index["ababababab"], 0] += error
                return x

        monkeypatch.setattr(kernels, "splu", PerturbedLU)
        # the residual gate is opened so that the error reaches the series check
        rows = green_rows(tm, [""], base="", solver_tol=1e-8)
        assert (rows.neumann_gap <= 0.0) is passes

    def test_residual_above_tolerance_raises(self, walk8):
        tm, _ = walk8
        resid = green_rows(tm, ["a", "ba"], base="").residual
        assert resid > 0.0
        with pytest.raises(RuntimeError, match="residual"):
            green_rows(tm, ["a", "ba"], base="", solver_tol=resid / 2)

    def test_table_reads_match_the_full_table_at_its_rows(self, walk8):
        tm, table = walk8
        rows = green_rows(tm, ["ba", "aab", "a"], base="")
        assert rows.rows == ["ba", "aab", "a", ""] and rows.walk is table.walk
        diag = max(table.green_entry(v, v) for v in rows.rows)
        assert rows.diagonal_bound_gap() == pytest.approx(diag - 1.0 / (1.0 - tm.norm_bound), rel=1e-13)
        assert table.diagonal_bound_gap() == table.green.diagonal().max() - 1.0 / (1.0 - tm.norm_bound)
        for s in rows.rows:
            for t in ("", "a", "ab", "bab", "aabb", "b" * 8):
                assert rows.green_entry(s, t) == pytest.approx(table.green_entry(s, t), rel=1e-13)

    def test_martin_rows_rejects_an_unsolved_source(self, walk8):
        tm, _ = walk8
        rows = green_rows(tm, ["a"], base="")
        assert martin_rows(rows, ["a", ""], ["a", "aa"]).shape == (2, 2)
        with pytest.raises(ValueError, match="'ba'"):
            martin_rows(rows, ["a", "ba"], ["a", "aa"])

    def test_word_outside_the_domain_named(self, walk8):
        tm, _ = walk8
        with pytest.raises(ValueError, match="outside the domain: \\['a{9}'\\]"):
            green_rows(tm, ["a", "a" * 9], base="")


class TestLastEntryPathSumOracle:
    def test_against_explicit_path_enumeration(self, mu_letters):
        # oracle: dynamic programming over path lengths, with the final step
        # constrained to enter the branch from outside
        dom = ball(5)
        tm = transition_matrix(mu_letters, dom, Q)
        table = green_table(tm)
        p = tm.matrix.toarray()
        x = "a"
        inside = np.array([w.endswith(x) for w in dom])
        s, u = "b", "a"
        si, ui = tm.index[s], tm.index[u]
        steps = 400
        f = np.zeros(len(dom))
        f[si] = 1.0
        m_dp = 0.0
        for _ in range(steps):
            m_dp += float((f * ~inside) @ p[:, ui])
            f = f @ p
        outside_idx = [i for i, w in enumerate(dom) if not w.endswith(x)]
        m_closed = float(table.green[si, outside_idx] @ p[outside_idx, ui])
        assert m_dp == pytest.approx(m_closed, rel=1e-10)

    def test_residual_shrinks_with_branch_radius(self, mu_letters):
        # with a branch table shallower than the full one the identity picks
        # up a truncation deficit that shrinks as the branch deepens
        dom = ball(9)
        tm = transition_matrix(mu_letters, dom, Q)
        table = green_table(tm)
        resids = []
        for r_branch in (5, 7, 9):
            sub = branch("a", r_branch)
            branch_table = green_table(tm.restrict(sub), base="a")
            resids.append(last_entry_audit("a", "b", "aa", table, branch_table))
        assert resids[0] > resids[1] > resids[2]
        assert resids[2] < 1e-10
