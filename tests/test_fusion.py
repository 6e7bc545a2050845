import itertools
import re
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order, shortest_path

from aufwalk import fusion
from aufwalk.fusion import (
    Measure,
    TransitionMatrix,
    dual_audit,
    fuse,
    is_generating,
    multiplicity,
    norm_upper_bound,
    transition_matrix,
    transition_prob,
    uniform_irreducibility_constants,
)
from aufwalk.words import (
    ball,
    ball_qdims,
    branch,
    code_lengths,
    heap_index,
    heap_indices,
    involution,
    qdim,
    qnumber,
    tree_distance,
    tree_distances,
    word,
)
from conftest import from_scipy, random_word, to_scipy

Q = 0.5


def naive_fuse(x, y):
    """Independent enumeration for the test: scan all cancellation depths."""
    out = []
    for k in range(min(len(x), len(y)) + 1):
        suffix = x[len(x) - k:] if k else ""
        if all(involution(suffix[k - 1 - i]) == y[i] for i in range(k)):
            out.append(x[: len(x) - k] + y[k:])
    return out


class TestFuse:
    @pytest.mark.parametrize(
        "x,y,expected",
        [
            ("", "ab", ["ab"]),
            ("a", "a", ["aa"]),
            ("a", "b", ["ab", ""]),
            ("ab", "ab", ["abab", "ab", ""]),
            ("ab", "ba", ["abba"]),
        ],
    )
    def test_examples(self, x, y, expected):
        assert fuse(x, y) == expected

    def test_against_naive_scan(self, rng):
        for _ in range(300):
            x, y = random_word(rng, 6), random_word(rng, 6)
            assert fuse(x, y) == naive_fuse(x, y)

    def test_components_distinct(self, rng):
        for _ in range(200):
            x, y = random_word(rng, 6), random_word(rng, 6)
            comps = fuse(x, y)
            assert len(comps) == len(set(comps))

    def test_dimension_identity(self, rng):
        # fusion-ring oracle: qdim is multiplicative across the decomposition
        for _ in range(200):
            x, y = random_word(rng, 6), random_word(rng, 6)
            total = sum(qdim(z, Q) for z in fuse(x, y))
            assert total == pytest.approx(qdim(x, Q) * qdim(y, Q), rel=1e-11)

    def test_multiplicity(self):
        assert multiplicity("ab", "", "ab") == 1
        assert multiplicity("aa", "a", "a") == 1
        assert multiplicity("", "a", "a") == 0
        assert multiplicity("", "a", "b") == 1


class TestMeasure:
    def test_validation(self):
        with pytest.raises(ValueError, match="not normalized"):
            Measure({"a": 0.5, "b": 0.6})
        with pytest.raises(ValueError):
            Measure({"a": -0.5, "b": 1.5})
        with pytest.raises(ValueError):
            Measure({})

    def test_dual(self):
        mu = Measure({"a": 0.25, "ab": 0.75})
        dual = mu.dual()
        assert dual.weight("b") == 0.25
        assert dual.weight("ab") == 0.75

    def test_range_bound(self):
        assert Measure({"a": 0.5, "ab": 0.5}).range_bound == 2


class TestTransitions:
    def test_single_letter_from_root(self):
        mu = Measure({"a": 1.0})
        assert transition_prob(mu, "", "a", Q) == pytest.approx(1.0)

    def test_frozen_example(self):
        # 1 / (2 [2]_q^2) at q = 1/2
        mu = Measure({"a": 0.5, "b": 0.5})
        assert transition_prob(mu, "a", "", 0.5) == pytest.approx(0.08, rel=1e-13)

    def test_row_sums_interior(self, mu_mixed):
        tm = transition_matrix(mu_mixed, ball(7), Q)
        # the words farther than the range from the length-7 frontier
        interior = code_lengths(tm.codes) < 7 - tm.range_bound
        assert interior.any()
        assert np.abs(tm.row_sums()[interior] - 1.0).max() < 1e-12

    def test_rows_substochastic(self, mu_letters):
        tm = transition_matrix(mu_letters, ball(5), Q)
        assert tm.row_sums().max() <= 1.0 + 1e-12

    def test_bounded_range(self, mu_mixed):
        tm = transition_matrix(mu_mixed, ball(6), Q)
        coo = to_scipy(tm.matrix).tocoo()
        for i, j, v in zip(coo.row, coo.col, coo.data):
            if v != 0:
                assert tree_distance(word(tm.codes[i]), word(tm.codes[j])) <= tm.range_bound

    def test_restrict_is_submatrix(self, mu_letters):
        tm = transition_matrix(mu_letters, ball(5), Q)
        sub = branch("a", 5)
        tms = tm.restrict(sub)
        assert tms.codes.tolist() == sub.tolist()
        for i, s in enumerate(sub):
            for j, t in enumerate(sub):
                assert tms.matrix.toarray()[i, j] == tm.matrix.toarray()[tm.positions([s])[0], tm.positions([t])[0]]

    @pytest.mark.parametrize("weights", [{"a": 0.5, "b": 0.5}, {"a": 0.25, "b": 0.25, "ab": 0.5}])
    def test_restrict_by_codes_is_the_branch_assembly(self, weights):
        """A restriction to a branch, to a sub-ball and to a sorted subset that
        skips the root equals the assembly there bit for bit; a sub-domain
        reaching past the walk's ball raises ValueError naming its first word
        outside, and an unsorted one is refused."""
        mu = Measure(weights)
        walk = transition_matrix(mu, ball(6), Q)
        for sub in (branch("ab", 6), ball(3), np.arange(5, 120, 7)):
            got, want = walk.restrict(sub).matrix, transition_matrix(mu, sub, Q).matrix
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), part
        with pytest.raises(ValueError, match="'aaaaaaa' lies outside the walk's domain"):
            walk.restrict(np.concatenate([branch("a", 6), heap_indices(["aaaaaaa", "bbbbbbbb"])]))
        with pytest.raises(ValueError, match="strictly increasing"):
            walk.restrict(branch("a", 6)[::-1])
        with pytest.raises(ValueError, match="strictly increasing"):
            TransitionMatrix(np.array([0, 0]), walk.matrix.toarray()[:2, :2], mu, Q)


class TestDualAudit:
    def test_symmetric_measure(self, mu_letters):
        assert dual_audit(transition_matrix(mu_letters, ball(6), Q)) < 1e-12

    def test_point_mass(self):
        assert dual_audit(transition_matrix(Measure({"a": 1.0}), ball(5), Q)) < 1e-12

    def test_random_measure(self, rng):
        w = rng.random(3) + 0.1
        w /= w.sum()
        mu = Measure({"a": w[0], "b": w[1], "ab": w[2]})
        assert dual_audit(transition_matrix(mu, ball(6), Q)) < 1e-12


class TestGenerating:
    def test_symmetric_letters(self, mu_letters):
        assert is_generating(transition_matrix(mu_letters, ball(4), Q))

    def test_double_letter_not_generating(self):
        assert not is_generating(transition_matrix(Measure({"aa": 1.0}), ball(4), Q))

    def test_point_mass_at_root(self):
        assert not is_generating(transition_matrix(Measure({"": 1.0}), ball(2), Q))

    def test_mixed(self, mu_mixed):
        assert is_generating(transition_matrix(mu_mixed, ball(4), Q))


class TestNormBound:
    def test_frozen_values(self, mu_letters):
        assert norm_upper_bound(mu_letters, 0.5) == pytest.approx(0.8, abs=1e-12)
        assert norm_upper_bound(Measure({"a": 1.0}), Q) == pytest.approx(2.0 / qnumber(2, Q))
        assert norm_upper_bound(Measure({"": 1.0}), Q) == pytest.approx(1.0)

    def test_below_one_for_nontrivial(self, mu_mixed):
        for q in (0.3, 0.5, 0.7):
            assert norm_upper_bound(mu_mixed, q) < 1.0


class TestUniformIrreducibility:
    def test_witness_and_translation_stability(self, mu_letters):
        tm = transition_matrix(mu_letters, ball(8), Q)
        delta0, k = uniform_irreducibility_constants(tm, k_max=3)
        assert delta0 > 0
        assert k == 1
        data = tm.matrix.data
        assert data[data > 0].min() >= delta0
        # the same constants verify on branch restrictions
        for x in ("a", "ab", "ba"):
            sub = branch(x, 8)
            tms = tm.restrict(sub)
            d0x, kx = uniform_irreducibility_constants(tms, k_max=3)
            assert d0x >= delta0 - 1e-15
            assert kx <= k

    def test_two_step_measure(self, mu_mixed):
        tm = transition_matrix(mu_mixed, ball(8), Q)
        delta0, k = uniform_irreducibility_constants(tm, k_max=3)
        assert delta0 > 0 and k <= 2

    @pytest.mark.parametrize("mu", [{"a": 0.5, "b": 0.5}, {"aa": 0.3, "b": 0.4, "aba": 0.3},
                                    {"a": 0.3, "b": 0.3, "aab": 0.2, "bba": 0.2}])
    @pytest.mark.parametrize("k_max", [1, 2, 3])
    def test_steps_match_boolean_matrix_powers(self, mu, k_max):
        """Oracle: K is the first power of the positive pattern that joins
        the last adjacent pair of words clear of the frontier; pairs still
        apart after k_max powers raise, counted, and no pair raises too."""
        tm = transition_matrix(Measure(mu), ball(8), Q)
        lengths = code_lengths(tm.codes)
        ok = [i for i in range(tm.size) if lengths[i] + k_max * tm.range_bound <= 8]
        need = np.zeros((tm.size, tm.size), dtype=bool)
        for i in ok:
            for j in ok:
                need[i, j] = tree_distance(word(tm.codes[i]), word(tm.codes[j])) == 1
        if not need.any():
            with pytest.raises(ValueError, match="too small"):
                uniform_irreducibility_constants(tm, k_max=k_max)
            return
        reach = (tm.matrix.toarray() > 0).astype(float)
        power, k = reach.copy(), 0
        for step in range(1, k_max + 1):
            if (need & (power > 0)).any():
                k = step
            need &= power == 0
            power = (power @ reach > 0).astype(float)
        if need.any():
            with pytest.raises(AssertionError, match=f"^{int(need.sum())} adjacent pairs"):
                uniform_irreducibility_constants(tm, k_max=k_max)
        else:
            assert uniform_irreducibility_constants(tm, k_max=k_max) == (tm.matrix.data.min(), k)


def csgraph_generating(walk):
    """Oracle: is_generating by scipy's breadth-first order, both ways."""
    radius = int(code_lengths(walk.codes[-1:]).max(initial=0))
    tm = walk.restrict(ball(min(radius, max(walk.range_bound, 4))))
    fwd, bwd = (breadth_first_order(m, 0, directed=True, return_predecessors=False)
                for m in (to_scipy(tm.matrix), to_scipy(tm.matrix).T.tocsr()))
    return len(fwd) == len(bwd) == tm.size


def csgraph_constants(tm, k_max):
    """Oracle: uniform_irreducibility_constants by scipy's unweighted
    shortest paths over the whole domain."""
    data = tm.matrix.data
    delta0 = float(data[data > 0].min())
    lengths = code_lengths(tm.codes)
    ok = np.flatnonzero(lengths + k_max * tm.range_bound <= lengths.max())
    adjacent = tree_distances(tm.codes[ok, None], tm.codes[None, ok]) == 1
    if not adjacent.any():
        raise ValueError("domain too small for the requested chain margin")
    steps = shortest_path(to_scipy(tm.matrix) > 0, unweighted=True, indices=ok)[:, ok][adjacent]
    far = int((steps > k_max).sum())
    if far:
        raise AssertionError(f"{far} adjacent pairs not connected within {k_max} steps")
    return delta0, int(steps.max())


# every point mass and every even pair on the words of length <= 3, at most one of them of length 3
SHORT_WORDS = [word(c) for c in range(15)]
GRID_MEASURES = [{w: 1.0} for w in SHORT_WORDS] + [
    {u: 0.5, v: 0.5} for u, v in itertools.combinations(SHORT_WORDS, 2) if len(u) + len(v) <= 5
]


def with_root_column(tm, value):
    """The walk with every stored weight into the root set to ``value``: 0.0
    keeps them stored, as explicit zeros."""
    m = to_scipy(tm.matrix).copy()
    m.data[m.indices == 0] = value
    return TransitionMatrix(tm.codes, from_scipy(m), tm.mu, tm.q)


class TestSearchAgainstCsgraph:
    """is_generating and uniform_irreducibility_constants search the stored
    pattern level by level (fusion._hops); scipy's csgraph is the oracle."""

    @pytest.mark.parametrize("mu", GRID_MEASURES, ids=lambda mu: "+".join(w or "e" for w in mu))
    def test_generating_is_breadth_first_orders(self, mu):
        tm = transition_matrix(Measure(mu), ball(5), Q)
        assert is_generating(tm) == csgraph_generating(tm)

    def test_the_grid_holds_both_answers(self):
        answers = {is_generating(transition_matrix(Measure(mu), ball(5), Q)) for mu in GRID_MEASURES}
        assert answers == {True, False}
        assert not is_generating(transition_matrix(Measure({"a": 1.0}), ball(5), Q))

    def test_reached_from_e_but_never_back(self):
        """No weight into e: every word is reached from e and none returns,
        so only the backward search refuses the walk."""
        tm = transition_matrix(Measure({"a": 0.5, "b": 0.5}), ball(5), Q)
        stored = to_scipy(with_root_column(tm, 0.0).matrix)
        stored.eliminate_zeros()
        m = TransitionMatrix(tm.codes, from_scipy(stored), tm.mu, tm.q)
        assert len(breadth_first_order(stored, 0, return_predecessors=False)) == tm.size
        assert not csgraph_generating(m)
        assert not is_generating(m)

    def test_a_stored_zero_is_a_step_as_in_csgraph(self):
        tm = transition_matrix(Measure({"a": 0.5, "b": 0.5}), ball(5), Q)
        stored = with_root_column(tm, 0.0)
        assert (stored.matrix.data == 0.0).sum() == 2
        assert csgraph_generating(stored)
        assert is_generating(stored)

    def test_hops_of_a_path_and_its_cut(self):
        # 0 -> 1 -> 2, the first step an explicit zero
        m = fusion.CSR(np.array([0, 1, 2, 2]), np.array([1, 2]), np.array([0.0, 1.0]), (3, 3))
        assert fusion._hops(m, [0], 2).tolist() == [[0, 1, 2]]
        assert fusion._hops(m, [0, 2], 1).tolist() == [[0, 1, 2], [2, 2, 0]]
        assert fusion._hops(m, [2], 5, backward=True).tolist() == [[2, 1, 0]]

    @pytest.mark.parametrize("radius", range(4, 9))
    @pytest.mark.parametrize("mu", [{"a": 0.5, "b": 0.5}, {"": 0.2, "a": 0.3, "b": 0.5},
                                    {"a": 0.3, "b": 0.3, "aa": 0.2, "bb": 0.2},
                                    {"ab": 0.4999, "ba": 0.4999, "a": 0.0002},
                                    {"a": 0.5, "aa": 0.5},
                                    {"aa": 0.3, "b": 0.4, "aba": 0.3},
                                    {"a": 0.3, "b": 0.3, "aab": 0.2, "bba": 0.2}])
    def test_constants_are_shortest_paths(self, mu, radius):
        """Every k_max that leaves an adjacent pair clear of the frontier gives
        csgraph's (delta0, K), or raises its AssertionError word for word."""
        tm = transition_matrix(Measure(mu), ball(radius), Q)
        for k_max in range(1, (radius - 1) // tm.range_bound + 1):
            try:
                want = csgraph_constants(tm, k_max)
            except AssertionError as err:
                with pytest.raises(AssertionError, match=f"^{re.escape(str(err))}$"):
                    uniform_irreducibility_constants(tm, k_max=k_max)
            else:
                assert uniform_irreducibility_constants(tm, k_max=k_max) == want

    @pytest.mark.parametrize("mu, radius, k", [({"aa": 0.3, "b": 0.4, "aba": 0.3}, 8, 2),
                                               ({"ab": 0.4999, "ba": 0.4999, "a": 0.0002}, 8, None),
                                               ({"a": 0.5, "aa": 0.5}, 6, None)])
    def test_a_k_max_below_k_raises(self, mu, radius, k):
        """K = 2 raises at k_max = 1; a pair that needs more steps than the
        ball allows, or that never connects, raises at every k_max."""
        tm = transition_matrix(Measure(mu), ball(radius), Q)
        if k is not None:
            assert uniform_irreducibility_constants(tm, k_max=k)[1] == k
        for k_max in range(1, k or (radius - 1) // tm.range_bound + 1):
            with pytest.raises(AssertionError, match=f"within {k_max} steps$"):
                uniform_irreducibility_constants(tm, k_max=k_max)


class TestMatrixEntriesMatchScalarRoute:
    def test_entries_equal_transition_prob(self, mu_mixed):
        tm = transition_matrix(mu_mixed, ball(5), Q)
        for s in ("", "a", "ab", "ba", "bb"):
            for t in ("", "a", "ab", "aab", "abab"):
                assert tm.matrix.toarray()[heap_index(s), heap_index(t)] == pytest.approx(
                    transition_prob(mu_mixed, s, t, Q), abs=1e-15
                )


class TestAssemblyChecks:
    """The checks that guard the array assembly catch planted faults.  On a
    ball a word's position is its heap index."""

    def test_planted_out_of_range_entry_is_named(self, mu_letters):
        tm = transition_matrix(mu_letters, ball(5), Q)
        mat = to_scipy(tm.matrix).tolil()
        mat[heap_index("a"), heap_index("bbbb")] = 1e-3
        tm.matrix = from_scipy(mat)
        with pytest.raises(AssertionError, match=r"\('a', 'bbbb'\) violates the range bound 1 \(distance 5\)"):
            fusion._assert_bounded_range(tm)

    @pytest.mark.parametrize("block_rows", [10, fusion.CHECK_BLOCK_ROWS])
    def test_planted_entry_is_caught_in_every_row_block(self, mu_letters, monkeypatch, block_rows):
        """The range check runs over blocks of CSR rows; an entry planted in
        any row of ball(5) is named, so with blocks of 10 rows the first
        block ("a", row 1), the middle ones ("abbab", row 44) and the partial
        tail block of rows 60-62 ("bbbbb") are all covered."""
        monkeypatch.setattr(fusion, "CHECK_BLOCK_ROWS", block_rows)
        clean = transition_matrix(mu_letters, ball(5), Q)
        for i in range(clean.size):
            s = word(i)
            t = "aaaaa" if s.startswith("b") or not s else "bbbbb"
            mat = to_scipy(clean.matrix).tolil()
            mat[i, heap_index(t)] = 1e-3
            tm = TransitionMatrix(clean.codes, from_scipy(mat), clean.mu, clean.q)
            with pytest.raises(AssertionError, match=rf"\({s!r}, {t!r}\) violates the range bound 1 "
                                                     rf"\(distance {tree_distance(s, t)}\)"):
                fusion._assert_bounded_range(tm)

    def test_assembly_peaks_within_three_times_its_csr(self, mu_letters):
        """transition_matrix at radius 14, the ball's quantum dimensions
        included, allocates at most three times the bytes of the CSR it
        returns (tracemalloc sees numpy's buffers)."""
        ball_qdims.cache_clear()
        tracemalloc.start()
        try:
            tm = transition_matrix(mu_letters, ball(14), Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = tm.matrix
        assert peak <= 3 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)

    @pytest.mark.parametrize("row", ["", "bbbbb"])
    def test_corrupted_sampled_row_fails_the_string_route(self, mu_mixed, row):
        tm = transition_matrix(mu_mixed, ball(5), Q)
        i = heap_index(row)
        tm.matrix.data[tm.matrix.indptr[i]] *= 1.0 + 1e-12
        with pytest.raises(AssertionError, match="by fusion"):
            fusion._check_sampled_rows(tm)

    def test_dropped_entry_fails_the_string_route(self, mu_mixed):
        tm = transition_matrix(mu_mixed, ball(5), Q)
        mat = to_scipy(tm.matrix).tolil()
        mat[0, mat.rows[0][0]] = 0.0
        tm.matrix = from_scipy(mat)
        with pytest.raises(AssertionError, match="differ from the fusion components"):
            fusion._check_sampled_rows(tm)
