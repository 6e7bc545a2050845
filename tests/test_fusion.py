import numpy as np
import pytest

from aufwalk import fusion
from aufwalk.fusion import (
    Measure,
    dual_audit,
    fuse,
    is_generating,
    multiplicity,
    norm_upper_bound,
    transition_matrix,
    transition_prob,
    uniform_irreducibility_constants,
)
from aufwalk.words import ball, branch, involution, qdim, qnumber
from conftest import random_word

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
        interior = tm.interior_words(7)
        sums = tm.row_sums()
        gaps = [abs(sums[tm.index[w]] - 1.0) for w in interior]
        assert max(gaps) < 1e-12

    def test_rows_substochastic(self, mu_letters):
        tm = transition_matrix(mu_letters, ball(5), Q)
        assert tm.row_sums().max() <= 1.0 + 1e-12

    def test_bounded_range(self, mu_mixed):
        tm = transition_matrix(mu_mixed, ball(6), Q)
        coo = tm.matrix.tocoo()
        from aufwalk.words import tree_distance

        for i, j, v in zip(coo.row, coo.col, coo.data):
            if v != 0:
                assert tree_distance(tm.domain[i], tm.domain[j]) <= tm.range_bound

    def test_restrict_is_submatrix(self, mu_letters):
        tm = transition_matrix(mu_letters, ball(5), Q)
        sub = branch("a", 5)
        tms = tm.restrict(sub)
        for i, s in enumerate(sub):
            for j, t in enumerate(sub):
                assert tms.matrix[i, j] == tm.matrix[tm.index[s], tm.index[t]]


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
        assert is_generating(mu_letters, 4, Q)

    def test_double_letter_not_generating(self):
        assert not is_generating(Measure({"aa": 1.0}), 4, Q)

    def test_point_mass_at_root(self):
        assert not is_generating(Measure({"": 1.0}), 2, Q)

    def test_mixed(self, mu_mixed):
        assert is_generating(mu_mixed, 4, Q)


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


class TestMatrixEntriesMatchScalarRoute:
    def test_entries_equal_transition_prob(self, mu_mixed):
        tm = transition_matrix(mu_mixed, ball(5), Q)
        for s in ("", "a", "ab", "ba", "bb"):
            for t in ("", "a", "ab", "aab", "abab"):
                assert tm.matrix[tm.index[s], tm.index[t]] == pytest.approx(
                    transition_prob(mu_mixed, s, t, Q), abs=1e-15
                )


class TestAssemblyChecks:
    """The checks that guard the array assembly catch planted faults."""

    def test_planted_out_of_range_entry_is_named(self, mu_letters):
        tm = transition_matrix(mu_letters, ball(5), Q)
        mat = tm.matrix.tolil()
        mat[tm.index["a"], tm.index["bbbb"]] = 1e-3
        tm.matrix = mat.tocsr()
        with pytest.raises(AssertionError, match=r"\('a', 'bbbb'\) violates the range bound 1 \(distance 5\)"):
            fusion._assert_bounded_range(tm)

    @pytest.mark.parametrize("row", ["", "bbbbb"])
    def test_corrupted_sampled_row_fails_the_string_route(self, mu_mixed, row):
        tm = transition_matrix(mu_mixed, ball(5), Q)
        i = tm.index[row]
        tm.matrix.data[tm.matrix.indptr[i]] *= 1.0 + 1e-12
        with pytest.raises(AssertionError, match="by fusion"):
            fusion._check_sampled_rows(tm)

    def test_dropped_entry_fails_the_string_route(self, mu_mixed):
        tm = transition_matrix(mu_mixed, ball(5), Q)
        mat = tm.matrix.tolil()
        mat[0, mat.rows[0][0]] = 0.0
        tm.matrix = mat.tocsr()
        with pytest.raises(AssertionError, match="differ from the fusion components"):
            fusion._check_sampled_rows(tm)
