import math

import numpy as np
import pytest

from aufwalk.words import (
    RadiusCapError,
    ball,
    ball_words,
    branch,
    classical_dim,
    common_suffix_length,
    format_word,
    format_words,
    heap_index,
    indecomposable_factors,
    involution,
    parse_word,
    qbinom,
    qdim,
    qnumber,
    tree_distance,
    word,
)
from conftest import random_word

Q = 0.5


class TestInvolution:
    @pytest.mark.parametrize("w,expected", [("", ""), ("a", "b"), ("ab", "ab"), ("aab", "abb")])
    def test_examples(self, w, expected):
        assert involution(w) == expected

    def test_anti_automorphism(self, rng):
        for _ in range(200):
            x, y = random_word(rng), random_word(rng)
            assert involution(x + y) == involution(y) + involution(x)
            assert involution(involution(x)) == x

    def test_preserves_length_and_qdim(self, rng):
        for _ in range(100):
            w = random_word(rng)
            assert len(involution(w)) == len(w)
            assert qdim(involution(w), Q) == pytest.approx(qdim(w, Q), rel=1e-12)


class TestQArithmetic:
    def test_qnumber_small(self):
        assert qnumber(1, Q) == pytest.approx(1.0)
        assert qnumber(2, Q) == pytest.approx(Q + 1 / Q)
        assert qnumber(3, 0.5) == pytest.approx(5.25)

    def test_qnumber_matches_defining_formula(self):
        for n in range(1, 30):
            for q in (0.3, 0.5, 0.7, 0.95):
                direct = (q ** n - q ** -n) / (q - 1 / q)
                assert qnumber(n, q) == pytest.approx(direct, rel=1e-13)

    def test_qnumber_increasing(self):
        vals = [qnumber(n, 0.7) for n in range(1, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_qnumber_rejects_bad_input(self):
        with pytest.raises(ValueError):
            qnumber(0, Q)
        with pytest.raises(ValueError):
            qnumber(2, 1.0)

    def test_qbinom_edges(self):
        for n in range(6):
            assert qbinom(n, 0, Q) == pytest.approx(1.0)
        assert qbinom(2, 1, Q) == pytest.approx(qnumber(2, Q), rel=1e-13)

    def test_qbinom_frozen_value(self):
        # oracle: [4]! / ([2]! [2]!) at q = 1/2
        assert qbinom(4, 2, 0.5) == pytest.approx(22.3125, rel=1e-13)

    def test_qbinom_factorial_ratio(self):
        def qfactorial(n, q):
            return math.prod(qnumber(i, q) for i in range(1, n + 1))

        for q in (0.3, 0.5, 0.7):
            for n in range(9):
                for k in range(n + 1):
                    ratio = qfactorial(n, q) / (qfactorial(k, q) * qfactorial(n - k, q))
                    assert qbinom(n, k, q) == pytest.approx(ratio, rel=1e-12)

    def test_qbinom_symmetry(self):
        for n in range(10):
            for k in range(n + 1):
                assert qbinom(n, k, Q) == pytest.approx(qbinom(n, n - k, Q), rel=1e-12)

    def test_qbinom_rejects(self):
        with pytest.raises(ValueError):
            qbinom(2, 3, Q)
        with pytest.raises(ValueError):
            qbinom(-1, 0, Q)


class TestFactorsAndDimensions:
    @pytest.mark.parametrize(
        "w,factors",
        [("aba", ["aba"]), ("aab", ["a", "ab"]), ("", []), ("bbaab", ["b", "ba", "ab"])],
    )
    def test_factor_examples(self, w, factors):
        assert indecomposable_factors(w) == factors

    def test_factors_alternate_and_concatenate(self, rng):
        for _ in range(200):
            w = random_word(rng)
            factors = indecomposable_factors(w)
            assert "".join(factors) == w
            for f in factors:
                assert all(f[i] != f[i + 1] for i in range(len(f) - 1))
            # adjacent factors meet in equal letters, so each junction fuses
            # to a single irreducible component
            for f, g in zip(factors, factors[1:]):
                assert f[-1] == g[0]

    def test_qdim_examples(self):
        assert qdim("", Q) == pytest.approx(1.0)
        assert qdim("ab", Q) == pytest.approx(qnumber(3, Q), rel=1e-13)
        assert qdim("aa", Q) == pytest.approx(qnumber(2, Q) ** 2, rel=1e-13)

    def test_classical_dim(self):
        assert classical_dim("") == 1
        assert classical_dim("ab") == 3
        assert classical_dim("aa") == 4
        assert classical_dim("bbaab") == 2 * 3 * 3

    def test_classical_dim_follows_the_chebyshev_recursion_in_n(self):
        # d_k = n d_(k-1) - d_(k-2): n, n^2 - 1, n^3 - 2n per alternating block
        assert [classical_dim(w, 3) for w in ("", "a", "ab", "aba", "aa", "abba")] == [1, 3, 8, 21, 9, 64]
        assert [classical_dim(w, 4) for w in ("ab", "aba", "abab")] == [15, 56, 209]
        assert all(classical_dim(w, 2) == classical_dim(w) for w in ball_words(6))

    def test_q_to_one_limit(self, rng):
        q_near = 1.0 - 1e-8
        for _ in range(60):
            w = random_word(rng)
            assert qdim(w, q_near) == pytest.approx(classical_dim(w), rel=1e-5)

    def test_classical_below_quantum(self, rng):
        for _ in range(60):
            w = random_word(rng, max_len=6)
            if w:
                assert classical_dim(w) <= qdim(w, Q) + 1e-12


class TestTreeGeometry:
    def test_distance_examples(self):
        assert tree_distance("ab", "ab") == 0
        assert tree_distance("", "a") == 1
        assert tree_distance("ab", "bb") == 2

    def test_geodesic_examples(self):
        # the geodesic from s to t passes through their common suffix
        for s, t, via in (("ab", "bb", "b"), ("", "a", ""), ("ab", "ab", "ab"), ("aab", "bab", "ab")):
            assert common_suffix_length(s, t) == len(via)
            assert tree_distance(s, via) + tree_distance(via, t) == tree_distance(s, t)

    def test_geodesic_is_tree_path(self, rng):
        for _ in range(200):
            s, t = random_word(rng, 6), random_word(rng, 6)
            # strip s on the left down to the common suffix, then extend to t
            k = common_suffix_length(s, t)
            path = [s[i:] for i in range(len(s) - k + 1)]
            path += [t[i:] for i in range(len(t) - k - 1, -1, -1)]
            assert path[0] == s and path[-1] == t
            assert len(path) == tree_distance(s, t) + 1
            for u, v in zip(path, path[1:]):
                # tree neighbours differ by one letter at the left end
                assert u == v[1:] or v == u[1:]
                assert tree_distance(u, v) == 1

    def test_metric_on_ball(self):
        words = ball_words(4)
        n = len(words)
        d = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(n):
                d[i, j] = tree_distance(words[i], words[j])
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        for k in range(n):
            assert (d <= d[:, k][:, None] + d[k, :][None, :]).all()

    def test_common_suffix(self):
        assert common_suffix_length("ab", "bb") == 1
        assert common_suffix_length("ab", "ab") == 2
        assert common_suffix_length("a", "b") == 0


class TestBallAndBranch:
    def test_ball_examples(self):
        assert ball(0).tolist() == [0] and ball_words(0) == [""]
        assert ball(1).tolist() == [0, 1, 2] and ball_words(1) == ["", "a", "b"]
        assert ball(2).dtype == np.int64

    def test_ball_size_matches_enumeration(self):
        # oracle: breadth-first enumeration by left extension
        for radius in range(0, 7):
            seen = {""}
            frontier = [""]
            for _ in range(radius):
                frontier = [c + w for w in frontier for c in "ab"]
                seen.update(frontier)
            got = ball_words(radius)
            assert len(got) == 2 ** (radius + 1) - 1
            assert set(got) == seen
            assert ball(radius).tolist() == [heap_index(w) for w in got]

    def test_ball_ordering(self):
        words = ball_words(3)
        keys = [(len(w), w) for w in words]
        assert keys == sorted(keys)

    def test_ball_distance_is_length(self, rng):
        for w in ball_words(4):
            assert tree_distance("", w) == len(w)

    def test_radius_cap(self):
        for build in (ball, ball_words):
            with pytest.raises(RadiusCapError):
                build(21)

    def test_branch(self):
        got = [word(c) for c in branch("ab", 4)]
        assert got == ["ab", "aab", "bab", "aaab", "abab", "baab", "bbab"]
        assert all(w.endswith("ab") for w in got)
        assert branch("ab", 1).tolist() == []
        assert branch("", 2).tolist() == ball(2).tolist()


class TestSerialization:
    def test_roundtrip(self):
        assert parse_word("e") == ""
        assert format_word("") == "e"
        # a heap index formats as its word
        assert format_word(0) == "e" and format_word(np.int64(5)) == "ba"
        assert word(heap_index("abba")) == "abba"
        with pytest.raises(ValueError):
            word(-1)
        assert parse_word("ab") == "ab"
        with pytest.raises(ValueError):
            parse_word("xy")

    @pytest.mark.parametrize("radius", [0, 1, 5, 12])
    def test_format_words_renders_each_word(self, radius):
        """The byte rendering gives format_word of every heap index, the
        root as "e", NUL-padded to the longest, for a whole ball and for an
        unsorted selection."""
        selection = np.random.default_rng(radius).integers(0, len(ball(radius)), size=50)
        for codes in (ball(radius), selection):
            letters = format_words(codes)
            want = [format_word(i).encode() for i in codes]
            width = max(map(len, want))
            assert letters.dtype == np.uint8 and letters.shape == (len(codes), width)
            assert [bytes(row) for row in letters] == [w.ljust(width, b"\0") for w in want]

    def test_format_words_of_no_words(self):
        assert format_words(np.zeros(0, dtype=np.int64)).shape == (0, 1)
