import json
import math
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu

from aufwalk import cli, kernels, perturbed
from aufwalk.cli import EXIT_AUDIT, EXIT_INTERNAL, main
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
from aufwalk.words import ball, ball_words, branch, code_lengths, heap_index, heap_indices, qdim, tree_distance, word
from conftest import branch_context, from_scipy, to_scipy

Q = 0.5
EXAMPLE = Path(__file__).resolve().parent.parent / "demos" / "config.example.json"


BENCHMARK_WEIGHTS = (0.3, 0.35, 0.4, 0.45, 0.55, 0.6, 0.65, 0.7)


def eigsh_norm(matrix, weights) -> float:
    """Oracle: the weighted operator norm from the top eigenvalue of A^T A,
    A = D M D^-1 with D = diag(sqrt(weights))."""
    d = np.sqrt(weights)
    a = sp.diags(d) @ to_scipy(matrix) @ sp.diags(1.0 / d)
    return float(np.sqrt(eigsh((a.T @ a).tocsc(), k=1, which="LA", return_eigenvectors=False)[0]))


def neumann_steps(top: float) -> int:
    """Terms of the series oracle: enough for a tail of 1e-13 at the
    certified top, 40 to 600 of them; one when the top is 0."""
    return 1 if top == 0.0 else min(600, max(40, math.ceil(math.log(1e-13) / math.log(top))))


def neumann_excess(table, sources) -> float:
    """Oracle: the largest excess of |G(s, .) - S_s| over the rigorous tail of
    S_s plus a 1e-12 floor, S_s the truncated Neumann series of the unit
    column of s under W^T (<= 0 is a pass).  On the dual weights 1/m the tail
    is top^(N+1) / (1 - top), off by sqrt(m_t / m_s) at entry t."""
    tm, top = table.walk, table.norm_interval[1]
    a, m, steps = to_scipy(tm.matrix).T.tocsr(), tm.haar_weights(), neumann_steps(top)
    worst = -math.inf
    for s, row in zip(sources, table.source_rows(sources)):
        vec = np.zeros(tm.size)
        vec[tm.positions([s])[0]] = 1.0
        acc = vec.copy()
        for _ in range(steps):
            vec = a @ vec
            acc += vec
        tail = top ** (steps + 1) / (1.0 - top) * np.sqrt(m / m[tm.positions([s])[0]])
        worst = max(worst, float((np.abs(row - acc) - tail - 1e-12).max()))
    return worst


def certified_rows(table) -> np.ndarray:
    """The rows a full table certifies: its first, middle and last."""
    k = len(table.rows)
    return table.rows[[0, (k - 1) // 2, k - 1]]


def under_each_factor():
    """Each factor class a Green solve may take, in turn: the level sweeps,
    which the chooser gives every range-1 walk on a ball or branch, and
    SuperLU, which it then gives every walk.  Yields a monkeypatch context
    and the class, in whose place the test plants a subclass."""
    for name in ("_LevelSweeps", "_LeavesFirstLU"):
        with pytest.MonkeyPatch.context() as patch:
            if name == "_LeavesFirstLU":
                patch.setattr(kernels, "_factor", lambda walk, w, narrow: kernels._LeavesFirstLU(w, narrow))
            yield patch, getattr(kernels, name)


def unit_panel(rhs) -> bool:
    """True for the Green solve's own right-hand sides, unit columns; the
    certificate's are its residual bounds."""
    return bool(np.isin(rhs, (0.0, 1.0)).all())


def planted_lu(base, error, entry, relative=False):
    """A subclass of the factor class ``base`` that adds ``error`` (times the
    solved value when ``relative``) to one entry of the Green solve's unit
    columns, or of the level sweeps' full table, which holds them as rows:
    ``entry`` is a (row, panel column) pair, or a row and the unit column it
    holds.  The certificate's own solves stay untouched."""

    class PlantedLU(base):
        def solve(self, rhs):
            x = super().solve(rhs)
            if unit_panel(rhs):
                row, col = entry if isinstance(entry, tuple) else (entry, rhs[entry] == 1.0)
                x[row, col] += error * (x[row, col] if relative else 1.0)
            return x

        def table(self):
            g = super().table()
            # a full table's first panel holds the units 0 .. _PANEL - 1
            row, col = entry if isinstance(entry, tuple) else (entry, entry)
            g[col, row] += error * (g[col, row] if relative else 1.0)
            return g

    return PlantedLU


def exact_columns(walk, units) -> list[list[Fraction]]:
    """Oracle: the columns of (I - W^T)^-1 at the given positions, by
    Gauss-Jordan elimination in exact rationals on the float entries of W,
    leaves first."""
    w = walk.matrix.toarray()
    n = len(w)
    rows = [[Fraction(int(i == j)) - Fraction(w[j, i]) for j in range(n)] + [Fraction(int(i == u)) for u in units]
            for i in range(n)]
    for c in reversed(range(n)):
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [v - f * p for v, p in zip(rows[r], rows[c])]
    return [[rows[i][n + k] for i in range(n)] for k in range(len(units))]


def certificate_of(table):
    """A certificate built as the Green solve of the table builds its own."""
    narrow = len(table.rows) < table.size
    return kernels._Certificate(table.walk, table.norm_interval[1], kernels._factor(table.walk, table.walk.matrix, narrow),
                                narrow)


def column_bounds(certificate, x, unit) -> np.ndarray:
    """The certificate's bounds on one solved column, the unit's at ``unit``."""
    return certificate.bounds(x[:, None], np.array([unit]))[:, 0]


class TestWeightedNorm:
    def test_zero_matrix(self):
        assert weighted_operator_norm(np.zeros((4, 4)), np.ones(4)) == (0.0, 0.0)
        assert weighted_operator_norm(np.zeros((1, 1)), np.ones(1)) == (0.0, 0.0)

    def test_diagonal(self):
        w = np.diag([0.3, 0.7, 0.1])
        bottom, top = weighted_operator_norm(w, np.ones(3))
        assert bottom <= 0.7 <= top
        # one step from the all-ones vector: the bottom is |W 1| / |1|, the top
        # the largest diagonal entry
        assert (bottom, top) == pytest.approx((math.sqrt(0.59 / 3.0), 0.7), rel=1e-11)

    def test_weighting_matters(self):
        w = np.array([[0.0, 1.0], [0.0, 0.0]])
        m = np.array([4.0, 1.0])
        # conjugation by sqrt(m) rescales the single entry by 2: A 1 = (2, 0)
        # and A^T A 1 = (0, 4)
        assert weighted_operator_norm(w, m) == pytest.approx((math.sqrt(2.0), 2.0), rel=1e-11)

    def test_signed_matrix(self):
        # a rotation by 45 degrees scaled by 1/sqrt(2): the top bounds the
        # norm of |A| (all entries 1/2, norm 1), the bottom that of A itself
        w = np.array([[0.5, -0.5], [0.5, 0.5]])
        bottom, top = weighted_operator_norm(w, np.ones(2))
        assert bottom == pytest.approx(np.sqrt(0.5), rel=1e-15) and bottom <= np.sqrt(0.5)
        assert top == pytest.approx(1.0, rel=1e-11) and top >= 1.0

    def test_below_analytic_bound(self, mu_letters, mu_mixed):
        for mu in (mu_letters, mu_mixed):
            for q in (0.3, 0.5, 0.7):
                tm = transition_matrix(mu, ball(8), q)
                bottom, top = weighted_operator_norm(tm.matrix, tm.haar_weights())
                assert bottom <= top <= tm.norm_bound < 1.0
                # one path: dense input is converted to the same CSR matrix
                assert weighted_operator_norm(tm.matrix.toarray(), tm.haar_weights()) == (bottom, top)

    def test_input_kept_and_signs_read_after_scaling(self, mu_mixed):
        """The conjugate shares the input's CSR pattern and scales a copy of
        its entries: the input keeps its bits, and a signed copy of the walk
        gets the unsigned walk's top (the top bounds || |A| ||)."""
        tm = transition_matrix(mu_mixed, ball(7), Q)
        w = tm.matrix
        before = (w.data.copy(), w.indices.copy(), w.indptr.copy())
        interval = weighted_operator_norm(w, tm.haar_weights())
        assert all(np.array_equal(x, y) for x, y in zip(before, (w.data, w.indices, w.indptr)))
        signed = from_scipy(to_scipy(w))
        signed.data[::2] *= -1.0
        assert weighted_operator_norm(signed, tm.haar_weights())[1] == interval[1]

    @pytest.mark.parametrize("weight", BENCHMARK_WEIGHTS)
    def test_interval_holds_the_eigsh_norm(self, weight):
        """At every weight of the benchmark grid (ball 10, q = 0.5) the
        interval a solve takes holds the oracle's norm."""
        tm = transition_matrix(Measure({"a": weight, "b": 1.0 - weight}), ball(10), Q)
        m = tm.haar_weights()
        norm = eigsh_norm(tm.matrix, m)
        bottom, top = weighted_operator_norm(tm.matrix, m)
        assert bottom <= norm <= top <= tm.norm_bound
        # the one step certifies the bound with room to spare
        assert top < tm.norm_bound - 0.1


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

    def test_radius_zero_zero_matrix_passes(self, mu_letters):
        # the certified top is 0: the bound is the rounding allowance alone,
        # 2 gamma_2 on G(e, e) = 1
        tm = transition_matrix(mu_letters, ball(0), Q)
        assert tm.matrix.nnz == 0
        table = green_table(tm)
        assert table.norm_interval == (0.0, 0.0)
        assert np.array_equal(table.green, np.eye(1))
        assert table.residual == 0.0 and 0.0 < table.error_bound < 1e-15

    def test_neumann_check_near_q_one_is_not_vacuous(self):
        """At q = 0.99 lam is about 0.99995, which would ask the series oracle
        for 600 terms and a tail of about 2e4; the certified top asks fewer,
        the series then holds the certified rows, and the certificate bounds
        their realised error against a dense inverse."""
        tm = transition_matrix(Measure({"a": 0.35, "b": 0.65}), ball(8), 0.99)
        table = green_table(tm)
        assert tm.norm_bound > 0.9999 and neumann_steps(tm.norm_bound) == 600
        assert table.norm_interval[1] < 0.85 and neumann_steps(table.norm_interval[1]) < 600
        rows = certified_rows(table)
        assert neumann_excess(table, rows) <= 0.0
        inv = np.linalg.inv(np.eye(tm.size) - tm.matrix.toarray())[rows]
        assert (np.abs(table.source_rows(rows) - inv) / inv).max() <= table.error_bound <= 1e-12

    @pytest.mark.parametrize("row, sampled", [(0, True), (127, True), (254, True), (1, False)])
    def test_neumann_check_samples_the_first_middle_and_last_row(self, walk7, row, sampled):
        # an error of 5e-11 on a diagonal entry passes the residual gate; the
        # certificate covers the rows the series check sampled, the first,
        # middle and last of the 255-word table, and sees it there only
        tm, _ = walk7
        for patch, base in under_each_factor():
            patch.setattr(kernels, base.__name__, planted_lu(base, 5e-11, row))
            table = green_table(tm)
            assert table.residual < 1e-10
            assert (table.error_bound > 1e-11) is sampled

    def test_three_point_ball_scalar_series(self, mu_letters):
        # oracle: the explicit 3x3 matrix has a single return loop e->a|b->e
        # of weight 2 * (1/2) * (1/2) / [2]^2, so G(e,e) = 1/(1 - 0.08)
        dom = ball(1)
        tm = transition_matrix(mu_letters, dom, 0.5)
        table = green_table(tm)
        assert table.green_entry(0, 0) == pytest.approx(1.0 / 0.92, rel=1e-12)

    def test_residual_and_diag(self, walk8):
        tm, table = walk8
        assert table.residual < 1e-10
        assert table.green.diagonal().min() >= 1.0
        assert table.green.diagonal().max() <= 1.0 / (1.0 - tm.norm_bound)

    def test_neumann_within_tail_bound(self, walk8):
        # the certified rows agree with the series oracle, and carry a bound
        # far below the oracle's 1e-12 floor
        _, table = walk8
        assert neumann_excess(table, certified_rows(table)) <= 0.0
        assert 0.0 < table.error_bound < 1e-13

    def test_green_entries_nonnegative(self, walk8):
        assert walk8[1].green.min() >= 0.0

    def test_dense_and_csr_input_give_identical_tables(self, walk8):
        tm, table = walk8
        dense = green_table(TransitionMatrix(tm.codes, tm.matrix.toarray(), tm.mu, Q))
        assert np.array_equal(dense.green, table.green)
        assert (dense.residual, dense.norm_interval, dense.error_bound) == (
            table.residual, table.norm_interval, table.error_bound
        )

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_matches_dense_inverse(self, q):
        dom = ball(7)
        tm = transition_matrix(Measure({"a": 0.35, "b": 0.65}), dom, q)
        g = green_table(tm).green
        inv = np.linalg.inv(np.eye(len(dom)) - tm.matrix.toarray())
        assert (np.abs(g - inv) / np.abs(inv)).max() < 1e-13

    def test_panels_give_the_one_shot_table(self, walk7):
        # 255 words: fifteen full panels and a partial one.  SuperLU's table is
        # the transpose of the identity solved at once on its factors of
        # (I - W)^T, to the bit; the level sweeps' first-passage table is
        # within 16 ulps of their own one-shot solve, entrywise
        tm, _ = walk7
        n = tm.size
        assert n % kernels._PANEL != 0
        for _, base in under_each_factor():
            table = green_table(tm)
            factor = kernels._factor(tm, tm.matrix, False)
            assert type(factor) is base
            one_shot = factor.solve(np.eye(n)).T
            if base is kernels._LeavesFirstLU:
                assert np.array_equal(table.green, one_shot)
            else:
                assert (np.abs(table.green - one_shot) / one_shot).max() <= SWEEP_ORACLE_REL
            assert table.green.flags.c_contiguous

    def test_residual_covers_the_whole_table(self, walk7):
        # the residual of the solved columns, the rows of G: W^T G^T - G^T + I
        tm, table = walk7
        x = table.green.T
        assert table.residual == np.abs(to_scipy(tm.matrix).T @ x - x + np.eye(tm.size)).max()

    def test_residual_above_tolerance_raises(self, walk8):
        tm, table = walk8
        assert table.residual > 0.0
        with pytest.raises(RuntimeError, match="residual"):
            green_table(tm, solver_tol=table.residual / 2)

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
            green_table(TransitionMatrix(heap_indices(["", "a"]), w, Measure({"a": 1.0}), Q))

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
        m = np.array([qdim(w, Q) for w in ball_words(6)]) ** 2
        lhs = gd * m[:, None]
        rhs = (g * m[:, None]).T
        rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
        assert rel.max() < 1e-9


def fill(lu) -> int:
    """Entries of the LU factors beyond the one diagonal."""
    return lu.L.nnz + lu.U.nnz - lu.shape[0]


class TestLeavesFirstLU:
    """(I - W)^T, the matrix every Green solve factors, is factored longest
    words first, so every word is eliminated after its children in the tree."""

    @pytest.mark.parametrize("mu", [{"a": 0.35, "b": 0.65}, {"a": 0.5, "b": 0.5}, {"": 0.2, "a": 0.4, "b": 0.4}])
    @pytest.mark.parametrize("x", ["", "a", "ba", "abb"])
    def test_a_range_one_walk_makes_no_fill_and_no_pivot(self, mu, x):
        # on the ball (x = e) and on branches of it the pattern of I - W is a
        # tree's, and each pivot is a leaf of what is left
        tm = transition_matrix(Measure(mu), ball(9), Q).restrict(branch(x, 9))
        lu = kernels._LeavesFirstLU(tm.matrix).lu
        assert fill(lu) == (sp.identity(tm.size) - to_scipy(tm.matrix)).nnz
        assert np.array_equal(lu.perm_r, np.arange(tm.size))

    @pytest.mark.parametrize("longer", [("aa", "bb"), ("ab", "ba"), ("aab", "bba")])
    def test_a_longer_range_fills_about_as_colamd(self, longer):
        # at ball 9 the fill of (I - W)^T is 1.014, 0.963 and 0.933 of
        # COLAMD's (1.021, 0.951 and 0.936 at ball 6)
        mu = Measure({"a": 0.3, "b": 0.3, longer[0]: 0.2, longer[1]: 0.2})
        tm = transition_matrix(mu, ball(9), Q)
        colamd = splu(sp.identity(tm.size, format="csc") - to_scipy(tm.matrix).T.tocsc(), permc_spec="COLAMD")
        assert fill(kernels._LeavesFirstLU(tm.matrix).lu) <= 1.02 * fill(colamd)

    @pytest.mark.parametrize("mu", [{"a": 0.5, "b": 0.5}, {"a": 0.3, "b": 0.3, "aa": 0.2, "bb": 0.2},
                                    {"a": 0.3, "b": 0.3, "aab": 0.2, "bba": 0.2}])
    def test_one_column_panels_keep_the_factors(self, mu):
        """SuperLU's one-column panels give the L/U pattern and the row
        permutation of its default panels, and the entries to round-off."""
        tm = transition_matrix(Measure(mu), ball(9), Q)
        wide, narrow = (kernels._LeavesFirstLU(tm.matrix, narrow=flag).lu for flag in (False, True))
        assert np.array_equal(wide.perm_r, narrow.perm_r)
        for factor in ("L", "U"):
            a, b = (getattr(lu, factor).tocsr().sorted_indices() for lu in (wide, narrow))
            assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            assert np.abs(a.data - b.data).max() <= 1e-15 * np.abs(a.data).max()

    def test_only_the_rows_solve_takes_one_column_panels(self, monkeypatch):
        """The rows solve drops SuperLU's panel work arrays; the full table
        keeps the default panels.  A range-2 walk takes SuperLU."""
        tm = transition_matrix(Measure({"a": 0.3, "b": 0.3, "aa": 0.2, "bb": 0.2}), ball(8), Q)
        panels = []

        def recording(a, **options):
            panels.append(options["panel_size"])
            return splu(a, **options)

        # _LeavesFirstLU imports splu when it first factors
        monkeypatch.setattr("scipy.sparse.linalg.splu", recording)
        green_table(tm)
        green_rows(tm, [heap_index("ab")])
        assert panels == [None, 1]


# the level sweeps and SuperLU agree on every Green entry within 16 ulps,
# relative; on the walks of TestLevelSweeps the rows measured at most 1.4e-15
# (6 ulps) and the first-passage tables 2.0e-15 (9 ulps)
SWEEP_ORACLE_REL = 16 * np.finfo(float).eps
SWEEP_MEASURES = [{"a": 0.35, "b": 0.65}, {"a": 0.5, "b": 0.5}, {"": 0.2, "a": 0.3, "b": 0.5}]


def assert_same_green(sweeps, superlu):
    """Two solves of the same rows agree within SWEEP_ORACLE_REL entrywise."""
    assert np.array_equal(sweeps.rows, superlu.rows)
    assert (np.abs(sweeps.green - superlu.green) / np.abs(superlu.green)).max() <= SWEEP_ORACLE_REL


class TestLevelSweeps:
    """The level sweeps (_LevelSweeps), the factor of every range-1 walk on a
    ball or a branch, against SuperLU (_LeavesFirstLU), their oracle."""

    @pytest.mark.parametrize("mu", SWEEP_MEASURES)
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("x", ["", "ab"])
    def test_rows_and_tables_match_superlu(self, mu, q, x):
        # rows of four words of the radius-12 ball or branch, and the whole
        # table at radius 8
        for radius, solve in ((12, lambda walk: green_rows(walk, walk.codes[[1, 5, walk.size // 2, -1]])),
                              (8, green_table)):
            walk = transition_matrix(Measure(mu), ball(radius), q).restrict(branch(x, radius))
            assert type(kernels._factor(walk, walk.matrix, False)) is kernels._LevelSweeps
            assert_same_green(*(solve(walk) for _ in under_each_factor()))

    @pytest.mark.parametrize("signed", [False, True])
    def test_the_perturbed_walk_of_the_example_and_its_absolute_factor(self, engine, mu_letters, signed):
        """The perturbed branch walk Q of the example config (branch of a,
        radius 7, 127 words) has no negative weight (the least is 0.08); a
        copy with its largest weight negated is certified with the factor of
        I - |W^T|, which the sweeps give too."""
        walk = perturbed.q_matrix(branch_context(engine, mu_letters, "a", 7))
        w = to_scipy(walk.matrix).copy()
        if signed:
            w.data[w.data.argmax()] *= -1.0
        walk = TransitionMatrix(walk.codes, from_scipy(w), walk.mu, walk.q)
        assert walk.size == 127 and bool(w.data.min() < 0.0) is signed
        assert_same_green(*(green_table(walk) for _ in under_each_factor()))
        eye, absolute = np.eye(walk.size), from_scipy(abs(w))
        sweeps, superlu = kernels._LevelSweeps(absolute).solve(eye), kernels._LeavesFirstLU(absolute).solve(eye)
        assert (np.abs(sweeps - superlu) / np.abs(superlu)).max() <= SWEEP_ORACLE_REL

    @pytest.mark.parametrize("mu", SWEEP_MEASURES)
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_the_factors_are_superlus_to_the_bit(self, mu, q):
        """Each level's first half, then its second: SuperLU's order in
        reversed heap order.  The pivots are its U diagonal and the
        multipliers up / d the negated entries of its L, bit for bit (the
        halves the other way round miss in three of these nine walks)."""
        walk = transition_matrix(Measure(mu), ball(9), q)
        w, n = walk.matrix, walk.size
        sweeps, lu = kernels._LevelSweeps(w), kernels._LeavesFirstLU(w).lu
        assert np.array_equal(sweeps.d, lu.U.diagonal()[::-1])
        lower = (lu.L - sp.identity(n)).tocoo()
        assert lower.nnz == n - 1
        assert np.array_equal(-lower.data, sweeps.lower[n - 1 - lower.col])

    @pytest.mark.parametrize("mu", [{"a": 0.35, "b": 0.65}, {"a": 0.3, "b": 0.3, "aa": 0.2, "bb": 0.2}])
    def test_a_block_of_columns_is_certified_as_each_column_alone(self, mu):
        """The certificate bounds a block of solved columns at once, and
        each column gets the bits it gets alone, under either factor."""
        walk = transition_matrix(Measure(mu), ball(8), Q)
        for _ in under_each_factor():
            rows = green_rows(walk, heap_indices(["a", "ab", "bba"]))
            units = walk.positions(rows.rows)
            certificate = certificate_of(rows)
            block = certificate.bounds(np.ascontiguousarray(rows.green.T), units)
            for j, unit in enumerate(units):
                assert np.array_equal(block[:, j], column_bounds(certificate, rows.green[j], unit))

    @pytest.mark.parametrize("pivot", [0.0, -0.5, math.nan])
    def test_a_pivot_that_is_not_positive_raises(self, mu_letters, pivot):
        # the last word is a leaf: its pivot is 1 - W(t, t), planted here
        w = to_scipy(transition_matrix(mu_letters, ball(3), Q).matrix).tolil(copy=True)
        w[14, 14] = 1.0 - pivot
        with pytest.raises(RuntimeError, match="pivot .* not positive"):
            kernels._LevelSweeps(from_scipy(w))

    def test_an_entry_off_the_tree_raises(self, mu_letters):
        # between the siblings aa and ba, which no range-1 step joins
        w = to_scipy(transition_matrix(mu_letters, ball(3), Q).matrix).tolil(copy=True)
        w[heap_index("aa"), heap_index("ba")] = 0.01
        with pytest.raises(RuntimeError, match="off the tree's edges"):
            kernels._LevelSweeps(from_scipy(w))

    def test_the_chooser_takes_superlu_off_range_one_and_complete_subtrees(self, mu_letters):
        ball7 = transition_matrix(mu_letters, ball(7), Q)
        range2 = transition_matrix(Measure({"a": 0.3, "b": 0.3, "aa": 0.2, "bb": 0.2}), ball(6), Q)
        cases = [
            (ball7, kernels._LevelSweeps),
            (ball7.restrict(branch("ba", 7)), kernels._LevelSweeps),
            (ball7.restrict(ball(0)), kernels._LevelSweeps),
            (range2, kernels._LeavesFirstLU),
            # a ball less its last word, and the same with a word of length 7
            # in its place: not complete subtrees
            (ball7.restrict(ball(6)[:-1]), kernels._LeavesFirstLU),
            (ball7.restrict(np.append(ball(6)[:-1], heap_index("a" * 7))), kernels._LeavesFirstLU),
        ]
        for walk, factor in cases:
            assert type(kernels._factor(walk, walk.matrix, False)) is factor


def per_level_subtree(codes) -> bool:
    """Oracle: True when the sorted heap indices are a complete subtree in
    heap order, level by level: level j of the words y x (x the first word)
    is positions [2^j - 1, 2^(j+1) - 1), the indices 2^(len(x) + j) - 1 +
    bits(x) + (i << len(x)) for i < 2^j."""
    n = len(codes)
    if n == 0 or n & (n + 1):
        return False
    length = (int(codes[0]) + 1).bit_length() - 1
    base = int(codes[0]) + 1 - (1 << length)
    return all(
        np.array_equal(codes[(1 << j) - 1:(1 << (j + 1)) - 1],
                       (1 << (length + j)) - 1 + base + (np.arange(1 << j, dtype=np.int64) << length))
        for j in range(n.bit_length())
    )


class TestHeapSubtree:
    """_heap_subtree, which reads words.branch, against the per-level rule."""

    @staticmethod
    def check(codes, want: bool):
        codes = np.asarray(codes, dtype=np.int64)
        assert per_level_subtree(codes) is want
        assert kernels._heap_subtree(codes) is want

    @pytest.mark.parametrize("radius", range(13))
    def test_balls(self, radius):
        self.check(ball(radius), True)

    @pytest.mark.parametrize("length", range(20))
    def test_branches_reach_the_radius_cap(self, length):
        """Branches at depth 1 of the first, the last and two random words of
        each length up to 19, so that their longest words have length 20."""
        picks = np.random.default_rng(length).integers(0, 1 << length, 2)
        for bits in (0, (1 << length) - 1, *picks.tolist()):
            x = word((1 << length) - 1 + bits)
            self.check(branch(x, length + 1), True)
            self.check(branch(x, length), True)

    @pytest.mark.parametrize("x, radius", [("a", 6), ("ab", 7), ("bba", 11)])
    def test_a_word_swapped_for_another_of_its_length(self, x, radius):
        domain = branch(x, radius)
        rng = np.random.default_rng(radius)
        for position in (0, 1, len(domain) // 2, len(domain) - 1, *rng.integers(0, len(domain), 4).tolist()):
            length = int(code_lengths(domain[position]))
            others = np.setdiff1d(np.arange((1 << length) - 1, (1 << (length + 1)) - 1), domain)
            swapped = domain.copy()
            swapped[position] = rng.choice(others)
            self.check(np.sort(swapped), False)

    @pytest.mark.parametrize("domain, want", [
        (ball(0), True), (ball(1), False), (ball(5), False), (branch("ab", 8), True), (branch("bb", 8), False),
    ])
    def test_a_set_shifted_by_one_index(self, domain, want):
        """One index up, one word and the branch of ab (now that of ba) stay
        complete subtrees; a ball past radius 0 does not, nor the branch of bb,
        whose first index carries into the longer word aaa."""
        self.check(domain + 1, want)

    @pytest.mark.parametrize("domain", [ball(0), ball(5), branch("ab", 8)])
    def test_a_set_without_its_root_and_the_empty_domain(self, domain):
        self.check(domain[1:], False)
        self.check(np.zeros(0, dtype=np.int64), False)


def fail_in_the_last_columns(patch, base, fault):
    """Patch the factor class ``base`` so that ``fault`` runs on the solved
    columns of the last unit, in domain order: on the level sweeps' full
    table (its transpose) or on SuperLU's last panel."""

    class FaultyLU(base):
        def solve(self, rhs):
            x = super().solve(rhs)
            if rhs[-1, -1] == 1.0:
                fault(x)
            return x

        def table(self):
            g = super().table()
            fault(g.T)
            return g

    patch.setattr(kernels, base.__name__, FaultyLU)


class TestOneThread:
    """Every Green solve runs on the caller's thread: the level sweeps' table
    and its gates, and SuperLU's panels, in one loop."""

    def test_a_solve_error_reaches_the_caller(self, walk8):
        tm, _ = walk8
        error = RuntimeError("solve failed")

        def fail(x):
            raise error

        for patch, base in under_each_factor():
            fail_in_the_last_columns(patch, base, fail)
            with pytest.raises(RuntimeError) as caught:
                green_table(tm)
            assert caught.value is error

    def test_a_fault_in_the_table_or_a_panel_fails_the_residual_gate_and_exits_4(self, tmp_path, walk8, capsys):
        tm, _ = walk8

        def corrupt(x):
            x[:, -1] += 1e-6

        config = json.loads(Path(EXAMPLE).read_text())
        config.update(ballRadius=8)
        (tmp_path / "config.json").write_text(json.dumps(config))
        for patch, base in under_each_factor():
            fail_in_the_last_columns(patch, base, corrupt)
            with pytest.raises(RuntimeError, match="residual"):
                green_table(tm)
            assert main(["walk", str(tmp_path / "config.json"), "--out", str(tmp_path / base.__name__)]) == EXIT_INTERNAL
            err = capsys.readouterr().err
            assert err.startswith("internal error: RuntimeError: Green solve residual") and err.count("\n") == 1

    def test_the_radius_11_table_starts_no_thread(self, mu_letters, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"the Green solve started a thread: {thread}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        table = green_table(transition_matrix(mu_letters, ball(11), Q))
        assert table.size == 4095 and table.residual < 1e-10


class TestFirstPassageTable:
    """The level sweeps' full table (_LevelSweeps.table), from first-passage
    factors, against dense inverses: on every row, not only the three the
    certificate covers."""

    def test_a_reducible_walk_keeps_the_exact_zeros(self):
        # the point mass at a never steps to a word that does not end in a
        # (walk refuses it by is_generating; green_table does not ask): F(e, b) = 0,
        # and every G(s, t) that needs it is an exact zero, as in the dense inverse
        tm = transition_matrix(Measure({"a": 1.0}), ball(4), Q)
        table = green_table(tm)
        inv = np.linalg.inv(np.eye(tm.size) - tm.matrix.toarray())
        assert table.green_entry(0, heap_index("b")) == 0.0
        assert np.array_equal(table.green == 0.0, inv == 0.0) and (inv == 0.0).sum() > tm.size
        assert np.abs(table.green - inv).max() <= SWEEP_ORACLE_REL * np.abs(inv).max()

    @pytest.mark.parametrize("case", ["q0.99", "branch", "signed_perturbed"])
    def test_every_row_matches_the_dense_inverse(self, engine, mu_letters, case):
        if case == "q0.99":
            walk = transition_matrix(Measure({"a": 0.35, "b": 0.65}), ball(8), 0.99)
        elif case == "branch":
            walk = transition_matrix(Measure({"": 0.2, "a": 0.3, "b": 0.5}), ball(9), Q).restrict(branch("ab", 9))
        else:
            q_walk = perturbed.q_matrix(branch_context(engine, mu_letters, "a", 7))
            w = to_scipy(q_walk.matrix).copy()
            w.data[w.data.argmax()] *= -1.0
            walk = TransitionMatrix(q_walk.codes, from_scipy(w), q_walk.mu, q_walk.q)
            assert w.data.min() < 0.0
        assert type(kernels._factor(walk, walk.matrix, False)) is kernels._LevelSweeps
        green = green_table(walk).green
        inv = np.linalg.inv(np.eye(walk.size) - walk.matrix.toarray())
        assert np.abs(green - inv).max() <= SWEEP_ORACLE_REL * np.abs(inv).max()


class TestTruncationBound:
    # the walk of mu_letters at q = 0.5 has range 1 and norm bound 2 / [2]_q = 0.8
    def test_frozen_value(self, walk8):
        got = truncation_error_bound(12, 0, 0, walk8[0])
        assert got == pytest.approx(0.8 ** 24 / 0.2, rel=1e-12)

    @pytest.mark.parametrize("s, t", [("", ""), ("ab", "b"), ("", "abab"), ("bbb", "a")])
    def test_frozen_value_at_range_two(self, s, t):
        """An escaping path of a range-2 walk needs ceil(2 depth / 2) = depth
        steps, so the bound is qdim(t)/qdim(s) lam^depth / (1 - lam); a bound
        that ignored the range would take 2 depth steps and be lam^depth
        smaller, not rigorous."""
        walk = transition_matrix(Measure({"a": 0.3, "b": 0.3, "aa": 0.2, "bb": 0.2}), ball(2), Q)
        assert walk.range_bound == 2
        lam = walk.norm_bound
        depth = 9 - max(len(s), len(t))
        want = qdim(t, Q) / qdim(s, Q) * lam ** depth / (1.0 - lam)
        assert truncation_error_bound(9, heap_index(s), heap_index(t), walk) == pytest.approx(want, rel=1e-12)

    def test_doubling_depth_squares_factor(self, walk8):
        b1 = truncation_error_bound(8, 0, 0, walk8[0])
        b2 = truncation_error_bound(16, 0, 0, walk8[0])
        assert b2 == pytest.approx(b1 ** 2 * 0.2, rel=1e-10)

    def test_bound_dominates_observed_truncation(self, mu_letters):
        small = green_table(transition_matrix(mu_letters, ball(6), Q))
        big = green_table(transition_matrix(mu_letters, ball(10), Q))
        for s in ("", "a", "ab"):
            for t in ("", "b", "aa"):
                si, ti = heap_index(s), heap_index(t)
                gap = abs(big.green_entry(si, ti) - small.green_entry(si, ti))
                assert gap <= truncation_error_bound(6, si, ti, small.walk)

    def test_rejects_outside(self, walk8):
        with pytest.raises(ValueError):
            truncation_error_bound(3, heap_index("aaaa"), 0, walk8[0])

    def test_heap_index_array_matches_words(self, mu_mixed):
        walk = transition_matrix(mu_mixed, ball(2), Q)
        domain = ball_words(5)[::-1][3:40]
        codes = heap_indices(domain)
        got = truncation_error_bound(6, heap_index("ab"), codes, walk)
        assert got.tolist() == [truncation_error_bound(6, heap_index("ab"), t, walk) for t in codes]


class TestDistanceMatrix:
    @pytest.mark.parametrize("domain", [ball(5), ball(5)[50:3:-2]], ids=["ball", "reversed"])
    def test_matches_pairwise_tree_distance(self, walk8, domain):
        # the audits read G and the distances of their interior words off the table and its walk
        table = walk8[1]
        g, dist = kernels._interior_block(table, domain)
        words_ = [word(c) for c in domain]
        assert dist.tolist() == [[tree_distance(s, t) for t in words_] for s in words_]
        assert g.tolist() == [[table.green_entry(s, t) for t in domain] for s in domain]


@pytest.fixture(scope="module")
def audit_setup(walk8):
    tm, table = walk8
    delta0, k = uniform_irreducibility_constants(tm, k_max=3)
    lengths = code_lengths(tm.codes)
    interior = tm.codes[(8 - lengths > tm.range_bound) & (lengths <= 6)]
    return tm, table, delta0, k, interior


def passes(name: str, measured, bound) -> bool:
    """The verdict of the audit table's entry on a measured value and its bound."""
    return next(a for group in cli.AUDITS for a in group if a.name == name).entry(measured, bound)["pass"]


class TestHarnackAndMultiplicativity:
    def test_harnack_passes_with_chain_bound(self, audit_setup):
        tm, table, delta0, k, interior = audit_setup
        empirical = harnack_audit(table, interior)
        assert passes("harnack", empirical, delta0 ** k)
        assert empirical >= delta0 ** k

    @pytest.mark.parametrize("k", [1, 2])
    def test_harnack_fails_below_the_chain_bound(self, audit_setup, k):
        """With delta0^K at the measured delta the audit passes, and with it
        at the measured delta / 0.75 it fails: an audit that passed at half
        the chain bound would pass both."""
        tm, table, _, _, interior = audit_setup
        worst = harnack_audit(table, interior)
        for delta0, verdict in ((worst ** (1 / k), True), ((worst / 0.75) ** (1 / k), False)):
            assert passes("harnack", worst, delta0 ** k) is verdict

    def test_multiplicativity_constants(self, audit_setup):
        tm, table, delta0, k, interior = audit_setup
        c_lower, c_upper = multiplicativity_audit(table, interior)
        lower_bound = 1.0 / (1.0 - tm.norm_bound)
        upper_bound = 3.0 * (2.0 / (delta0 ** k) ** 2) ** (tm.range_bound - 1)
        assert c_lower <= lower_bound
        assert c_upper <= upper_bound
        assert passes("multiplicativity_lower", c_lower, lower_bound)
        assert passes("multiplicativity_upper", c_upper, upper_bound)
        # nearest-neighbor walk: cut vertices make the upper constant <= 1
        assert c_upper <= 1.0 + 1e-12

    def test_audits_read_a_rows_table_through_its_rows(self, audit_setup):
        # the interior's rows, asked for in reverse order, give the full table's constants
        tm, table, delta0, k, interior = audit_setup
        rows = green_rows(tm, interior[::-1])
        assert harnack_audit(rows, interior) == pytest.approx(harnack_audit(table, interior), rel=1e-12)
        mult, mult_rows = (multiplicativity_audit(t, interior) for t in (table, rows))
        assert mult_rows == pytest.approx(mult, rel=1e-12)
        # the last-entry decomposition reads only the branch rows of the entry cut
        branch_walk = tm.restrict(branch("a", 8))
        branch_table = green_table(branch_walk)
        cut_rows = green_rows(branch_walk, entry_set(branch_walk.codes, tm.range_bound))
        assert cut_rows.rows.tolist() == [heap_index("a")]
        for s in heap_indices(["b", "ab", "bb"]):
            for t in heap_indices(["a", "aa", "aba"]):
                assert last_entry_audit(s, t, table, cut_rows) == pytest.approx(
                    last_entry_audit(s, t, table, branch_table), rel=1e-9, abs=1e-15)

    def test_martin_positive_and_bounded(self, audit_setup):
        tm, table, delta0, k, interior = audit_setup
        martin = martin_rows(table, tm.codes, tm.codes)
        assert martin.min() > 0
        delta = delta0 ** k
        gee = table.green_entry(0, 0)
        for s in interior:
            bound = delta ** -len(word(s)) * gee
            # on a ball a word's position is its heap index
            assert martin[s, interior].max() <= bound


class TestLastEntry:
    def test_exact_on_matched_truncations(self, walk8):
        tm, table = walk8
        branch_table = green_table(tm.restrict(branch("a", 8)))
        for s in heap_indices(["b", "ab", "bb"]):
            for t in heap_indices(["a", "aa", "aba"]):
                resid = last_entry_audit(s, t, table, branch_table)
                assert resid < 1e-10

    def test_single_cut_for_nearest_neighbor(self, walk8):
        tm, table = walk8
        sub, x = branch("ab", 8), heap_index("ab")
        assert entry_set(sub, tm.range_bound).tolist() == [x]
        branch_table = green_table(tm.restrict(sub))
        resid = last_entry_audit(heap_index("b"), heap_index("aab"), table, branch_table)
        assert resid < 1e-10

    def test_two_step_measure_below_truncation_bounds(self, mu_mixed):
        dom = ball(8)
        tm = transition_matrix(mu_mixed, dom, Q)
        table = green_table(tm)
        branch_table = green_table(tm.restrict(branch("a", 8)))
        for s, t in (("b", "aa"), ("ab", "a")):
            resid = last_entry_audit(heap_index(s), heap_index(t), table, branch_table)
            assert resid < 1e-10

    def test_rejects_bad_sides(self, walk8):
        tm, table = walk8
        branch_table = green_table(tm.restrict(branch("a", 8)))
        with pytest.raises(ValueError, match="source"):
            last_entry_audit(heap_index("aa"), heap_index("a"), table, branch_table)
        with pytest.raises(ValueError, match="target"):
            last_entry_audit(heap_index("b"), heap_index("bb"), table, branch_table)


class TestBoundaryProfile:
    def test_root_profile_is_one(self, walk8):
        _, table = walk8
        values = martin_rows(table, [0], heap_indices(["a" * k for k in range(1, 8)]))
        assert values.shape == (1, 7)
        assert all(v == pytest.approx(1.0, abs=1e-14) for v in values[0])

    def test_ray_words(self):
        assert ray_words("", "a", "a", 4).tolist() == heap_indices(["a", "aa", "aaa", "aaaa"]).tolist()
        assert ray_words("b", "ab", "", 5).tolist() == heap_indices(["b", "abb", "ababb"]).tolist()
        with pytest.raises(ValueError):
            ray_words("", "a", "", 0)

    def test_leaves_domain_rejected(self, walk8):
        _, table = walk8
        with pytest.raises(ValueError, match="leaves"):
            martin_rows(table, [0], [heap_index("a" * 9)])

    def test_tail_decreasing_for_on_and_off_axis(self, walk8):
        _, table = walk8
        ray = heap_indices(["a" * k for k in range(1, 8)])
        sources = heap_indices(["a", "aaa", "ba", "bba"])
        for s, values in zip(sources, martin_rows(table, sources, ray)):
            assert tail_decreasing(s, ray, values)

    def test_two_radii_agree_within_truncation(self, mu_letters):
        t_small = green_table(transition_matrix(mu_letters, ball(6), Q))
        t_big = green_table(transition_matrix(mu_letters, ball(8), Q))
        ray = ["a" * k for k in range(1, 5)]
        for s in ("a", "ba"):
            small = martin_rows(t_small, [heap_index(s)], heap_indices(ray))[0]
            big = martin_rows(t_big, [heap_index(s)], heap_indices(ray))[0]
            for t, v_small, v_big in zip(ray, small, big):
                bound_s = truncation_error_bound(6, heap_index(s), heap_index(t), t_small.walk)
                bound_t = truncation_error_bound(6, 0, heap_index(t), t_small.walk)
                ge = t_small.green_entry(0, heap_index(t))
                tol = (bound_s + abs(v_small) * bound_t) / ge * 4.0
                assert abs(v_small - v_big) <= tol

    def test_tail_decreasing_from_the_merge_point(self):
        ray = heap_indices(["a", "aa", "aaa", "aaaa", "aaaaa"])
        a, aaa = heap_index("a"), heap_index("aaa")
        # gaps 0.5, 0.25, 0.125, 0.0625: decreasing throughout
        assert tail_decreasing(a, ray, np.array([1.0, 1.5, 1.75, 1.875, 1.9375]))
        # a rising gap before the merge point of "aaa" is not checked, one after it is
        rising_early = np.array([1.0, 1.1, 1.6, 1.85, 1.975])
        assert tail_decreasing(aaa, ray, rising_early)
        assert not tail_decreasing(a, ray, rising_early)
        # gaps at the numerical floor may stall
        assert tail_decreasing(a, ray, np.array([1.0, 1.5, 1.5 + 4e-12, 1.5 + 8e-12, 1.5 + 12e-12]))
        assert not tail_decreasing(a, ray, np.array([1.0, 1.5, 1.5, 1.5, 1.5 + 1e-10]))


class TestGreenRows:
    def test_rows_match_dense_table(self, walk8):
        tm, table = walk8
        # the rows are the distinct sources and the root, sorted
        rows = green_rows(tm, heap_indices(["ba", "a", "ba"]))
        assert rows.residual < 1e-10
        assert rows.rows.tolist() == heap_indices(["", "a", "ba"]).tolist()
        for s in rows.rows:
            assert np.abs(rows.source_rows([s])[0] - table.green[s, :]).max() < 1e-11

    def test_returns_the_weighted_norm(self, walk8):
        tm, _ = walk8
        rows = green_rows(tm, [heap_index("a")])
        assert rows.norm_interval == weighted_operator_norm(tm.matrix, tm.haar_weights())

    def test_neumann_within_tail_bound_on_radius_12(self, mu_letters):
        dom = ball(12)
        tm = transition_matrix(mu_letters, dom, Q)
        rows = green_rows(tm, heap_indices(["a", "ba"]))
        assert neumann_excess(rows, rows.rows) <= 0.0
        assert 0.0 < rows.error_bound < 1e-13

    def test_neumann_catches_a_perturbed_row(self, walk8):
        # an error of 5e-11 in G(a, a) passes the 1e-10 residual gate but
        # neither the series oracle, whose bound there is about 1e-12, nor the
        # certificate
        tm, _ = walk8
        for patch, base in under_each_factor():
            patch.setattr(kernels, base.__name__, planted_lu(base, 5e-11, (heap_index("a"), 0)))
            rows = green_rows(tm, [heap_index("a")])
            assert rows.residual < 1e-10
            assert neumann_excess(rows, rows.rows) > 1e-11
            assert rows.error_bound > 1e-11

    @pytest.mark.parametrize("error, passes", [(1e-10, True), (1e-9, False)])
    def test_neumann_bound_scales_with_the_dual_weights(self, mu_letters, error, passes):
        """On the row path the series oracle lets entry t of the row of e be
        off by about tail * sqrt(m_t / m_e), which is 1365 tails at
        t = ababababab (radius 10, q = 0.5): an error of 1e-10 there is inside
        its bound, 1e-9 is not.  The certificate is relative on every entry:
        against G(e, t) = 3.5e-4 the errors are 2.9e-7 and 2.9e-6, and it
        bounds both."""
        dom = ball(10)
        tm = transition_matrix(mu_letters, dom, Q)
        t = heap_index("ababababab")
        clean = green_rows(tm, [0]).source_rows([0])[0, t]
        for patch, base in under_each_factor():
            patch.setattr(kernels, base.__name__, planted_lu(base, error, (t, 0)))
            # the residual gate is opened so that the error reaches the checks
            rows = green_rows(tm, [0], solver_tol=1e-8)
            assert (neumann_excess(rows, rows.rows) <= 0.0) is passes
            assert rows.error_bound >= error / clean > 1e-7

    def test_a_nan_entry_fails_the_residual_gate(self, walk8):
        # a NaN compares false with everything: the gate must not read it as small
        tm, _ = walk8
        for patch, base in under_each_factor():
            patch.setattr(kernels, base.__name__, planted_lu(base, math.nan, (heap_index("ab"), 0)))
            with pytest.raises(RuntimeError, match="residual nan"):
                green_rows(tm, [heap_index("a")])

    def test_residual_above_tolerance_raises(self, walk8):
        tm, _ = walk8
        resid = green_rows(tm, heap_indices(["a", "ba"])).residual
        assert resid > 0.0
        with pytest.raises(RuntimeError, match="residual"):
            green_rows(tm, heap_indices(["a", "ba"]), solver_tol=resid / 2)

    def test_table_reads_match_the_full_table_at_its_rows(self, walk8):
        tm, table = walk8
        rows = green_rows(tm, heap_indices(["ba", "aab", "a"]))
        assert rows.rows.tolist() == heap_indices(["", "a", "ba", "aab"]).tolist() and rows.walk is table.walk
        # the solved rows' diagonal entries, as the full table has them
        for v in rows.rows:
            assert rows.green_entry(v, v) == pytest.approx(table.green_entry(v, v), rel=1e-13)
        for s in rows.rows:
            for t in heap_indices(["", "a", "ab", "bab", "aabb", "b" * 8]):
                assert rows.green_entry(s, t) == pytest.approx(table.green_entry(s, t), rel=1e-13)

    def test_martin_rows_rejects_an_unsolved_source(self, walk8):
        tm, _ = walk8
        rows = green_rows(tm, [heap_index("a")])
        targets = heap_indices(["a", "aa"])
        assert martin_rows(rows, heap_indices(["a", ""]), targets).shape == (2, 2)
        with pytest.raises(ValueError, match="'ba'"):
            martin_rows(rows, heap_indices(["a", "ba"]), targets)

    def test_word_outside_the_domain_named(self, walk8):
        tm, _ = walk8
        with pytest.raises(ValueError, match="outside the domain: \\['a{9}'\\]"):
            green_rows(tm, heap_indices(["a", "a" * 9]))


class TestCertificate:
    """The entrywise error bounds of the Green solve (_Certificate)."""

    @pytest.mark.parametrize("mu", [{"a": 0.5, "b": 0.5}, {"a": 0.3, "b": 0.3, "aa": 0.2, "bb": 0.2}])
    def test_exact_rational_oracle(self, mu):
        """On the radius-4 ball (31 words) at q = 1/2, every entry of every
        row of a rows solve is within its certified bound of the exact
        solution for the float W; the table reports the largest relative one."""
        tm = transition_matrix(Measure(mu), ball(4), 0.5)
        assert tm.size == 31
        table = green_rows(tm, heap_indices(["a", "bb", "aba", "abab"]))
        units = tm.positions(table.rows)
        certificate = certificate_of(table)
        largest = 0.0
        for x, unit, exact in zip(table.green, units, exact_columns(tm, units)):
            bounds = column_bounds(certificate, x, unit)
            assert all(abs(Fraction(float(g)) - e) <= Fraction(float(b)) for g, e, b in zip(x, exact, bounds))
            largest = max(largest, float((bounds / x).max()))
        assert largest == table.error_bound < 1e-13

    def test_the_norm_term_alone_bounds_the_error_of_failed_solves(self):
        # the certificate's own solves return zeros: its entrywise terms
        # vanish, and the norm term on the dual weights still holds every entry
        tm = transition_matrix(Measure({"a": 0.5, "b": 0.5}), ball(4), 0.5)
        for patch, base in under_each_factor():

            class ZeroSolves(base):
                def solve(self, rhs):
                    return super().solve(rhs) if unit_panel(rhs) else np.zeros_like(rhs)

            patch.setattr(kernels, base.__name__, ZeroSolves)
            table = green_rows(tm, heap_indices(["a", "abab"]))
            units = tm.positions(table.rows)
            certificate = certificate_of(table)
            for x, unit, exact in zip(table.green, units, exact_columns(tm, units)):
                bounds = column_bounds(certificate, x, unit)
                assert all(0.0 < b for b in bounds)
                assert all(abs(Fraction(float(g)) - e) <= Fraction(float(b)) for g, e, b in zip(x, exact, bounds))

    def test_second_solve_certifies_the_smallest_entries(self):
        """Under mu(a) = 0.85 the table of ball 8 holds G(a^8, b^8) = 5.4e-20.
        With one certifying solve the norm term made it 9.9e-11 relative; the
        second keeps every certified entry near round-off."""
        table = green_table(transition_matrix(Measure({"a": 0.85, "b": 0.15}), ball(8), 0.5))
        assert table.green.min() < 1e-19
        assert table.error_bound < 1e-13

    def test_planted_relative_error_raises_its_entry_bound(self, walk8):
        """A relative error of 1e-12 planted in one solved entry, G(a, ab), and
        not in the certificate's own solves raises that entry's bound above
        1e-12, from under 1e-13 without it."""
        tm, _ = walk8
        a, t = heap_index("a"), heap_index("ab")

        def entry_bound():
            rows = green_rows(tm, [a])
            assert rows.rows.tolist() == [0, a]
            x = rows.source_rows([a])[0]
            return column_bounds(certificate_of(rows), x, a)[t] / x[t], rows.error_bound

        clean, clean_table = entry_bound()
        assert clean <= clean_table < 1e-13
        for patch, base in under_each_factor():
            patch.setattr(kernels, base.__name__, planted_lu(base, 1e-12, (t, 1), relative=True))
            planted, planted_table = entry_bound()
            assert planted > 1e-12 and planted_table >= planted

    def test_a_rows_solve_certifies_every_row(self, walk8):
        # the second of five rows, which the first, middle and last of a full
        # table would not cover, carries a planted error of 5e-11
        tm, _ = walk8
        for patch, base in under_each_factor():
            patch.setattr(kernels, base.__name__, planted_lu(base, 5e-11, (heap_index("a"), 1)))
            rows = green_rows(tm, heap_indices(["a", "b", "ab", "ba"]))
            assert rows.rows.tolist() == heap_indices(["", "a", "b", "ab", "ba"]).tolist()
            assert rows.error_bound > 1e-11

    def test_a_negative_entry_takes_the_factor_of_the_absolute_walk(self, engine, mu_letters):
        """A branch walk with a planted negative weight is certified with a
        second factor, of I - |W^T|, and its certified rows stay within their
        bounds of the exact solution."""
        branch_walk = branch_context(engine, mu_letters, "a", 5).walk
        w = to_scipy(branch_walk.matrix).copy()
        w.data[w.data.argmax()] *= -1.0
        walk = TransitionMatrix(branch_walk.codes, from_scipy(w), branch_walk.mu, branch_walk.q)
        for patch, base in under_each_factor():
            factored = []

            class Recording(base):
                def __init__(self, matrix, *narrow):
                    # both factors take W
                    factored.append(to_scipy(matrix).copy())
                    super().__init__(matrix, *narrow)

            patch.setattr(kernels, base.__name__, Recording)
            table = green_table(walk)
            assert len(factored) == 2
            signed, unsigned = factored
            assert signed.data.min() < 0.0 and (unsigned != abs(signed)).nnz == 0
            units = walk.positions(certified_rows(table))
            certificate = certificate_of(table)
            for x, unit, exact in zip(table.green[units], units, exact_columns(walk, units)):
                bounds = column_bounds(certificate, x, unit)
                assert all(abs(Fraction(float(g)) - e) <= Fraction(float(b)) for g, e, b in zip(x, exact, bounds))
            assert 0.0 < table.error_bound < 1e-12


class TestLastEntryPathSumOracle:
    def test_against_explicit_path_enumeration(self, mu_letters):
        # oracle: dynamic programming over path lengths, with the final step
        # constrained to enter the branch from outside
        dom = ball(5)
        tm = transition_matrix(mu_letters, dom, Q)
        table = green_table(tm)
        p = tm.matrix.toarray()
        x = "a"
        inside = np.array([w.endswith(x) for w in ball_words(5)])
        s, u = "b", "a"
        si, ui = heap_index(s), heap_index(u)
        steps = 400
        f = np.zeros(len(dom))
        f[si] = 1.0
        m_dp = 0.0
        for _ in range(steps):
            m_dp += float((f * ~inside) @ p[:, ui])
            f = f @ p
        outside_idx = [i for i, w in enumerate(ball_words(5)) if not w.endswith(x)]
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
            branch_table = green_table(tm.restrict(sub))
            resids.append(last_entry_audit(heap_index("b"), heap_index("aa"), table, branch_table))
        assert resids[0] > resids[1] > resids[2]
        assert resids[2] < 1e-10


def test_audit_fails_a_walk_above_its_norm_bound(tmp_path, monkeypatch):
    """A walk rescaled to a certified top of 0.9, above lam = 0.8 but below
    1: its solves still run, and the top fails norm_bound (exit 1).  Scaled
    to norm 0.9 instead, its top would reach 1 - NORM_GUARD (exit 2)."""
    real_build = cli.build_walk

    def rescaled(cfg, radius):
        walk = real_build(cfg, radius)
        scale = 0.9 / weighted_operator_norm(walk.matrix, walk.haar_weights())[1]
        return TransitionMatrix(walk.codes, from_scipy(to_scipy(walk.matrix) * scale), walk.mu, walk.q)

    monkeypatch.setattr(cli, "build_walk", rescaled)
    assert main(["audit", str(EXAMPLE), "--radius", "6", "--out", str(tmp_path)]) == EXIT_AUDIT
    report = json.loads((tmp_path / "audit_report.json").read_text())
    entry = next(e for e in report["audits"] if e["name"] == "norm_bound")
    assert entry["bound"] == pytest.approx(0.8, rel=1e-12) and entry["measured"] == pytest.approx(0.9, rel=1e-12)
    assert entry["pass"] is False
    green_residual = next(e for e in report["audits"] if e["name"] == "green_residual")
    assert green_residual["pass"] is True
