"""The walk's weights as numpy CSR arrays (fusion.CSR), with scipy.sparse as
the oracle: the arrays of the assembly, of a restriction and of the
perturbed walk are the canonical CSR scipy builds from the same entries,
and the products the numpy code takes (bincounts in CSR entry order and the
level sweeps' W^T X) are scipy's, bit for bit, on random measures of range
1 to 3, on balls, branches and sorted subsets, signed walks included."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from aufwalk import fusion, kernels, perturbed
from aufwalk.fusion import CSR, Measure, transition_matrix
from aufwalk.intertwiners import IntertwinerEngine, ModelConfig
from aufwalk.words import ball, branch, ends_with, heap_index, qdim
from conftest import to_scipy

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)
deformations = st.floats(min_value=0.2, max_value=0.8)


@st.composite
def measures(draw, max_len=3):
    """Normalized measures on one to four words of length <= max_len, e allowed."""
    support = draw(st.lists(st.text(alphabet="ab", max_size=max_len), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=len(support),
                            max_size=len(support)))
    return Measure({w: p / sum(weights) for w, p in zip(support, weights)})


@st.composite
def domains(draw, radius=6):
    """A ball, a branch, or a sorted subset of the ball that skips its root."""
    kind = draw(st.sampled_from(["ball", "branch", "subset"]))
    if kind == "ball":
        return ball(draw(st.integers(min_value=0, max_value=radius)))
    if kind == "branch":
        return branch(draw(st.text(alphabet="ab", min_size=1, max_size=2)), radius)
    start, step = draw(st.integers(min_value=1, max_value=20)), draw(st.integers(min_value=1, max_value=9))
    return ball(radius)[start::step]


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_same_csr(got: CSR, want) -> None:
    """The arrays of a CSR against scipy's canonical CSR, bit for bit."""
    want = sp.csr_matrix(want)
    assert want.has_canonical_format and got.shape == want.shape and got.nnz == want.nnz
    for part in ("indptr", "indices"):
        assert getattr(got, part).dtype == getattr(want, part).dtype, part
        assert np.array_equal(getattr(got, part), getattr(want, part)), part
    assert np.array_equal(bits(got.data), bits(want.data))


def signed_copy(m: CSR, seed: int) -> CSR:
    """The CSR with a random half of its entries negated."""
    flip = np.random.default_rng(seed).random(m.nnz) < 0.5
    return CSR(m.indptr, m.indices, np.where(flip, -m.data, m.data), m.shape)


def blocks(n: int, seed: int, width: int) -> np.ndarray:
    """A C-ordered (n, width) block of signed entries, a tenth of them exact zeros."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, width))
    x[rng.random((n, width)) < 0.1] = 0.0
    return x


class TestArrays:
    @PROPERTY
    @given(measures(), domains(), deformations)
    def test_the_assembly_is_scipys_csr_of_its_entries(self, mu, domain, q):
        """_assemble's entries, summed by scipy as the code did before it
        built the CSR itself (csr_matrix of the COO entries, then
        sum_duplicates), give the same arrays."""
        entries = []
        build = fusion._csr_of_pieces

        def recorded(key_pieces, value_pieces, shape, *args):
            entries.append((np.concatenate(key_pieces), np.concatenate(value_pieces), shape))
            return build(key_pieces, value_pieces, shape, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fusion, "_csr_of_pieces", recorded)
            tm = transition_matrix(mu, domain, q)
        (keys, vals, (n, _)), = entries
        want = sp.csr_matrix((vals, (keys // max(n, 1), keys % max(n, 1))), shape=(n, n))
        want.sum_duplicates()
        assert_same_csr(tm.matrix, want)

    @PROPERTY
    @given(measures(), domains(radius=7), deformations)
    def test_a_restriction_is_scipys_fancy_index(self, mu, domain, q):
        walk = transition_matrix(mu, ball(7), q)
        idx = walk.positions(domain)
        assert_same_csr(walk.restrict(domain).matrix, to_scipy(walk.matrix)[idx][:, idx])

    def test_a_dense_array_is_its_nonzero_entries(self):
        dense = np.array([[0.0, 2.0, 0.0], [-1.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        assert_same_csr(fusion.as_csr(dense), sp.csr_matrix(dense))
        assert np.array_equal(fusion.as_csr(dense).toarray(), dense)

    def test_duplicates_are_summed_in_the_order_given(self):
        # 0.1 + 0.2 + 0.3 differs from 0.1 + (0.2 + 0.3); scipy adds in order
        got = fusion.csr_from_entries([1, 0, 1, 1], [2, 0, 2, 2], [0.1, 5.0, 0.2, 0.3], (2, 3))
        assert got.indptr.tolist() == [0, 1, 2] and got.indices.tolist() == [0, 2]
        assert got.data.tolist() == [5.0, (0.1 + 0.2) + 0.3]
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def scipy_q_matrix(ctx):
    """Oracle: the perturbed walk's weights as the code built them with
    scipy, the traced corrections summed in a dok_matrix and subtracted
    from the classical CSR."""
    walk, mud, q = ctx.walk, ctx.walk.mu.dual(), ctx.q
    out = sp.dok_matrix((walk.size, walk.size))
    for u, s, t in perturbed.required_entries(ctx):
        if u and not perturbed.exact_by_cut(u, s, t, ctx.z):
            i, j = walk.positions([heap_index(t), heap_index(s)])
            m_s, m_t = qdim(s, q), qdim(t, q)
            p = m_t / (qdim(u, q) * m_s)
            out[i, j] += mud.weight(u) * (m_s / m_t) ** 2 * (p - perturbed.qhat_entry(u, s, t, ctx))
    return to_scipy(walk.matrix) - out.tocsr()


class TestPerturbedArrays:
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(measures(max_len=2), st.sampled_from([0.3, 0.5, 0.7]), st.sampled_from(["a", "ab", "b"]))
    def test_q_matrix_is_scipys_difference(self, mu, q, z):
        engine = IntertwinerEngine(ModelConfig.from_q(q, n=2, tensor_cap=9))
        radius = 9 - 2 * len(z) - mu.range_bound
        ctx = perturbed.BranchContext(engine, transition_matrix(mu, ball(radius), q), z, radius)
        assert_same_csr(perturbed.q_matrix(ctx).matrix, scipy_q_matrix(ctx))

    def test_an_entry_that_cancels_is_not_stored(self, engine, mu_letters, monkeypatch):
        """A correction equal to the classical weight leaves an exact zero,
        which scipy's difference of canonical CSRs drops: so does q_matrix."""
        ctx = perturbed.BranchContext(engine, transition_matrix(mu_letters, ball(5), engine.q), "a", 5)
        p = ctx.walk.matrix
        cancel = CSR(p.indptr, p.indices, np.where(np.arange(p.nnz) % 3 == 0, p.data, 0.5 * p.data), p.shape)
        monkeypatch.setattr(perturbed, "_traced", lambda ctx, term: cancel)
        got = perturbed.q_matrix(ctx).matrix
        assert got.nnz == p.nnz - len(range(0, p.nnz, 3))
        assert_same_csr(got, to_scipy(p) - to_scipy(cancel))


def scipy_weighted_norm(m: CSR, weights) -> tuple[float, float]:
    """Oracle: weighted_operator_norm as the code took it with scipy's CSR
    and CSC products."""
    w = np.sqrt(weights)
    s = sp.csr_matrix(to_scipy(m), dtype=float)
    data = s.data * np.repeat(w, np.diff(s.indptr))
    data *= (1.0 / w)[s.indices]
    a = sp.csr_matrix((data, s.indices, s.indptr), shape=s.shape)
    signed = a.data.min(initial=0.0) < 0.0
    b = abs(a) if signed else a
    ones = np.ones(a.shape[0])
    u = b @ ones
    bottom = kernels._l2(a @ ones if signed else u) / kernels._l2(ones)
    return bottom, float(np.sqrt((b.T @ u).max()) * (1.0 + 1e-12))


def scipy_hops(m: CSR, sources, limit: int, backward: bool = False, positive: bool = False) -> np.ndarray:
    """Oracle: fusion._hops as the code took it, one scipy product with the
    0/1 pattern per step."""
    s = to_scipy(m)
    s = (s > 0 if positive else s).tocsr()
    s = s.T.tocsr() if backward else s
    step = sp.csr_matrix((np.ones(s.nnz), s.indices, s.indptr), shape=s.shape).T
    out = np.full((len(sources), s.shape[0]), limit + 1)
    front = np.zeros((s.shape[0], len(sources)), dtype=bool)
    front[sources, np.arange(len(sources))] = True
    for k in range(limit + 1):
        front &= out.T > limit
        if not front.any():
            break
        out.T[front] = k
        front = step @ front != 0
    return out


class TestBincountProducts:
    @PROPERTY
    @given(measures(), domains(), deformations, st.integers(0, 2**32 - 1), st.booleans())
    def test_norm_and_row_sums_are_scipys(self, mu, domain, q, seed, signed):
        tm = transition_matrix(mu, domain, q)
        m = signed_copy(tm.matrix, seed) if signed else tm.matrix
        walk = fusion.TransitionMatrix(tm.codes, m, mu, q)
        got, want = kernels.weighted_operator_norm(m, tm.haar_weights()), scipy_weighted_norm(m, tm.haar_weights())
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(walk.row_sums()), bits(np.asarray(to_scipy(m).sum(axis=1)).ravel()))

    @PROPERTY
    @given(measures(), deformations, st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_hops_are_scipys(self, mu, q, seed, limit):
        tm = transition_matrix(mu, ball(5), q)
        m = signed_copy(tm.matrix, seed)
        sources = np.random.default_rng(seed).choice(tm.size, size=3, replace=False)
        for backward in (False, True):
            assert np.array_equal(fusion._hops(m, sources, limit, backward=backward),
                                  scipy_hops(m, sources, limit, backward=backward))
        assert np.array_equal(fusion._hops(m, sources, limit, entries=m.data > 0),
                              scipy_hops(m, sources, limit, positive=True))

    @PROPERTY
    @given(measures(), deformations, st.integers(0, 2**32 - 1), st.sampled_from(["a", "ab", "ba"]))
    def test_the_last_entry_path_sums_are_scipys(self, mu, q, seed, x):
        """M(s, .) = sum over v outside the branch of x of G(s, v) P(v, .),
        on a signed copy of the walk and a random row: the bincount's sums
        are scipy's CSC product of the outside rows."""
        tm = transition_matrix(mu, ball(5), q)
        walk = fusion.TransitionMatrix(tm.codes, signed_copy(tm.matrix, seed), mu, q)
        green = np.random.default_rng(seed).standard_normal(walk.size)
        outside = ~ends_with(walk.codes, heap_index(x))
        want = to_scipy(walk.matrix)[np.flatnonzero(outside)].T @ green[outside]
        assert np.array_equal(bits(kernels._last_steps(walk, green, outside)), bits(want))


def range_one_walks():
    """Range-1 walks on balls and branches (complete subtrees), e included
    or not, signed or not: the walks the level sweeps factor."""
    return st.tuples(
        st.sampled_from([{"a": 0.35, "b": 0.65}, {"": 0.2, "a": 0.3, "b": 0.5}, {"a": 1.0}, {"": 0.5, "b": 0.5}]),
        st.sampled_from([ball(0), ball(1), ball(4), ball(9), branch("ab", 8), branch("b", 7)]),
        deformations, st.integers(0, 2**32 - 1), st.booleans())


class TestLevelSliceProducts:
    @PROPERTY
    @given(range_one_walks(), st.integers(1, 20))
    def test_w_transpose_x_is_scipys(self, walk, width):
        """W^T X and |W|^T X by level slices, for blocks and a vector, with
        the stencil repeated (a full table's factor) and broadcast (a rows
        solve's), against scipy's CSC product: the same bits.  With ``less``,
        W^T X - X has scipy's values, and the same bits wherever it is not
        zero."""
        weights, domain, q, seed, signed = walk
        m = transition_matrix(Measure(weights), domain, q).matrix
        m = signed_copy(m, seed) if signed else m
        x = blocks(m.shape[0], seed, width)
        for w, narrow in itertools.product((m, CSR(m.indptr, m.indices, np.abs(m.data), m.shape)), (False, True)):
            sweeps, a = kernels._LevelSweeps(w, narrow), to_scipy(w).T
            assert np.array_equal(bits(sweeps.product(x)), bits(a @ x))
            assert np.array_equal(bits(sweeps.product(x[:, 0])), bits(a @ x[:, 0]))
            got, want = sweeps.product(x, less=True), a @ x - x
            assert np.array_equal(got, want)
            assert np.array_equal(bits(got)[want != 0.0], bits(want)[want != 0.0])

    @PROPERTY
    @given(range_one_walks())
    def test_the_stencil_holds_every_stored_entry_once(self, walk):
        """The stencil rebuilds the CSR: each stored entry fills one slot."""
        weights, domain, q, seed, signed = walk
        m = transition_matrix(Measure(weights), domain, q).matrix
        m = signed_copy(m, seed) if signed else m
        up, diag, down = kernels._stencil(m)
        n = m.shape[0]
        rebuilt = np.diag(diag)
        for c in range(1, n):
            level_start = (1 << ((c + 1).bit_length() - 1)) - 1
            half = (level_start + 1) // 2
            p = c - half * (1 + (c >= level_start + half))
            rebuilt[c, p], rebuilt[p, c] = up[c], down[c]
        assert np.array_equal(bits(rebuilt), bits(m.toarray() + 0.0))
        assert np.count_nonzero(np.concatenate([up, diag, down])) == np.count_nonzero(m.data)

    def test_two_entries_at_one_position_raise(self, mu_letters):
        m = transition_matrix(mu_letters, ball(3), 0.5).matrix
        rows = m.rows()
        doubled = fusion.CSR(np.append(m.indptr[:1], m.indptr[1:] + 1), np.insert(m.indices, 1, m.indices[0]),
                             np.insert(m.data, 1, 0.25), m.shape)
        assert doubled.rows()[1] == rows[0] and doubled.nnz == m.nnz + 1
        with pytest.raises(RuntimeError, match="two entries at one position"):
            kernels._LevelSweeps(doubled)
