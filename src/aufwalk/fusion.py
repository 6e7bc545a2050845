"""Fusion rules of the free-monoid representation ring and the induced
classical random walk.

The tensor product of irreducibles x and y decomposes multiplicity-free as
the sum of x0*y0 over all ways of writing x = x0 z and y = bar(z) y0, and the
walk driven by a finitely supported measure mu has transition weights

    p(s, t) = sum_r mu(r) * m(t; r, s) * qdim(t) / (qdim(r) * qdim(s)),

which is stochastic thanks to the fusion identity
sum_t m(t; r, s) qdim(t) = qdim(r) qdim(s).

``fuse`` and ``transition_prob`` are the scalar string route.
``transition_matrix`` assembles on heap indices (see ``words``): for a
support word r and a cancellation length k, the words s whose first k
letters spell bar of the last k letters of r are a bit-pattern match on the
top k bits, and the component r[:-k] s[k:] is r's remaining bits placed above
the low len(s) - k bits of s.  A few sampled rows are recomputed on the
string route as a cross-check.  A ``TransitionMatrix`` carries all a walk
on one domain needs: the matrix, the words, their heap indices and
positions, the measure, q, and the norm bound that certifies its Green
kernel; its restriction to a sub-domain equals the assembly there bit for bit.
The weights are held as a ``CSR``: scipy's canonical compressed sparse row
arrays (sorted columns, no duplicates, int32 indices), built and read with
numpy alone, so no command that stays on range-1 walks imports
``scipy.sparse``.  ``is_generating`` and ``uniform_irreducibility_constants``
search the walk's stored pattern level by level, one ``np.bincount`` per step
(``_hops``).
"""

from __future__ import annotations

import numpy as np

from .words import (
    ball,
    ball_qdims,
    check_word,
    classical_dim,
    code_lengths,
    heap_index,
    involution,
    locate,
    qdim,
    qdims,
    tree_distance,
    tree_distances,
    validate_q,
    word,
)

MASS_TOL = 1e-12
#: relative agreement required between sampled rows and the string route
CROSS_CHECK_RTOL = 1e-14


def fuse(x: str, y: str) -> list[str]:
    """Irreducible components of x (x) y, ordered by increasing length of the
    cancelled middle word z."""
    check_word(x)
    check_word(y)
    out = []
    for k in range(min(len(x), len(y)) + 1):
        z = x[len(x) - k:]
        if involution(z) == y[:k]:
            out.append(x[: len(x) - k] + y[k:])
    return out


def multiplicity(t: str, r: str, s: str) -> int:
    """Multiplicity of t in r (x) s; always 0 or 1."""
    return 1 if t in fuse(r, s) else 0


class Measure:
    """Finitely supported probability measure on words."""

    def __init__(self, weights: dict[str, float]):
        cleaned = {}
        for w, p in weights.items():
            check_word(w)
            p = float(p)
            if not 0.0 < p < np.inf:
                raise ValueError(f"weight of {w!r} must be finite and positive, got {p}")
            cleaned[w] = p
        if not cleaned:
            raise ValueError("measure must have nonempty support")
        total = sum(cleaned.values())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"measure not normalized: total mass {total!r}")
        self._weights = dict(sorted(cleaned.items(), key=lambda kv: (len(kv[0]), kv[0])))
        self.support = tuple(self._weights)
        #: largest step length of the induced walk
        self.range_bound = max(len(w) for w in self.support)

    def weight(self, w: str) -> float:
        return self._weights.get(w, 0.0)

    def items(self):
        return self._weights.items()

    def dual(self) -> "Measure":
        """The measure r -> mu(bar(r))."""
        return Measure({involution(w): p for w, p in self._weights.items()})

    def __repr__(self):
        inner = ", ".join(f"{w or 'e'}: {p}" for w, p in self._weights.items())
        return f"Measure({{{inner}}})"


def transition_prob(mu: Measure, s: str, t: str, q: float) -> float:
    validate_q(q)
    out = 0.0
    for r, w in mu.items():
        if t in fuse(r, s):
            out += w * qdim(t, q) / (qdim(r, q) * qdim(s, q))
    return out


class CSR:
    """A sparse matrix in compressed sparse row form, with scipy's attribute
    names: row i holds the columns indices[indptr[i]:indptr[i + 1]] and
    their values in data.  The constructors here (csr_from_entries,
    as_csr) make it canonical, as scipy's sum_duplicates does: sorted
    columns in each row, no duplicate."""

    def __init__(self, indptr, indices, data, shape: tuple[int, int]):
        self.indptr = np.asarray(indptr)
        self.indices = np.asarray(indices)
        self.data = np.asarray(data)
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def rows(self) -> np.ndarray:
        """The row of each stored entry, in storage order."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(out, (self.rows(), self.indices), self.data)
        return out


def csr_from_entries(rows, cols, vals, shape: tuple[int, int], drop_zeros: bool = False) -> CSR:
    """The canonical CSR of (row, column, value) entries: a stable sort by
    row, then column, and duplicates summed one after another in the order
    given, as scipy sums them (scipy's in-row sort is stable up to 16
    entries a row, and a walk of range at most 3 has at most two entries at
    one position, whose sum is the same in either order).  With
    ``drop_zeros`` a sum of zero is not stored, as in scipy's sum of two
    canonical matrices."""
    keys = np.asarray(rows, dtype=np.int64) * shape[1]
    keys += np.asarray(cols, dtype=np.int64)
    return _csr_of_pieces([keys], [np.asarray(vals, dtype=float)], shape, drop_zeros)


def _csr_of_pieces(key_pieces: list, value_pieces: list, shape: tuple[int, int], drop_zeros: bool = False) -> CSR:
    """csr_from_entries on pieces of keys row * n_cols + col and of their
    values.  It empties both lists, so that each concatenation frees its
    pieces and each sorted copy frees what it sorts: beside the keys, at most
    an int64 and an int32 array or two float arrays of the entries' length
    are held at once."""
    keys = np.concatenate(key_pieces)
    key_pieces.clear()
    vals = np.concatenate(value_pieces)
    value_pieces.clear()
    n_rows, n_cols = shape
    index = np.int32 if max(n_rows, n_cols, len(keys)) < 2**31 else np.int64
    order = np.argsort(keys, kind="stable").astype(index)
    # the keys are runs of increasing keys, one per piece: a merge sort reads them as such
    keys.sort(kind="stable")
    vals = vals[order]
    del order
    if len(keys) > 1 and (repeat := keys[1:] == keys[:-1]).any():
        first = np.concatenate([[True], ~repeat])
        starts = np.flatnonzero(first)
        # the k-th entry at a position is added in the k-th pass
        rank = np.arange(len(keys)) - np.repeat(starts, np.diff(np.append(starts, len(keys))))
        group = np.cumsum(first) - 1
        data = vals[starts]
        for k in range(1, int(rank.max()) + 1):
            at = rank == k
            data[group[at]] += vals[at]
        keys, vals = keys[starts], data
    if drop_zeros:
        keys, vals = keys[vals != 0.0], vals[vals != 0.0]
    bounds = np.arange(n_rows + 1, dtype=np.int64)
    bounds *= n_cols
    indptr = np.searchsorted(keys, bounds).astype(index)
    del bounds
    # the columns in place of the keys
    np.remainder(keys, max(n_cols, 1), out=keys)
    return CSR(indptr, keys.astype(index), vals, shape)


def as_csr(matrix) -> CSR:
    """A CSR as it is, or the CSR of a dense array's nonzero entries in
    row-major order."""
    if isinstance(matrix, CSR):
        return matrix
    dense = np.asarray(matrix, dtype=float)
    if dense.ndim != 2:
        raise ValueError(f"a matrix must be two-dimensional, got shape {dense.shape}")
    rows, cols = np.nonzero(dense)
    return csr_from_entries(rows, cols, dense[rows, cols], dense.shape)


class TransitionMatrix:
    """Transition weights of the walk restricted to a finite domain, given by
    its sorted, distinct heap indices.

    The restriction is substochastic: mass stepping outside the domain is
    killed, so row sums are 1 only at vertices farther than the walk range
    from the domain frontier.
    """

    def __init__(self, codes: np.ndarray, matrix, mu: Measure, q: float):
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1 or np.any(codes[1:] <= codes[:-1]):
            raise ValueError("a walk's domain must be strictly increasing heap indices")
        self.codes = codes
        #: the weights, a CSR (a dense array is converted)
        self.matrix = as_csr(matrix)
        self.mu = mu
        self.q = q
        self.range_bound = mu.range_bound

    @property
    def size(self) -> int:
        return len(self.codes)

    def positions(self, codes) -> np.ndarray:
        """Positions of the words with the given heap indices in the domain;
        raises ValueError naming the first word outside it."""
        codes = np.asarray(codes, dtype=np.int64)
        pos, inside = locate(self.codes, codes)
        if not inside.all():
            raise ValueError(f"{word(codes[~inside][0])!r} lies outside the walk's domain")
        return pos

    def row_sums(self) -> np.ndarray:
        """Each row's sum by np.add.reduceat over its entries, as scipy's
        sum(axis=1) takes it (pairwise past 8 entries, so not a bincount)."""
        m = self.matrix
        out = np.zeros(m.shape[0])
        nonempty = np.flatnonzero(np.diff(m.indptr))
        if nonempty.size:
            out[nonempty] = np.add.reduceat(m.data, m.indptr[nonempty])
        return out

    def qdims(self) -> np.ndarray:
        return qdims(self.codes, self.q)

    def haar_weights(self) -> np.ndarray:
        return self.qdims() ** 2

    @property
    def norm_bound(self) -> float:
        """The walk's certificate lam = sum_r mu(r) dim(r) / qdim(r) >= its
        weighted operator norm (norm_upper_bound of its measure and q).

        A perturbed branch walk (perturbed.q_matrix) keeps the classical
        measure, so its bound is the classical one: valid, because
        |qhat| <= p entrywise (qhat_entry enforces it), so its weighted norm
        is at most the classical walk's."""
        return norm_upper_bound(self.mu, self.q)

    def restrict(self, subdomain) -> "TransitionMatrix":
        """Substochastic restriction to a sub-domain of sorted heap indices
        (kills exiting mass)."""
        idx = self.positions(subdomain)
        m = self.matrix
        # the rows of idx in order, each keeping its entries whose column lies in idx
        column = np.full(m.shape[1], -1, dtype=m.indices.dtype)
        column[idx] = np.arange(len(idx))
        counts = np.diff(m.indptr)[idx]
        row = np.repeat(np.arange(len(idx)), counts)
        entries = m.indptr[idx][row] + np.arange(len(row)) - (np.cumsum(counts) - counts)[row]
        kept = column[m.indices[entries]]
        keep = kept >= 0
        indptr = np.zeros(len(idx) + 1, dtype=m.indptr.dtype)
        np.cumsum(np.bincount(row[keep], minlength=len(idx)), out=indptr[1:])
        sub = CSR(indptr, kept[keep], m.data[entries[keep]], (len(idx), len(idx)))
        return TransitionMatrix(subdomain, sub, self.mu, self.q)


def transition_matrix(mu: Measure, domain, q: float) -> TransitionMatrix:
    """The walk of mu on the domain of sorted heap indices (``words.ball``,
    ``words.branch`` or any sorted subset)."""
    validate_q(q)
    codes = np.asarray(domain, dtype=np.int64)
    tm = TransitionMatrix(codes, _assemble(mu, codes, q), mu, q)
    _assert_bounded_range(tm)
    _check_sampled_rows(tm)
    return tm


def _assemble(mu: Measure, codes: np.ndarray, q: float) -> CSR:
    """The weights p(s, t) between the words with the given sorted heap
    indices, one vector step per support word r, cancellation length k and
    length of s.

    The words s of one length L whose first k letters spell bar(z), z the
    last k letters of r, are one interval of heap indices (their top k bits
    are fixed), so one slice of the sorted domain; their components
    r[:-k] s[k:] keep the low L - k bits of s, so each is s shifted by one
    offset.  Each step holds arrays of its own slice only, and the entries
    are gathered as keys row * n + col, then sorted and summed into the
    canonical CSR (csr_from_entries).
    """
    n = len(codes)
    # sorted codes: the last word is the longest
    radius = int(code_lengths(codes[-1:]).max(initial=0))
    dims = ball_qdims(radius, q)
    keys, vals = [], []
    for r, w in mu.items():
        dr = qdim(r, q)
        r_bits = heap_index(r) + 1 - (1 << len(r))
        for k in range(min(len(r), radius) + 1):
            # s must start with bar(z) for the last k letters z of r
            pattern = heap_index(involution(r[len(r) - k:])) + 1 - (1 << k)
            for tail in range(radius - k + 1):  # letters of s that survive
                first = (1 << (k + tail)) - 1 + (pattern << tail)
                lo, hi = np.searchsorted(codes, [first, first + (1 << tail)])
                s = codes[lo:hi]
                t = s + ((1 << (len(r) - k + tail)) - 1 + ((r_bits >> k) << tail) - first)
                pos, hit = locate(codes, t)
                i = np.flatnonzero(hit)
                keys.append((i + lo) * n + pos[i])
                vals.append(w * dims[t[i]] / (dr * dims[s[i]]))
    return _csr_of_pieces(keys, vals, (n, n))


#: rows per block of the range check
CHECK_BLOCK_ROWS = 1 << 12


def _assert_bounded_range(tm: TransitionMatrix) -> None:
    """Every stored entry joins words within the walk's range: the tree
    distances are taken over blocks of CSR rows, so the check holds a
    block's codes and distances at a time."""
    mat = tm.matrix
    for start in range(0, tm.size, CHECK_BLOCK_ROWS):
        stop = min(start + CHECK_BLOCK_ROWS, tm.size)
        indptr = mat.indptr[start:stop + 1]
        row = np.repeat(tm.codes[start:stop], np.diff(indptr))
        col = mat.indices[indptr[0]:indptr[-1]]
        dist = tree_distances(row, tm.codes[col])
        bad = np.flatnonzero(dist > tm.range_bound)
        if bad.size:
            raise AssertionError(
                f"entry ({word(row[bad[0]])!r}, {word(tm.codes[col[bad[0]]])!r}) violates the range "
                f"bound {tm.range_bound} (distance {int(dist[bad[0]])})"
            )


def _check_sampled_rows(tm: TransitionMatrix) -> None:
    """Recompute the rows of the first (the root, when present), middle and
    last domain words on the string route: the same columns, entries within
    CROSS_CHECK_RTOL, and tree distances equal to the array ones."""
    for i in sorted({0, (tm.size - 1) // 2, tm.size - 1} if tm.size else ()):
        s = word(tm.codes[i])
        lo, hi = tm.matrix.indptr[i], tm.matrix.indptr[i + 1]
        got = dict(zip(tm.matrix.indices[lo:hi].tolist(), tm.matrix.data[lo:hi].tolist()))
        targets = list(dict.fromkeys(t for r in tm.mu.support for t in fuse(r, s)))
        pos, inside = locate(tm.codes, [heap_index(t) for t in targets])
        want = {j: transition_prob(tm.mu, s, t, tm.q) for j, t, ok in zip(pos.tolist(), targets, inside) if ok}
        if set(got) != set(want):
            raise AssertionError(
                f"row {s!r}: assembled columns {sorted(word(tm.codes[j]) for j in got)} differ from "
                f"the fusion components {sorted(word(tm.codes[j]) for j in want)}"
            )
        cols = np.array(sorted(got), dtype=np.int64)
        dist = tree_distances(np.full(len(cols), tm.codes[i]), tm.codes[cols])
        for j, d in zip(cols.tolist(), dist.tolist()):
            t = word(tm.codes[j])
            if abs(got[j] - want[j]) > CROSS_CHECK_RTOL * abs(want[j]):
                raise AssertionError(
                    f"entry ({s!r}, {t!r}) is {got[j]!r} assembled, {want[j]!r} by fusion"
                )
            if d != tree_distance(s, t):
                raise AssertionError(
                    f"distance of ({s!r}, {t!r}) is {d} on heap indices, {tree_distance(s, t)} on words"
                )


def dual_audit(walk: TransitionMatrix) -> float:
    """Largest deviation of the duality identity relating the walk of mu and
    the walk of its involution image, in the dimension-normalized form

        p_dual(s, t) qdim(s)/qdim(t)  =  p(t, s) qdim(t)/qdim(s),

    over all pairs of the walk's domain.  The dual side is assembled anew on
    that domain, through its own matrix construction.
    """
    p = walk.matrix.toarray()
    pdual = transition_matrix(walk.mu.dual(), walk.codes, walk.q).matrix.toarray()
    dims = walk.qdims()
    lhs = pdual * (dims[:, None] / dims[None, :])
    rhs = (p * (dims[:, None] / dims[None, :])).T
    return float(np.max(np.abs(lhs - rhs)))


def _hops(matrix: CSR, sources, limit: int, entries=None, backward: bool = False) -> np.ndarray:
    """Fewest steps from each source index to each index along the stored
    entries of a square CSR (an explicit zero or a negative entry is a step
    too), or along those the boolean mask ``entries`` keeps, searched level
    by level up to ``limit`` steps; ``backward`` steps from column to row.
    An array of shape (len(sources), n), holding limit + 1 where an index is
    not reached within the limit."""
    n, k = matrix.shape[0], len(sources)
    tail, head = matrix.rows(), matrix.indices
    if backward:
        tail, head = head, tail
    if entries is not None:
        tail, head = tail[entries], head[entries]
    # (head, source) keys: one bincount counts each frontier's steps into each index
    keys = (head.astype(np.int64)[:, None] * k + np.arange(k)).ravel()
    out = np.full((k, n), limit + 1)
    front = np.zeros((n, k), dtype=bool)
    front[sources, np.arange(k)] = True
    for step in range(limit + 1):
        front &= out.T > limit
        if not front.any():
            break
        out.T[front] = step
        front = np.bincount(keys, weights=front[tail].ravel(), minlength=n * k).reshape(n, k) > 0
    return out


def is_generating(walk: TransitionMatrix) -> bool:
    """True iff every word of the walk's ball, cut to radius max(range, 4), is
    reachable from e and can reach e along the stored weights (a search both ways)."""
    # sorted codes: the last word is the longest
    radius = int(code_lengths(walk.codes[-1:]).max(initial=0))
    tm = walk.restrict(ball(min(radius, max(walk.range_bound, 4))))
    # the root is heap index 0, the first word of the ball
    return all((_hops(tm.matrix, [0], tm.size, backward=back) <= tm.size).all() for back in (False, True))


def norm_upper_bound(mu: Measure, q: float) -> float:
    """Bound on the operator norm of the walk on the qdim^2-weighted l2 space:
    sum_r mu(r) dim(r) / qdim(r), as r (x) s has at most len(r) + 1 <= dim(r)
    components (the Schur test of kernels.weighted_operator_norm).  Strictly
    below 1 unless all mass sits at e, in which case the returned value 1
    signals the degenerate walk."""
    validate_q(q)
    # dim(r) at n = 2 for every F: the walk's weights depend on F only through q, and so does this bound
    out = sum(w * classical_dim(r) / qdim(r, q) for r, w in mu.items())
    if any(r for r in mu.support) and out >= 1.0:
        raise AssertionError(f"norm bound {out} not below 1 for a moving walk")
    return out


def uniform_irreducibility_constants(tm: TransitionMatrix, k_max: int = 12) -> tuple[float, int]:
    """Witness (delta0, K) for uniform irreducibility on the given domain:
    delta0 is the smallest positive entry, and K the largest number of steps
    needed to cross a tree edge between interior vertices."""
    data = tm.matrix.data
    if data.size == 0:
        raise ValueError("empty transition matrix")
    delta0 = float(data[data > 0].min())
    # adjacency restricted to pairs that stay clear of the frontier, so that
    # connecting chains are not killed by the truncation
    lengths = code_lengths(tm.codes)
    ok = np.flatnonzero(lengths + k_max * tm.range_bound <= lengths.max())
    adjacent = tree_distances(tm.codes[ok, None], tm.codes[None, ok]) == 1
    if not adjacent.any():
        raise ValueError("domain too small for the requested chain margin")
    # fewest steps along positive weights from each interior word, through any word
    steps = _hops(tm.matrix, ok, k_max, entries=data > 0)[:, ok][adjacent]
    far = int((steps > k_max).sum())
    if far:
        raise AssertionError(f"{far} adjacent pairs not connected within {k_max} steps")
    return delta0, int(steps.max())
