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
kernel.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .words import (
    EMPTY,
    ball,
    check_word,
    classical_dim,
    code_lengths,
    heap_index,
    heap_indices,
    involution,
    qdim,
    qdims,
    tree_distance,
    tree_distances,
    validate_q,
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
            if p <= 0.0:
                raise ValueError(f"weight of {w!r} must be positive, got {p}")
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


class TransitionMatrix:
    """Transition weights of the walk restricted to a finite ordered domain.

    The restriction is substochastic: mass stepping outside the domain is
    killed, so row sums are 1 only at vertices farther than the walk range
    from the domain frontier.
    """

    def __init__(
        self,
        domain: list[str],
        matrix: sp.csr_matrix,
        mu: Measure,
        q: float,
        codes: np.ndarray | None = None,
    ):
        self.domain = list(domain)
        self.index = {w: i for i, w in enumerate(self.domain)}
        #: heap indices of the domain words, computed when not given
        self.codes = heap_indices(self.domain) if codes is None else codes
        self.matrix = matrix
        self.mu = mu
        self.q = q
        self.range_bound = mu.range_bound

    @property
    def size(self) -> int:
        return len(self.domain)

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

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

    def restrict(self, subdomain: list[str]) -> "TransitionMatrix":
        """Substochastic restriction to a sub-domain (kills exiting mass)."""
        idx = np.array([self.index[w] for w in subdomain])
        sub = self.matrix[idx][:, idx]
        return TransitionMatrix(subdomain, sp.csr_matrix(sub), self.mu, self.q, self.codes[idx])

    def interior_words(self, frontier_radius: int) -> list[str]:
        """Vertices whose distance to the length-R frontier exceeds the range."""
        return [w for w in self.domain if frontier_radius - len(w) > self.range_bound]


def transition_matrix(mu: Measure, domain: list[str], q: float) -> TransitionMatrix:
    validate_q(q)
    codes = heap_indices(domain)
    tm = TransitionMatrix(domain, _assemble(mu, codes, q), mu, q, codes)
    _assert_bounded_range(tm)
    _check_sampled_rows(tm)
    return tm


def _assemble(mu: Measure, codes: np.ndarray, q: float) -> sp.csr_matrix:
    """The weights p(s, t) between the words with the given heap indices, one
    vector step per support word r and cancellation length k."""
    n = len(codes)
    lengths = code_lengths(codes)
    bits = codes + 1 - (np.int64(1) << lengths)
    dims = qdims(codes, q)
    order = np.argsort(codes, kind="stable")
    keys = codes[order]
    rows, cols, vals = [], [], []
    for r, w in mu.items():
        dr = qdim(r, q)
        r_bits = heap_index(r) + 1 - (1 << len(r))
        for k in range(min(len(r), int(lengths.max(initial=0))) + 1):
            # s must start with bar(z) for the last k letters z of r
            pattern = heap_index(involution(r[len(r) - k:])) + 1 - (1 << k)
            i = np.flatnonzero(lengths >= k)
            i = i[bits[i] >> (lengths[i] - k) == pattern]
            tail = lengths[i] - k  # letters of s that survive
            t_bits = ((r_bits >> k) << tail) + (bits[i] & ((np.int64(1) << tail) - 1))
            t_code = (np.int64(1) << (len(r) - k + tail)) - 1 + t_bits
            pos = np.minimum(np.searchsorted(keys, t_code), n - 1)
            hit = keys[pos] == t_code
            i, j = i[hit], order[pos[hit]]
            rows.append(i)
            cols.append(j)
            vals.append(w * dims[j] / (dr * dims[i]))
    mat = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    mat.sum_duplicates()
    return mat


def _assert_bounded_range(tm: TransitionMatrix) -> None:
    coo = tm.matrix.tocoo()
    dist = tree_distances(tm.codes[coo.row], tm.codes[coo.col])
    bad = np.flatnonzero(dist > tm.range_bound)
    if bad.size:
        i, j = coo.row[bad[0]], coo.col[bad[0]]
        raise AssertionError(
            f"entry ({tm.domain[i]!r}, {tm.domain[j]!r}) violates the range bound "
            f"{tm.range_bound} (distance {int(dist[bad[0]])})"
        )


def _check_sampled_rows(tm: TransitionMatrix) -> None:
    """Recompute the rows of the root (when present) and of the first, middle
    and last domain words on the string route: the same columns, entries
    within CROSS_CHECK_RTOL, and tree distances equal to the array ones."""
    if tm.size == 0:
        return
    sampled = {0, (tm.size - 1) // 2, tm.size - 1}
    if EMPTY in tm.index:
        sampled.add(tm.index[EMPTY])
    for i in sorted(sampled):
        s = tm.domain[i]
        row = tm.matrix.getrow(i)
        got = dict(zip(row.indices.tolist(), row.data.tolist()))
        targets = {t for r in tm.mu.support for t in fuse(r, s) if t in tm.index}
        want = {tm.index[t]: transition_prob(tm.mu, s, t, tm.q) for t in targets}
        if set(got) != set(want):
            raise AssertionError(
                f"row {s!r}: assembled columns {sorted(tm.domain[j] for j in got)} differ from "
                f"the fusion components {sorted(tm.domain[j] for j in want)}"
            )
        cols = np.array(sorted(got), dtype=np.int64)
        dist = tree_distances(np.full(len(cols), tm.codes[i]), tm.codes[cols])
        for j, d in zip(cols.tolist(), dist.tolist()):
            t = tm.domain[j]
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
    pdual = transition_matrix(walk.mu.dual(), walk.domain, walk.q).matrix.toarray()
    dims = walk.qdims()
    lhs = pdual * (dims[:, None] / dims[None, :])
    rhs = (p * (dims[:, None] / dims[None, :])).T
    return float(np.max(np.abs(lhs - rhs)))


def is_generating(mu: Measure, radius: int, q: float) -> bool:
    """True iff every word in the ball is reachable from e and can reach e
    through positive transition weights (BFS both ways on the truncated walk)."""
    if radius < mu.range_bound:
        raise ValueError("radius must be at least the range of the walk")
    tm = transition_matrix(mu, ball(radius), q)
    n = tm.size
    root = tm.index[EMPTY]
    fwd = breadth_first_order(tm.matrix, root, directed=True, return_predecessors=False)
    bwd = breadth_first_order(tm.matrix.T.tocsr(), root, directed=True, return_predecessors=False)
    return len(fwd) == n and len(bwd) == n


def norm_upper_bound(mu: Measure, q: float) -> float:
    """Bound on the operator norm of the walk on the qdim^2-weighted l2 space:
    sum_r mu(r) dim(r) / qdim(r).  Strictly below 1 unless all mass sits at e,
    in which case the returned value 1 signals the degenerate walk."""
    validate_q(q)
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
    radius = max(len(w) for w in tm.domain)
    margin = k_max * tm.range_bound
    ok = np.array([len(w) + margin <= radius for w in tm.domain])
    need = np.zeros((tm.size, tm.size), dtype=bool)
    for i, s in enumerate(tm.domain):
        if not ok[i]:
            continue
        for j, t in enumerate(tm.domain):
            if ok[j] and tree_distance(s, t) == 1:
                need[i, j] = True
    if not need.any():
        raise ValueError("domain too small for the requested chain margin")
    reach = (tm.matrix.toarray() > 0).astype(np.float64)
    power = reach.copy()
    best_k = 0
    for k in range(1, k_max + 1):
        hit = need & (power > 0)
        if hit.any():
            best_k = k
        need &= ~hit
        if not need.any():
            return delta0, best_k
        power = (power @ reach > 0).astype(np.float64)
    raise AssertionError(f"{int(need.sum())} adjacent pairs not connected within {k_max} steps")
