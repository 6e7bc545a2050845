"""Green and Martin kernels of substochastic matrices on tree domains,
and the measurements that audit their tree-geometry estimates: each audit
function returns what it measured, and the bound it is compared with is
computed beside its entry of the audit table (cli.AUDITS, cli._stages).

A walk is a fusion.TransitionMatrix: its weights W (a fusion.CSR of numpy
arrays), the sorted heap indices of its domain and its norm bound.  Words are heap indices here: sources,
targets and rows alike.  Where W has norm < 1 on the qdim^2-weighted l2
space, the Green kernel is G = (I - W)^-1, and every kernel the audits read
comes from Green rows G(s, .).  One solve gives them (_green_solve): it
factors (I - W)^T once (_factor) and solves the unit columns of the sorted
rows asked for, column s being the row G(s, .).  green_table asks for
every word (up to DENSE_LIMIT, a memory bound), green_rows for the sources
and the domain's root, its first heap index; both return a KernelTable.
The root is always solved: it is the Martin base, the word at which
martin_rows normalises (e for a ball, x for the branch of x).

Each solve first certifies an interval around the norm
(weighted_operator_norm: one Collatz-Wielandt step, whose top a Schur test
keeps at most the walk's norm bound) and refuses a top within NORM_GUARD of 1.
It is gated by its residual and diagonal and then certified (_Certificate):
every row of a rows solve, and the first, middle and last row of a full
table, gets a rigorous entrywise error bound from solves with the held factor,
whose last term the top bounds on the dual weights 1/qdim^2.  The columns are
solved and gated in panels, in one loop on the caller's thread, so the full
table costs one n x n array, the table itself.

Every factor eliminates in reversed heap order, every word after its
children, so a range-1 walk's pivots are leaves of what is left: no fill
(Parter, SIAM Review 3, 1961), and no pivoting, since I - W is an M-matrix
(an H-matrix for a signed W) once its norm top is below 1.  On a ball or a
branch, a complete subtree in heap order, the children of one level are the
two halves of the next, so such a walk is factored and solved by level
sweeps (_LevelSweeps): one numpy step per level on slices, no SuperLU.  Its
full table takes no solve at all.  On a tree every path from s to t passes
the geodesic, so G(s, t) = F(s, t) G(t, t), F(s, t) the product of the
first-passage factors along it (Cartier, Symposia Math. 9, 1972; Woess,
Random Walks on Infinite Graphs and Groups, 2000), and the sweeps'
multipliers are the upward factors; the panel loop only gates that table.
The gates and the certificate take their products W^T X from the factor:
the sweeps by level slices of one stencil of W's entries, with the bits of
scipy's CSC product and without its import.
A range-2 walk fills about as much as COLAMD; it, or a walk on any other
domain, is factored by SuperLU (_LeavesFirstLU, which imports scipy.sparse
and SuperLU at its first factor, so a process whose walks all take the
sweeps loads no module of scipy.sparse or scipy.linalg), in one-column
panels for a rows solve (SuperLU's n x panel work array pays only when supernodes span
several columns: Demmel et al., SIAM J. Matrix Anal. Appl. 20(3), 1999) and
in its default panels of 10 for a full table.  The certificate bounds its block of
columns at once, with the same bits per column as a column alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fusion import CSR, TransitionMatrix, as_csr
from .words import RadiusCapError, code_lengths, ends_with, heap_index, locate, qdims, tree_distances, word
# the word-level qdim stays importable from here: perfbench's tracer rebinds it in every
# module that holds it
from .words import qdim  # noqa: F401

# largest domain of green_table: its table is one n x n float array (about 135
# MiB at the limit), built or solved on one thread with no n x n temporaries
DENSE_LIMIT = 4200
SOLVER_TOL = 1e-10
NORM_GUARD = 1e-6
# unit columns per step of _green_solve's loop, which solves and gates rows and
# SuperLU tables and only gates a level-sweeps table.  First table of a
# process at n = 4095 on one CPU, three processes each, the gates' products
# by level slices: the sweeps' table and its gates took 0.120-0.129 s at 16,
# against 0.123-0.128 s at 8, 0.125-0.132 s at 32 and 0.146-0.148 s at 64
# (the gates and the certificate alone 0.074-0.076 s at 16, 0.080-0.082 s at
# 8, 0.080-0.087 s at 32, 0.102-0.104 s at 64); a range-2 SuperLU table took
# 0.46-0.50 s at 16 and 0.47-0.53 s at 8, against 0.57-0.73 s at 32
_PANEL = 16


def weighted_operator_norm(matrix, weights: np.ndarray) -> tuple[float, float]:
    """Certified interval (bottom, top) around the operator norm of the
    matrix on l2 with the given vertex weights, from one Collatz-Wielandt
    step.  Dense input is converted to a CSR (fusion.as_csr).

    With A = D M D^-1 the conjugate by D = diag(sqrt(weights)) and u = |A| 1,
    the bottom is |A 1| / |1| <= ||A|| and the top sqrt(max_i (|A|^T u)_i)
    >= || |A| || >= ||A||, widened by 1 + 1e-12 for the rounding of the
    products; |A| keeps the top valid for a signed matrix.  By Schur,
    top^2 <= R C, R and C the largest row and column sums of |A|.  A walk of
    mu has A(s, t) = sum_r mu(r) m(t; r, s) / qdim(r) on the qdim^2 weights,
    and a row or a column meets at most len(r) + 1 <= dim(r) words per r, so
    R, C <= lam (fusion.norm_upper_bound).  A restriction of the walk, or a
    perturbed Q with |Q| <= P, has smaller sums: a top above the walk's
    norm_bound means a wrongly assembled matrix.
    """
    w = np.sqrt(np.asarray(weights, dtype=float))
    # A on M's own CSR pattern, each entry times w[row] and then 1/w[col]: the
    # bits and order of the products diag(w) M diag(1/w) without their copies
    m = as_csr(matrix)
    n, counts = m.shape[0], np.diff(m.indptr)
    a = m.data * np.repeat(w, counts)
    a *= (1.0 / w)[m.indices]
    signed = a.min(initial=0.0) < 0.0
    b = np.abs(a) if signed else a
    # A 1, |A| 1 and |A|^T u as bincounts in CSR entry order: the sums of a CSR
    # product with ones and of a CSC product, term for term
    rows = m.rows()
    u = np.bincount(rows, b, n)
    bottom = _l2(np.bincount(rows, a, n) if signed else u) / _l2(np.ones(n))
    top = math.sqrt(np.bincount(m.indices, b * np.repeat(u, counts), n).max()) * (1.0 + 1e-12)
    return bottom, top


def _l2(v: np.ndarray) -> float:
    """The 2-norm of a vector by numpy's own sum of squares.  np.linalg.norm
    calls BLAS ddot, whose threads spin on after it returns: on a 2-vCPU host
    with two BLAS threads the rows solve of `walk --radius 16` took 0.19 s in
    process, against 0.07 s with one."""
    return math.sqrt(float(np.square(v).sum()))


@dataclass
class KernelTable:
    """Green kernel G(s, t) of a walk for the solved words s (``rows``,
    sorted heap indices) and every t of the walk's domain, in its order;
    the domain's root, walk.codes[0], is always solved, and Martin kernels
    (martin_rows) are normalized at it.

    ``error_bound`` is the largest certified |G - green| / |green| over every
    row of a rows solve or the first, middle and last row of a full table;
    below 1 it certifies the sign of every entry of those rows."""

    walk: TransitionMatrix = field(repr=False)
    rows: np.ndarray
    green: np.ndarray
    residual: float
    norm_interval: tuple[float, float]
    error_bound: float

    @property
    def size(self) -> int:
        return self.walk.size

    def row_positions(self, codes) -> np.ndarray:
        """Rows of ``green`` that hold the solved words with the given heap
        indices; raises ValueError naming the words with no solved row."""
        codes = np.asarray(codes, dtype=np.int64)
        pos, inside = locate(self.rows, codes)
        if not inside.all():
            raise ValueError(f"no solved Green row for {[word(c) for c in codes[~inside]]}")
        return pos

    def source_rows(self, sources) -> np.ndarray:
        """The Green rows G(s, .) of the given solved words, one per source."""
        return self.green[self.row_positions(sources)]

    def green_entry(self, s: int, t: int) -> float:
        return float(self.green[self.row_positions([s])[0], self.walk.positions([t])[0]])


def green_table(walk: TransitionMatrix, solver_tol: float = SOLVER_TOL) -> KernelTable:
    """The Green table G = (I - W)^-1 of the walk's weights W on its domain,
    every word's row.  Raises RadiusCapError (a ValueError) above DENSE_LIMIT
    words, and like _green_solve."""
    if walk.size > DENSE_LIMIT:
        raise RadiusCapError(f"domain of size {walk.size} exceeds the dense solver limit {DENSE_LIMIT}")
    return _green_solve(walk, walk.codes, solver_tol)


def green_rows(walk: TransitionMatrix, sources, solver_tol: float = SOLVER_TOL) -> KernelTable:
    """The Green rows of the sources (heap indices) and of the domain's
    root, in sorted order, on a domain of any size.  Raises like
    _green_solve."""
    rows = np.sort(np.append(np.asarray(sources, dtype=np.int64), walk.codes[0]))
    # distinct rows without np.unique, whose plain form imports numpy.ma (about 15 ms)
    return _green_solve(walk, rows[np.append(True, rows[1:] != rows[:-1])], solver_tol)


def _green_solve(walk: TransitionMatrix, rows: np.ndarray, solver_tol: float) -> KernelTable:
    """The one solver core: the Green rows of ``rows`` (sorted heap indices
    of domain words).

    It solves (I - W)^T X = E for the unit columns E of the rows' positions;
    X holds the rows as columns, and X^T is the table.  The columns are solved
    in panels of _PANEL, each with its residual W^T X - X + E and its diagonal
    taken before it is stored, so no n x n right-hand side, residual or copy is
    formed; both gates cover every column.  A full table of level sweeps is
    built whole from first-passage factors (_LevelSweeps.table), and the
    panels of its columns are only gated.  Every step runs on the caller's
    thread.  The norm top, one Collatz-Wielandt step, guards the solve and
    bounds the certificate's last term.  Raises ValueError for a row outside the
    domain and when the top reaches 1 - NORM_GUARD (invalid input), and
    RuntimeError when the worst residual exceeds the tolerance, a diagonal
    entry is not positive or the level sweeps meet a pivot that is not.
    """
    n = walk.size
    w = walk.matrix
    if w.shape != (n, n):
        raise ValueError(f"matrix shape {w.shape} does not match domain size {n}")
    units, inside = locate(walk.codes, rows)
    if not inside.all():
        outside = [word(c) for c in np.unique(rows[~inside])]
        raise ValueError(f"Green rows asked for words outside the domain: {outside}")
    norm_interval = weighted_operator_norm(w, walk.haar_weights())
    top = norm_interval[1]
    if top >= 1.0 - NORM_GUARD:
        raise ValueError(f"operator norm bound {top} too close to 1; Green kernel unreliable")
    narrow = len(units) < n
    lu = _factor(walk, w, narrow)
    # a full table's columns in Fortran order, so that its transpose is the
    # C-ordered table with no copy; a few rows in C order, the certificate's
    # block as it is (its products on a Fortran block run about 5x slower).
    # The level sweeps give a full table whole, which the loop only gates
    table = lu.table() if not narrow and isinstance(lu, _LevelSweeps) else None
    x = np.empty((n, len(units)), order="C" if narrow else "F") if table is None else table.T
    # one loop, not a call per panel: freeing a panel's arrays before the
    # next exist lets malloc trim the heap and fault it in again (about 120k
    # page faults at n = 4095).  So the gates read each stored panel from a
    # C-ordered copy: the product's own copy of a Fortran-ordered block, freed
    # at once, took 47k minor faults on the sweeps' table at n = 4095, not 1.1k
    numbers, rhs = [], None
    # the panel's copy and its residual, allocated once; a panel's right-hand
    # side lives until the next one's: freed before the product, it let malloc
    # trim the heap and fault it in again at every panel (a range-2 table at
    # radius 11 on one CPU took 0.63-0.92 s, against 0.44-0.61 s)
    copies, products = np.empty((2, n, min(_PANEL, len(units))))
    for start in range(0, len(units), _PANEL):
        at = units[start:start + _PANEL]
        cols = np.arange(len(at))
        if table is None:
            rhs = np.zeros((n, len(at)))
            rhs[at, cols] = 1.0
            x[:, start:start + len(at)] = lu.solve(rhs)
        panel = copies[:, :len(at)]
        panel[...] = x[:, start:start + len(at)]
        # W^T X - X taken by the factor, which holds W; adding the unit columns
        # at their entries alone gives |r| the bits of adding them whole
        r = lu.product(panel, out=products[:, :len(at)], less=True)
        r[at, cols] += 1.0
        # max |r| with no pass that writes: a NaN makes both ends NaN, and the
        # outer abs turns an all-zero panel's -0.0 into the 0.0 of |r|
        numbers.append((abs(max(r.max(), -r.min())), panel[at, cols].min()))
    # the panels' arrays go before the certificate allocates its own: kept,
    # they raised the peak RSS of `walk --radius 16` by 6 MiB
    del copies, products, panel, r, rhs
    residuals, diagonals = zip(*numbers)
    # np.max and np.min keep a NaN of any panel, and the negated comparisons fail it
    residual = float(np.max(residuals))
    if not residual <= solver_tol:
        raise RuntimeError(f"Green solve residual {residual} above tolerance {solver_tol}")
    # a certified relative bound below 1 certifies every sign of its rows; this
    # gate also covers the rows a full table leaves uncertified
    if not np.min(diagonals) > 0.0:
        raise RuntimeError("Green kernel diagonal not positive")
    certified = slice(None) if narrow else np.array(sorted({0, (len(units) - 1) // 2, len(units) - 1}))
    block = x if narrow else np.ascontiguousarray(x[:, certified])
    bounds = _Certificate(walk, top, lu, narrow).bounds(block, units[certified])
    # infinite at a zero entry; max keeps a NaN bound, as the gates' maxima do.
    # The bounds are positive, so |bounds / x| is bounds / |x|, in place
    with np.errstate(divide="ignore"):
        bound = float(np.abs(np.divide(bounds, block, out=bounds), out=bounds).max())
    return KernelTable(walk, rows, np.ascontiguousarray(x.T), residual, norm_interval, bound)


def _factor(walk: TransitionMatrix, w: CSR, narrow: bool):
    """The factor of I - W^T that a Green solve and its certificate use, W
    the CSR weights on the walk's domain (or their absolute values): level
    sweeps where the walk has range 1 and its domain is a complete subtree in
    heap order, as every ball and branch is, and SuperLU otherwise.  Either
    also takes the products W^T X of the gates and the certificate."""
    if walk.range_bound == 1 and _heap_subtree(walk.codes):
        return _LevelSweeps(w, narrow)
    return _LeavesFirstLU(w, narrow)


def _heap_subtree(codes: np.ndarray) -> bool:
    """True when the sorted heap indices are, for some depth D, the words y x
    with len(y) <= D, x the first: then level j is positions
    [2^j - 1, 2^(j+1) - 1), by bits(y), and its halves (y = a y', b y') are
    the children of level j - 1 in its order."""
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


#: the products take the levels above this depth (under 64 parents each) in
#: one gathered step: numpy's per-call cost, not their few rows, sets their
#: time.  A 16-column gate panel at radius 11 took 0.263 ms at 6, against
#: 0.291 ms with no gathered step (0), 0.290 at 2, 0.274 at 4, 0.267 at 8 and
#: 0.338 at 10 (medians of 3000 interleaved calls on 2 vCPUs; 6 beat 0 in 92%
#: of them); the radius-11 gate loop took 0.074 s at 6, 0.077 s at 8 and
#: 0.079 s at 0 (medians of 16 processes each)
_SHALLOW = 6


def _stencil(w: CSR) -> np.ndarray:
    """The entries of a range-1 W on a complete subtree in heap order, as the
    rows up, diag and down of a (3, n) array: up(c) = W(c, p), diag(c) =
    W(c, c) and down(c) = W(p, c), p the parent of c.  Each stored entry
    fills one slot: an entry off the tree's edges, or two entries at one
    position, raises RuntimeError, so no entry is dropped or added twice."""
    n = w.shape[0]
    row, col = w.rows(), w.indices
    # an entry joins a child c to its parent p, up (row c) or down (row p),
    # or is c's own; its slot is c in the row of its kind
    up = col < row
    child = np.where(up, row, col)
    if not ((col == row) | (_parents(n)[child] == np.where(up, col, row))).all():
        raise RuntimeError("a range-1 walk has an entry off the tree's edges")
    slot = child + n * (1 + np.sign(col - row, dtype=child.dtype))
    if np.bincount(slot, minlength=3 * n).max(initial=0) > 1:
        raise RuntimeError("a range-1 walk stores two entries at one position")
    stencil = np.zeros(3 * n)
    # 0.0 + v, the sum a bincount of the one entry gives
    stencil[slot] = w.data + 0.0
    return stencil.reshape(3, n)


def _parents(n: int) -> np.ndarray:
    """The parent of each position of a complete subtree of n words in heap
    order, -1 at the root: level j is positions [2^j - 1, 2^(j+1) - 1), and a
    word's parent drops its first letter, so both halves of a level are the
    children of the level before, in its order."""
    levels = (np.tile(np.arange(h - 1, 2 * h - 1), 2) for h in (1 << j for j in range(n.bit_length() - 1)))
    return np.concatenate([[-1], *levels])


class _LevelSweeps:
    """Leaves-first factors of I - W^T for a range-1 W on a complete subtree
    in heap order (_heap_subtree), W in CSR: Parter's order, with no fill and
    no pivoting, one numpy step per level on slices.  The factors, and the
    products W^T X of the gates and the certificate, read one stencil of W
    (_stencil), never the CSR again; ``narrow`` marks the factor of a rows
    solve, whose products hold no copy of it (product).

    With up(c) = W(c, p) and down(c) = W(p, c), p the parent of c, the
    pivots are d = 1 - diag(W), less (up(c) * (1 / d(c))) * down(c) from each
    child c, the children of a level's parents being its two halves, the
    first half and then the second: SuperLU's operations in its order, so
    the pivots and the multipliers up / d are its own, to the bit.  I - W is
    an M-matrix (an H-matrix for a signed W) when the certified top of |W| is
    below 1, so every pivot is positive; one that is not, NaN included,
    raises RuntimeError."""

    def __init__(self, w: CSR, narrow: bool = False):
        n = w.shape[0]
        # (parents, children, h) per level below the root: the 2h children
        # are the two halves, each in the order of the h parents
        levels = [(slice(h - 1, 2 * h - 1), slice(2 * h - 1, 4 * h - 1), h)
                  for h in (1 << j for j in range(n.bit_length() - 1))]
        self.stencil = _stencil(w)
        # the shallow levels' parents 0 .. top - 1, as index arrays: their
        # children's parents and their own first and second children; then per
        # deeper level the parents, the children and their two halves
        shallow = levels[:_SHALLOW]
        parent_of = [np.tile(np.arange(p.start, p.stop), 2) for p, _, _ in shallow]
        first = [np.arange(c.start, c.start + h) for _, c, h in shallow]
        second = [np.arange(c.start + h, c.stop) for _, c, h in shallow]
        self._top = ((1 << len(shallow)) - 1,
                     *(np.concatenate([np.zeros(0, dtype=np.intp), *parts]) for parts in (parent_of, first, second)))
        self._slices = [(parents, children, slice(children.start, children.start + h),
                         slice(children.start + h, children.stop)) for parents, children, h in levels[_SHALLOW:]]
        # a zero of the stencil adds a zero term for a finite x, so a walk with
        # no weight at e skips the diagonal's terms
        self._has_diag, self._narrow, self._wide = bool(self.stencil[1].any()), narrow, None
        up, diag, down = self.stencil.copy()
        d = 1.0 - diag
        # a pivot that is not positive spreads to the root: the gate names the
        # first one eliminated, the last in heap order
        with np.errstate(divide="ignore", invalid="ignore"):
            for parents, children, h in reversed(levels):
                lower, pivots, upper = (v[children].reshape(2, h) for v in (up, d, down))
                for half in range(2):
                    lower[half] *= 1.0 / pivots[half]
                    d[parents] -= lower[half] * upper[half]
        bad = np.flatnonzero(~(d > 0.0))
        if bad.size:
            raise RuntimeError(f"Green solve pivot {d[bad[-1]]} not positive")
        self.d, self.lower, self.upper = d, up, down
        # each level's multipliers and pivots as (half, word, 1) views, to
        # scale the rows of a block of right-hand sides
        self.levels = [(parents, children, h, *(v[children].reshape(2, h, 1) for v in (up, down, d)))
                       for parents, children, h in levels]

    def table(self) -> np.ndarray:
        """The Green table G = (I - W)^-1, C-ordered, from first-passage
        factors (Cartier, Symposia Math. 9, 1972; Woess, Random Walks on
        Infinite Graphs and Groups, 2000), with no solve.

        With p the parent of c, F(c, p) = up(c) / d(c) is the multiplier
        ``lower``; top-down, F(p, c) = down(c) / (1/G(p, p) + down(c) F(c, p))
        and 1/G(c, c) = d(c) (1 - F(c, p) F(p, c)), 1/G(e, e) = d(e).  A path
        from c leaves c's subtree through p, so there G(c, t) = F(c, p) G(p, t),
        and on it G(c, t) is G(t, t) times the F(p', c') on the way down from c
        to t.  Products only: a zero first passage gives exact zeros.  The
        subtree of word b of level L is column b of each deeper level L + k
        as a (2^k, 2^L) grid, one strided step per (level, depth) pair."""
        n = len(self.d)
        # the table, 1/G(c, c) and F(p, c) (1 at the root, which has no parent)
        g, inv_diag, first = np.empty((n, n)), self.d.copy(), np.ones(n)
        for parents, children, _, lower, upper, _ in self.levels:
            f = upper / (inv_diag[parents, None] + upper * lower)
            first[children] = f.ravel()
            inv_diag[children] *= (1.0 - lower * f).ravel()
        diag, depth = 1.0 / inv_diag, n.bit_length() - 1
        for level in range(depth + 1):
            # the m words of the level, at rows m - 1 .. 2m - 2; ``below`` holds
            # the products of F down from each of them to one deeper level
            m, below = 1 << level, 1.0
            if level:
                parents, children, h, lower = self.levels[level - 1][:4]
                np.multiply(lower, g[parents], out=g[children].reshape(2, h, n))
            for k in range(depth - level + 1):
                start = (1 << (level + k)) - 1
                if k:
                    below = (below * first[start:2 * start + 1].reshape(2, -1, m)).reshape(-1, m)
                # a writeable view: entry (i, b) is row m - 1 + b, column start + i m + b
                grid = np.einsum("bib->ib", g[m - 1:2 * m - 1, start:start + (m << k)].reshape(m, -1, m))
                np.multiply(below, diag[start:2 * start + 1].reshape(-1, m), out=grid)
        return g

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(I - W^T)^-1 rhs for a vector or a block of columns, each column
        on its own with the same operations."""
        x = np.array(rhs, dtype=float)
        y = x.reshape(len(x), -1)
        for parents, children, h, lower, _, _ in reversed(self.levels):
            terms = lower * y[children].reshape(2, h, -1)
            above = y[parents]
            above += terms[1]
            above += terms[0]
        y[0] /= self.d[0]
        for parents, children, h, _, upper, pivots in self.levels:
            below = y[children].reshape(2, h, -1)
            below += upper * y[parents]
            below /= pivots
        return x

    def product(self, x: np.ndarray, out: np.ndarray | None = None, less: bool = False) -> np.ndarray:
        """W^T x for a vector or a block of columns, by level slices of the
        stencil, into ``out`` when given (_add_terms); W^T x - x with
        ``less``, the residual of the gates, taken in the same pass.  The
        factor of a rows solve (``narrow``) broadcasts the stencil across the
        block's columns; a full table's repeats it to the panel's width, kept
        with a work array for the last width."""
        # The repeated stencil holds 3 n w floats, bounded only on a full
        # table (n <= DENSE_LIMIT); a rows solve runs to 2^21 words, where
        # three rows would repeat it into 144 MiB.  Medians of 400 (radius
        # 11) and 30 (radius 16) interleaved calls on 2 vCPUs: a 16-column
        # panel at radius 11 took 0.22 ms repeated and 0.32 ms broadcast (a
        # table has 256); 3 columns at radius 16 took 1.8 ms repeated, 1.8 ms
        # more to repeat the stencil, and 2.4 ms broadcast.
        # Repeated, the two rows of `walk --radius 16` peaked at 71.2 MiB
        # against 63.8 MiB broadcast, and green_rows of three rows there took
        # 0.055 s against 0.057 s (medians of 10 processes)
        y = np.empty(x.shape) if out is None else out
        xs, ys = x.reshape(len(x), -1), y.reshape(len(y), -1)
        width, half = xs.shape[1], len(x) // 2 + 1
        if self._narrow:
            self._add_terms(xs, ys, *self.stencil[:, :, None], np.empty((half, width)), less)
            return y
        if self._wide is None or self._wide[0].shape[1] != width:
            self._wide = (*(np.repeat(v, width).reshape(-1, width) for v in self.stencil), np.empty((half, width)))
        self._add_terms(xs, ys, *self._wide, less)
        return y

    def _add_terms(self, x: np.ndarray, y: np.ndarray, up, diag, down, work, less: bool) -> None:
        """y = W^T x for a block x, the stencil repeated or broadcast to its
        width, top down: a level stores its children's parent terms and then
        adds its own terms and its children's to itself.  So each entry
        adds, from +0.0, the term of its parent, its own, its first child's
        and its second child's, the order in which scipy's CSC product adds
        the stored entries of a column of W, and for a finite x the bits are
        scipy's: the parent term is stored, not added to +0.0, and the +0.0
        added to each finished level turns the -0.0 of an entry whose terms
        are all zeros into scipy's +0.0, changing no other bit.  With ``less``
        each finished level subtracts x instead, as scipy's r - x does; only
        a zero of r - x may then differ in sign, which |r - x| does not read."""
        y[0] = 0.0
        top, parent_of, first, second = self._top
        if top:
            children = slice(1, 2 * top + 1)
            np.multiply(down[children], x[parent_of], out=y[children])
            above, here = y[:top], x[:top]
            if self._has_diag:
                above += diag[:top] * here
            above += up[first] * x[first]
            above += up[second] * x[second]
            if less:
                above -= here
            else:
                above += 0.0
        for parents, _, first, second in self._slices:
            here, terms = x[parents], work[:parents.stop - parents.start]
            np.multiply(down[first], here, out=y[first])
            np.multiply(down[second], here, out=y[second])
            above = y[parents]
            if self._has_diag:
                above += np.multiply(diag[parents], here, out=terms)
            above += np.multiply(up[first], x[first], out=terms)
            above += np.multiply(up[second], x[second], out=terms)
            if less:
                above -= here
            else:
                above += 0.0
        leaves = slice(len(x) // 2, len(x))
        if self._has_diag:
            y[leaves] += np.multiply(diag[leaves], x[leaves], out=work[:leaves.stop - leaves.start])
        if less:
            y[leaves] -= x[leaves]
        else:
            y[leaves] += 0.0


class _LeavesFirstLU:
    """SuperLU factors of I - W^T, for the CSR weights W of a walk on a
    domain of sorted heap indices: the factor of a walk of range >= 2, or of
    a domain that is not a complete subtree, and the oracle of the level
    sweeps' tests.  It eliminates in reversed domain order with SuperLU's
    partial pivoting, in panels of one column when ``narrow`` (see above);
    ``solve`` takes and returns domain order, and ``product`` is scipy's CSC
    product W^T x.  scipy.sparse and SuperLU are imported on first use."""

    def __init__(self, w: CSR, narrow: bool = False):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        n = w.shape[0]
        # W^T in CSC is W's own arrays: its products add in the order of a CSR
        # copy, with no conversion
        self.a = c = sp.csc_matrix((w.data, w.indices, w.indptr), shape=(n, n))
        # column j of the reversed W^T is column n - 1 - j of W^T with its rows
        # mirrored, so sorted rows stay sorted
        reversed_w = sp.csc_matrix(
            (c.data[::-1], n - 1 - c.indices[::-1], c.indptr[-1] - c.indptr[::-1]), shape=(n, n)
        )
        a = sp.identity(n, format="csc") - reversed_w
        # SuperLU copies its input: hold no other n-sized array while it factors
        del reversed_w
        self.lu = splu(a, permc_spec="NATURAL", panel_size=1 if narrow else None)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs[::-1])[::-1]

    def product(self, x: np.ndarray, out: np.ndarray | None = None, less: bool = False) -> np.ndarray:
        """W^T x, or W^T x - x with ``less``, by scipy's CSC product."""
        y = self.a @ x
        if less:
            y -= x
        if out is None:
            return y
        out[...] = y
        return out


class _Certificate:
    """Entrywise bounds on the error of solved columns x of (I - A) x = e,
    A = W^T of norm at most ``top`` < 1 on the dual weights 1/m, m the walk's
    Haar weights (Rump, Acta Numerica 19, 2010; gamma_k = k u / (1 - k u), u
    the unit roundoff, from Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 3).

    r = |fl(e - (x - Ax))| + gamma_k (|A||x| + |x| + e), k the largest row
    count of A plus 2, bounds the residual, and |(I - A)^-1| <= (I - |A|)^-1
    makes (I - |A|)^-1 r an error bound.  Two solves with the held factor (a
    factor of I - |A| from _factor when A has a negative entry) bound that
    entrywise, each residual bounded like r; the image of the last is at most
    its norm on the dual weights over 1 - top, times sqrt(m_i) at entry i.
    With one solve that term, about u^2 times the largest entry, made
    G = 5e-20 (ball 8, mu(a) = 0.85) 1e-10 relative.  1 + gamma_(n + 3k + 25)
    covers the bound's own roundings: k + 5 per residual bound, n + 2 in the
    norm, a few after."""

    def __init__(self, walk: TransitionMatrix, top: float, factor, narrow: bool):
        w = walk.matrix
        # the factor of W takes A x; a signed W gets a factor of |W| for |A| x and the solves
        self.factor = self.abs_factor = factor
        if w.data.min(initial=0.0) < 0.0:
            self.abs_factor = _factor(walk, CSR(w.indptr, w.indices, np.abs(w.data), w.shape), narrow)
        n, u = w.shape[0], np.finfo(float).eps / 2
        k = int(np.bincount(w.indices, minlength=n).max(initial=0)) + 2
        self.gamma = k * u / (1.0 - k * u)
        self.widen = 1.0 + (n + 3 * k + 25) * u / (1.0 - (n + 3 * k + 25) * u)
        self.scale, self.top = np.sqrt(walk.haar_weights()), top

    def bounds(self, x: np.ndarray, units: np.ndarray) -> np.ndarray:
        """Bounds on |G - x| entrywise, x a block of solved columns, column j
        that of the unit at index units[j]; each column's bounds are those of
        the column solved alone, to the bit."""
        # the residual bound, the bound, a work array and the solved columns,
        # allocated once: with a fresh array per step, freed two at a time,
        # malloc gave the heap top back and faulted it in again (7.7k minor
        # faults at radius 16 on three columns, 2.4k with these four)
        r, bound, work, y = np.zeros((4, *x.shape))
        r[units, np.arange(len(units))] = 1.0
        self._residual_bound(self.factor, x, r, work)
        for _ in range(2):
            y[...] = self.abs_factor.solve(r)
            self._residual_bound(self.abs_factor, y, r, work)
            bound += np.abs(y, out=y)
        norms = np.array([_l2(np.divide(column, self.scale, out=work[:, 0])) for column in r.T])
        bound += norms / (1.0 - self.top) * self.scale[:, None]
        bound *= self.widen
        return bound

    def _residual_bound(self, factor, x: np.ndarray, b: np.ndarray, work: np.ndarray) -> None:
        """|fl(b - (x - a x))| + gamma_k (|A||x| + |x| + b), for b >= 0,
        written over b, work an array like x, a the product of the given
        factor's weights.  Where neither A nor x has a negative entry, as on
        an unsigned walk, |A||x| is the product a x itself, to the bit."""
        ax = factor.product(x)
        if factor is self.abs_factor and not x.min(initial=0.0) < 0.0:
            np.add(ax, x, out=work)
        else:
            np.abs(x, out=work)
            work += self.abs_factor.product(work)
        work += b
        work *= self.gamma
        ax -= x
        ax += b
        np.abs(ax, out=ax)
        np.add(ax, work, out=b)


def truncation_error_bound(radius: int, s: int, t, walk: TransitionMatrix):
    """Rigorous bound on the truncation error of G(s, t) of the walk computed
    on the ball of the given radius: any escaping path needs at least
    N = ceil(2 (radius - max|s|,|t|) / range) steps, and the tail of the series
    is controlled by the walk's norm bound on the weighted space.

    Words are heap indices: ``t`` is one, giving a float, or an array of them,
    giving an array.
    """
    lam = walk.norm_bound
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    codes = np.append(np.asarray(t, dtype=np.int64), s)
    lengths = code_lengths(codes)
    depth = radius - np.maximum(lengths[-1], lengths[:-1])
    if (depth < 0).any():
        raise ValueError("s and t must lie inside the ball")
    n_steps = np.ceil(2 * depth / walk.range_bound)
    dims = qdims(codes, walk.q)
    bound = dims[:-1] / dims[-1] * lam ** n_steps / (1.0 - lam)
    return float(bound[0]) if np.ndim(t) == 0 else bound


class Shortfall(ValueError):
    """An audit stage found too little data to measure: ``have`` items of
    the kind it names where it needs at least ``need``."""

    def __init__(self, have: int, need: int, what: str):
        super().__init__(f"only {have} {what}; need at least {need}")
        self.have, self.need = have, need


def _interior_block(table: KernelTable, interior) -> tuple[np.ndarray, np.ndarray]:
    """G(s, t) and the tree distance d(s, t) over the interior words, given
    by heap indices, from the table's rows; fewer than two words leave no
    pair to compare and raise Shortfall."""
    codes = np.asarray(interior, dtype=np.int64)
    if len(codes) < 2:
        raise Shortfall(len(codes), 2, "interior words")
    g = table.green[np.ix_(table.row_positions(codes), table.walk.positions(codes))]
    return g, tree_distances(codes[:, None], codes[None, :])


def harnack_audit(table: KernelTable, interior) -> float:
    """Exhaustive scan of the two Harnack inequalities over interior triples
    (the interior given by heap indices): the empirical delta, the largest
    constant with which both hold."""
    g, dist = _interior_block(table, interior)
    logg = np.log(g)
    n = len(interior)
    worst = math.inf
    safe = np.where(dist > 0, dist, 1)
    for t in range(n):
        # G(s,t) <= delta^-d(s,v) G(v,t):  delta <= (G(v,t)/G(s,t))^(1/d(s,v))
        diff = (logg[None, :, t] - logg[:, None, t]) / safe
        np.fill_diagonal(diff, math.inf)
        worst = min(worst, float(np.exp(diff.min())))
        # G(s,t) <= delta^-d(t,v) G(s,v):  delta <= (G(s,v)/G(s,t))^(1/d(t,v))
        diff2 = (logg[:, :] - logg[:, t][:, None]) / safe[t, :][None, :]
        diff2[:, t] = math.inf
        worst = min(worst, float(np.exp(diff2.min())))
    return worst


def multiplicativity_audit(table: KernelTable, interior) -> tuple[float, float]:
    """Both geodesic multiplicativity constants over interior triples s, t
    with v on the geodesic (the interior given by heap indices): the largest
    G(s,v)G(v,t)/G(s,t) and the largest G(s,t)/(G(s,v)G(v,t))."""
    g, dist = _interior_block(table, interior)
    n = len(interior)
    c_lower = c_upper = 0.0
    for v in range(n):
        on_geo = dist[:, v][:, None] + dist[v, :][None, :] == dist
        prod = np.outer(g[:, v], g[v, :])
        ratio = np.where(on_geo, prod / g, 0.0)
        c_lower = max(c_lower, float(ratio.max()))
        inv = np.where(on_geo, g / prod, 0.0)
        c_upper = max(c_upper, float(inv.max()))
    return c_lower, c_upper


def entry_set(branch_domain: np.ndarray, range_bound: int) -> np.ndarray:
    """The cut through which every path must enter the branch of x, the
    domain's root and shortest word: branch vertices within the open ball of
    the walk range around x (heap indices)."""
    branch_domain = np.asarray(branch_domain, dtype=np.int64)
    return branch_domain[tree_distances(branch_domain, branch_domain[0]) < range_bound]


def last_entry_audit(s: int, t: int, full_table: KernelTable, branch_table: KernelTable) -> float:
    """Relative residual of the last-entry decomposition
    G(s,t) = sum_u M(s,u) G_branch(u,t) over the entry cut of the branch of x,
    the root of ``branch_table``'s domain, where M(s,u) sums paths of the walk
    of ``full_table`` whose final step enters the branch from outside.  Words
    are heap indices.

    With the branch table truncated at the same radius as the full table the
    identity is exact up to solver error.
    """
    x = branch_table.walk.codes[0]
    if ends_with([s], x)[0]:
        raise ValueError("source must lie outside the branch")
    if not ends_with([t], x)[0]:
        raise ValueError("target must lie inside the branch")
    walk = full_table.walk
    outside = ~ends_with(walk.codes, x)
    cut = entry_set(branch_table.walk.codes, walk.range_bound)
    si = full_table.row_positions([s])[0]
    m_s = _last_steps(walk, full_table.green[si], outside)
    lhs = full_table.green_entry(s, t)
    rhs = 0.0
    for u, i in zip(cut.tolist(), walk.positions(cut).tolist()):
        rhs += float(m_s[i]) * branch_table.green_entry(u, t)
    return abs(lhs - rhs) / lhs


def _last_steps(walk: TransitionMatrix, green_row: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """M(s, .) = sum over the words v of the mask ``outside`` of G(s, v) P(v, .),
    G(s, .) the given Green row: a bincount in CSR entry order, the sums of
    scipy's CSC product of the outside rows' transpose."""
    m = walk.matrix
    rows = m.rows()
    at = outside[rows]
    return np.bincount(m.indices[at], m.data[at] * green_row[rows[at]], walk.size)


def ray_words(preperiod: str, period: str, suffix: str, depth: int) -> np.ndarray:
    """Finite truncations of the eventually periodic left-infinite word
    ...period period preperiod suffix, deepest last, as heap indices."""
    if not period:
        raise ValueError("period must be nonempty")
    out = []
    w = preperiod + suffix
    while len(w) <= depth:
        if w:
            out.append(heap_index(w))
        w = period + w
    if not out:
        raise ValueError("ray does not reach the domain")
    return np.array(out, dtype=np.int64)


def martin_rows(table: KernelTable, sources, targets, root: KernelTable | None = None) -> np.ndarray:
    """Martin kernel K(s, t) = G(s, t) / G_root(o, t), o the root of the root
    table's domain, rows by source and columns by target, all heap indices.
    The root table defaults to ``table``; the classical rows of the ball
    normalise the perturbed branch table.  Raises ValueError when a source
    has no solved row or a target lies outside either domain."""
    root = table if root is None else root
    targets = np.asarray(targets, dtype=np.int64)
    cols, inside = locate(table.walk.codes, targets)
    root_cols, root_inside = (cols, inside) if root.walk is table.walk else locate(root.walk.codes, targets)
    if not (inside & root_inside).all():
        raise ValueError(f"ray leaves the domain at {word(targets[~(inside & root_inside)][0])!r}")
    denom = root.green[root.row_positions(root.walk.codes[:1])[0], root_cols]
    # a zero G(e, t) leaves the Martin kernel undefined: raise, as float division does
    with np.errstate(divide="raise", invalid="raise"):
        return table.source_rows(sources)[:, cols] / denom[None, :]


def tail_decreasing(source: int, ray: np.ndarray, values: np.ndarray, floor: float = 1e-11) -> bool:
    """True if past the junction of the source with the ray (its first
    closest point) the gaps |K(s, t_n+1) - K(s, t_n)| of the kernel values
    along the ray strictly decrease until they reach the numerical floor;
    the source and the ray are heap indices."""
    dists = tree_distances(source, ray)
    tail = np.abs(np.diff(values))[int(np.argmin(dists)):]
    return not bool(np.any((tail[1:] >= tail[:-1]) & (tail[1:] > floor)))
