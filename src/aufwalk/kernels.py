"""Green and Martin kernels of substochastic matrices on tree domains,
and the quantitative audits of their tree-geometry estimates.

A walk is a fusion.TransitionMatrix: its weights W, the sorted heap indices
of its domain and its norm bound.  Words are heap indices here: sources,
targets and rows alike.  Where W has norm < 1 on the qdim^2-weighted l2
space, the Green kernel is G = (I - W)^-1, and every kernel the audits read
comes from Green rows G(s, .).  One solve gives them (_green_solve): it
factors (I - W)^T once by sparse LU and solves the unit columns of the
sorted rows asked for, column s being the row G(s, .).  green_table asks for
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
solved in panels, each gated as it is solved, so the full table costs one
n x n array, the table itself.  A large
solve's panels are split into a run per usable CPU, solved at once by the
caller and a thread pool; each run writes its own columns and the gates read
the panels' numbers in panel order, so the bytes do not depend on how many
CPUs there are.

The factors eliminate in reversed heap order (_LeavesFirstLU), every word
after its children: a range-1 walk's pivots are leaves of what is left, so
there is no fill (Parter) and no row swap, and a longer range fills about as
much as COLAMD.  The 4095-word table of `walk --radius 11` went 0.51 ->
0.32 s of compute on 2 vCPUs (BENCH_24.json); SuperLU's transposed solve on
factors of I - W was about 15% slower than the plain one on factors of the
transpose.  SuperLU's n x panel work array (Demmel et al., SIAM J. Matrix
Anal. Appl. 20(3), 1999) pays only when supernodes span several columns, and
a range-1 walk's span one, so a solve of fewer rows than words factors in
one-column panels: the same L/U, 2-3x faster, and 98 MiB at radius 16, not
138.  The full table keeps SuperLU's panel of 10, whose work arrays stay under
1 MiB and leave glibc's mmap threshold raised for the panel loop (one-column
panels cost the 4095-word table 45k page faults and its walk 30%).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .fusion import TransitionMatrix
from .words import RadiusCapError, code_lengths, ends_with, heap_index, locate, qdims, tree_distances, word
# the word-level qdim stays importable from here: perfbench's tracer rebinds it in every
# module that holds it
from .words import qdim  # noqa: F401

# largest domain of green_table: its table is one n x n float array (about 135
# MiB at the limit), solved in panels over the usable CPUs, no n x n temporaries
DENSE_LIMIT = 4200
SOLVER_TOL = 1e-10
NORM_GUARD = 1e-6
# unit columns per solve in _green_solve: of 8, 16 and 32, 16 gave the fastest
# first table of a process at n = 4095 on two workers (green_table medians of
# eight processes: 0.33 s, against 0.36 s for 8 and 0.45 s for 32) and tied
# with 8 on one (0.54 s; 0.69 s for 32)
_PANEL = 16
# table entries (n x unit columns) that pay for a run of their own: on a 2-CPU
# host a second worker made a 511-word table (261k entries) slower, 11 -> 13
# ms, a 1023-word one (1M) 20% faster, 31 -> 25 ms, and a 2047-word one
# a third faster, 114 -> 77 ms
_RUN_ENTRIES = 1 << 19


def weighted_operator_norm(matrix, weights: np.ndarray) -> tuple[float, float]:
    """Certified interval (bottom, top) around the operator norm of the
    matrix on l2 with the given vertex weights, from one Collatz-Wielandt
    step.  Dense input is converted to CSR.

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
    m = sp.csr_matrix(matrix, dtype=float)
    data = m.data * np.repeat(w, np.diff(m.indptr))
    data *= (1.0 / w)[m.indices]
    a = sp.csr_matrix((data, m.indices, m.indptr), shape=m.shape)
    signed = a.data.min(initial=0.0) < 0.0
    b = abs(a) if signed else a
    ones = np.ones(a.shape[0])
    u = b @ ones
    bottom = float(np.linalg.norm(a @ ones if signed else u) / np.linalg.norm(ones))
    top = math.sqrt((b.T @ u).max()) * (1.0 + 1e-12)
    return bottom, top


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

    def diagonal_bound_gap(self) -> float:
        """max over the solved v of G(v,v) - 1/(1 - lam), lam the walk's norm
        bound; nonpositive when the diagonal bound holds."""
        diag = self.green[np.arange(len(self.rows)), self.walk.positions(self.rows)]
        return float(diag.max() - 1.0 / (1.0 - self.walk.norm_bound))


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
    rows = np.unique(np.append(np.asarray(sources, dtype=np.int64), walk.codes[0]))
    return _green_solve(walk, rows, solver_tol)


def _green_solve(walk: TransitionMatrix, rows: np.ndarray, solver_tol: float) -> KernelTable:
    """The one solver core: the Green rows of ``rows`` (sorted heap indices
    of domain words).

    It solves (I - W)^T X = E for the unit columns E of the rows' positions;
    X holds the rows as columns, and X^T is the table.  The columns are solved
    in panels of _PANEL, each with its residual W^T X - X + E and its diagonal
    taken before it is stored, so no n x n right-hand side, residual or copy is
    formed; both gates cover every column.  The panels are split into runs,
    one per usable CPU, at most one per panel and per _RUN_ENTRIES entries of
    X; the caller solves the first and a thread pool the others.  The norm
    top, one Collatz-Wielandt step, guards the solve and bounds the
    certificate's last term.  Raises ValueError for a row outside the
    domain and when the top reaches 1 - NORM_GUARD (invalid input), and
    RuntimeError when the worst residual exceeds the tolerance or a diagonal
    entry is not positive.
    """
    n = walk.size
    w = sp.csr_matrix(walk.matrix, dtype=float)
    if w.shape != (n, n):
        raise ValueError(f"matrix shape {w.shape} does not match domain size {n}")
    units, inside = locate(walk.codes, rows)
    if not inside.all():
        outside = [word(c) for c in np.unique(rows[~inside])]
        raise ValueError(f"Green rows asked for words outside the domain: {outside}")
    m = walk.haar_weights()
    norm_interval = weighted_operator_norm(w, m)
    top = norm_interval[1]
    if top >= 1.0 - NORM_GUARD:
        raise ValueError(f"operator norm bound {top} too close to 1; Green kernel unreliable")
    # W^T as the CSC view of W's arrays: its products add in the order of a
    # CSR copy, with no conversion
    a = w.T
    narrow = len(units) < n
    lu = _LeavesFirstLU(a, narrow)
    x = np.empty((n, len(units)), order="F")

    def solve_run(run: range) -> list[tuple[float, float]]:
        # one loop per run, not a call per panel: freeing a panel's arrays
        # before the next exist lets malloc trim the heap and fault it in
        # again (about 120k page faults at n = 4095)
        numbers = []
        for start in run:
            at = units[start:start + _PANEL]
            cols = np.arange(len(at))
            rhs = np.zeros((n, len(at)))
            rhs[at, cols] = 1.0
            panel = lu.solve(rhs)
            r = a @ panel
            r -= panel
            r += rhs
            numbers.append((np.abs(r).max(), panel[at, cols].min()))
            x[:, start:start + len(at)] = panel
        return numbers

    # the solves and products release the GIL.  Each worker solves one run of
    # consecutive panels into its own columns of x (a task per panel costs a
    # thread handoff each); the caller is the first worker, so a one-run solve
    # starts no thread, and the gates' numbers come back in panel order
    starts = range(0, len(units), _PANEL)
    # sched_getaffinity exists on Linux only
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(starts), math.ceil(n * len(units) / _RUN_ENTRIES))
    runs = [starts[k * len(starts) // workers:(k + 1) * len(starts) // workers] for k in range(workers)]
    with ThreadPoolExecutor(workers) as pool:
        others = pool.map(solve_run, runs[1:])
        numbers = solve_run(runs[0]) + [pair for run in others for pair in run]
    residuals, diagonals = zip(*numbers)
    # np.max and np.min keep a NaN of any panel, and the negated comparisons fail it
    residual = float(np.max(residuals))
    if not residual <= solver_tol:
        raise RuntimeError(f"Green solve residual {residual} above tolerance {solver_tol}")
    # a certified relative bound below 1 certifies every sign of its rows; this
    # gate also covers the rows a full table leaves uncertified
    if not np.min(diagonals) > 0.0:
        raise RuntimeError("Green kernel diagonal not positive")
    certified = range(len(units)) if narrow else np.unique([0, (len(units) - 1) // 2, len(units) - 1])
    certificate = _Certificate(a, m, top, lu, narrow)
    # infinite at a zero entry; np.max keeps a NaN bound, as the gates' maxima do
    with np.errstate(divide="ignore"):
        bound = float(np.max([np.max(certificate.bounds(x[:, j], units[j]) / np.abs(x[:, j])) for j in certified]))
    # x is Fortran-ordered: its transpose is the C-ordered table, not a copy
    return KernelTable(walk, rows, x.T, residual, norm_interval, bound)


class _LeavesFirstLU:
    """SuperLU factors of I - W, for a sparse W on a domain of sorted heap
    indices (the Green solve passes the walk's W^T), eliminated in reversed
    domain order with SuperLU's partial pivoting, in panels of one column
    when ``narrow`` (see above); ``solve`` takes and returns domain order."""

    def __init__(self, w, narrow: bool = False):
        n = w.shape[0]
        c = w.tocsc()
        # column j of the reversed W is column n - 1 - j of W with its rows
        # mirrored, so sorted rows stay sorted
        reversed_w = sp.csc_matrix(
            (c.data[::-1], n - 1 - c.indices[::-1], c.indptr[-1] - c.indptr[::-1]), shape=(n, n)
        )
        a = sp.identity(n, format="csc") - reversed_w
        # SuperLU copies its input: hold no other n-sized array while it factors
        del c, reversed_w
        self.lu = splu(a, permc_spec="NATURAL", panel_size=1 if narrow else None)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs[::-1])[::-1]


class _Certificate:
    """Entrywise bounds on the error of solved columns x of (I - A) x = e,
    A = W^T of norm at most ``top`` < 1 on the dual weights 1/m (Rump, Acta
    Numerica 19, 2010; gamma_k = k u / (1 - k u), u the unit roundoff, from
    Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3).

    r = |fl(e - (x - Ax))| + gamma_k (|A||x| + |x| + e), k the largest row
    count of A plus 2, bounds the residual, and |(I - A)^-1| <= (I - |A|)^-1
    makes (I - |A|)^-1 r an error bound.  Two solves with the held factor (a
    factor of I - |A| when A has a negative entry) bound that entrywise, each
    residual bounded like r; the image of the last is at most its norm on the
    dual weights over 1 - top, times sqrt(m_i) at entry i.  With one solve
    that term, about u^2 times the largest entry, made G = 5e-20 (ball 8,
    mu(a) = 0.85) 1e-10 relative.  1 + gamma_(n + 3k + 25) covers the bound's
    own roundings: k + 5 per residual bound, n + 2 in the norm, a few after."""

    def __init__(self, a, weights: np.ndarray, top: float, lu: _LeavesFirstLU, narrow: bool):
        signed = a.data.min(initial=0.0) < 0.0
        self.a, self.abs_a = a, abs(a) if signed else a
        self.lu = _LeavesFirstLU(self.abs_a, narrow) if signed else lu
        n, u = a.shape[0], np.finfo(float).eps / 2
        k = int(np.bincount(a.indices, minlength=n).max(initial=0)) + 2
        self.gamma = k * u / (1.0 - k * u)
        self.widen = 1.0 + (n + 3 * k + 25) * u / (1.0 - (n + 3 * k + 25) * u)
        self.scale, self.top = np.sqrt(weights), top

    def bounds(self, x: np.ndarray, unit: int) -> np.ndarray:
        """Bounds on |G - x| entrywise, x the solved column at index ``unit``."""
        r = np.zeros_like(x)
        r[unit] = 1.0
        r = self._residual_bound(self.a, x, r)
        bound = np.zeros_like(x)
        for _ in range(2):
            y = self.lu.solve(r)
            r = self._residual_bound(self.abs_a, y, r)
            bound += np.abs(y, out=y)
        bound += np.linalg.norm(r / self.scale) / (1.0 - self.top) * self.scale
        return bound * self.widen

    def _residual_bound(self, a, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """|fl(b - (x - a x))| + gamma_k (|A||x| + |x| + b), for b >= 0."""
        abs_x = np.abs(x)
        return np.abs(a @ x - x + b) + self.gamma * (self.abs_a @ abs_x + abs_x + b)


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


@dataclass
class HarnackReport:
    empirical_delta: float
    delta_bound: float


def _interior_block(table: KernelTable, interior) -> tuple[np.ndarray, np.ndarray]:
    """G(s, t) and the tree distance d(s, t) over the interior words, given
    by heap indices, from the table's rows; fewer than two words leave no
    pair to compare and raise Shortfall."""
    codes = np.asarray(interior, dtype=np.int64)
    if len(codes) < 2:
        raise Shortfall(len(codes), 2, "interior words")
    g = table.green[np.ix_(table.row_positions(codes), table.walk.positions(codes))]
    return g, tree_distances(codes[:, None], codes[None, :])


def harnack_audit(table: KernelTable, delta0: float, k_steps: int, interior) -> HarnackReport:
    """Exhaustive scan of the two Harnack inequalities over interior triples
    (the interior given by heap indices); the empirical delta is the largest
    constant that passes, compared against the chain bound delta0^K."""
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
    return HarnackReport(worst, delta0 ** k_steps)


@dataclass
class MultiplicativityReport:
    c1_lower: float
    c1_upper: float
    lower_bound: float
    upper_bound: float


def multiplicativity_audit(table: KernelTable, delta: float, interior) -> MultiplicativityReport:
    """Measure both geodesic multiplicativity constants over interior triples
    s, t with v on the geodesic (the interior given by heap indices): the largest G(s,v)G(v,t)/G(s,t) against
    1/(1-lam) and the largest G(s,t)/(G(s,v)G(v,t)) against 3(2/delta^2)^(S-1),
    with lam the norm bound and S the range of the table's walk."""
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
    return MultiplicativityReport(c_lower, c_upper, 1.0 / (1.0 - table.walk.norm_bound),
                                  3.0 * (2.0 / delta ** 2) ** (table.walk.range_bound - 1))


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
    outside = np.flatnonzero(~ends_with(walk.codes, x))
    cut = entry_set(branch_table.walk.codes, walk.range_bound)
    si = full_table.row_positions([s])[0]
    # M(s, .) = sum over outside v of G(s, v) P(v, .)
    m_s = walk.matrix[outside].T @ full_table.green[si, outside]
    lhs = full_table.green_entry(s, t)
    rhs = 0.0
    for u, i in zip(cut.tolist(), walk.positions(cut).tolist()):
        rhs += float(m_s[i]) * branch_table.green_entry(u, t)
    return abs(lhs - rhs) / lhs


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
