"""Green and Martin kernels of substochastic matrices on tree domains,
and the quantitative audits of their tree-geometry estimates.

The Green kernel of a walk (a fusion.TransitionMatrix, which carries its
weight matrix W, words, heap indices, word -> position map and norm bound)
whose W has spectral norm < 1 on the qdim^2-weighted l2 space is the
resolvent (I - W)^-1, by sparse LU throughout: one factorisation of I - W
gives the full table (green_table, up to DENSE_LIMIT words, a memory bound) or
the rows of chosen sources and the base (green_rows), both as a KernelTable
that carries its walk, gated by the solve residual and checked against a
truncated Neumann series whose tail is bounded by the walk's norm bound.  The
unit right-hand sides are solved in panels of a few columns, each checked as
it is solved, so the full table costs one n x n array, the table itself.
The audits read words, heap indices and the range from the table's walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .fusion import TransitionMatrix
from .words import EMPTY, code_lengths, heap_index, qdim, qdims, tree_distance, tree_distances

# largest domain of green_table: its table is one n x n float array (about
# 135 MiB at the limit), solved in panels with no n x n temporaries
DENSE_LIMIT = 4200
SOLVER_TOL = 1e-10
NORM_GUARD = 1e-6
# unit columns per solve in _green_solve: 8-32 were fastest at n = 4095,
# and the panel temporaries stay a few n-vectors wide
_PANEL = 16


def weighted_operator_norm(matrix, weights: np.ndarray, iters: int = 600, tol: float = 1e-13) -> float:
    """Operator norm of the matrix on l2 with the given vertex weights,
    by power iteration on the symmetrized conjugate; deterministic start,
    converges to the norm from below.  Dense input is converted to CSR."""
    w = np.sqrt(np.asarray(weights, dtype=float))
    a = (sp.diags(w) @ sp.csr_matrix(matrix, dtype=float) @ sp.diags(1.0 / w)).tocsr()
    at = a.T.tocsr()
    v = np.ones(a.shape[0]) / math.sqrt(a.shape[0])
    est = 0.0
    for _ in range(iters):
        u = at @ (a @ v)
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            return 0.0
        v = u / nrm
        new = math.sqrt(nrm)
        if abs(new - est) <= tol * max(new, 1.0):
            return new
        est = new
    return est


@dataclass
class KernelTable:
    """Green kernel G(s, t) of a walk for the solved words s (``rows``, by
    default the walk's domain) and every t of the walk's domain, in its
    order; Martin kernels (martin_rows) are normalized at ``base``, which is
    always solved."""

    walk: TransitionMatrix = field(repr=False)
    base: str
    green: np.ndarray
    residual: float
    power_norm: float
    neumann_gap: float | None = None
    rows: list[str] | None = None
    row_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        domain = self.walk.domain
        self.rows = domain if self.rows is None else self.rows
        self.row_index = self.walk.index if self.rows is domain else {w: i for i, w in enumerate(self.rows)}
        if self.base not in self.row_index:
            raise ValueError(f"base {self.base!r} not in domain")

    @property
    def size(self) -> int:
        return self.walk.size

    def source_rows(self, sources: list[str]) -> np.ndarray:
        """The Green rows G(s, .) of the given solved words, one per source."""
        missing = [s for s in sources if s not in self.row_index]
        if missing:
            raise ValueError(f"no solved Green row for {missing}")
        return self.green[[self.row_index[s] for s in sources]]

    def green_entry(self, s: str, t: str) -> float:
        return float(self.green[self.row_index[s], self.walk.index[t]])

    def diagonal_bound_gap(self) -> float:
        """max over the solved v of G(v,v) - 1/(1 - lam), lam the walk's norm
        bound; nonpositive when the diagonal bound holds."""
        diag = self.green[np.arange(len(self.rows)), [self.walk.index[v] for v in self.rows]]
        return float(diag.max() - 1.0 / (1.0 - self.walk.norm_bound))


def green_table(walk: TransitionMatrix, base: str = EMPTY, solver_tol: float = SOLVER_TOL) -> KernelTable:
    """Solve (I - W) G = I for the walk's weights W on its domain.

    Raises if the power-iteration norm on the weighted l2 space reaches
    1 - 1e-6 (invalid input) or if the solve residual exceeds the tolerance.
    """
    if walk.size > DENSE_LIMIT:
        raise ValueError(f"domain of size {walk.size} exceeds the dense solver limit {DENSE_LIMIT}")
    green, residual, power_norm, gap = _green_solve(walk, solver_tol)
    return KernelTable(walk, base, green, residual, power_norm, gap)


def green_rows(
    walk: TransitionMatrix, sources: list[str], base: str = EMPTY, solver_tol: float = SOLVER_TOL
) -> KernelTable:
    """The Green rows of the sources and of the base, on a domain of any
    size: one transposed solve per distinct word.

    Raises ValueError for a word outside the domain, and like green_table on
    the norm guard and when the worst row residual exceeds the tolerance.
    """
    rows = list(dict.fromkeys(list(sources) + [base]))
    missing = [s for s in rows if s not in walk.index]
    if missing:
        raise ValueError(f"Green rows asked for words outside the domain: {missing}")
    solved, residual, power_norm, gap = _green_solve(walk, solver_tol, [walk.index[s] for s in rows])
    return KernelTable(walk, base, np.ascontiguousarray(solved.T), residual, power_norm, gap, rows=rows)


def _green_solve(
    walk: TransitionMatrix, solver_tol: float, rows: list[int] | None = None
) -> tuple[np.ndarray, float, float, float]:
    """The one solver core behind green_table and green_rows.

    With ``rows`` None it solves (I - W) X = I for the full table; with a
    list of domain indices it solves (I - W)^T X = E, whose columns are the
    Green rows at those indices.  Both are columns of (I - A)^-1 with A = W on
    the weights m = qdim^2, or A = W^T on the dual weights 1/m, where the norm
    is the same.  The unit columns are solved in panels of _PANEL, each with
    its residual A X - X + E and its diagonal taken before it is stored, so no
    n x n right-hand side, residual or copy is formed; both gates cover every
    column.  Returns (X, residual, power-iteration norm, Neumann gap).
    """
    n = walk.size
    w = sp.csr_matrix(walk.matrix, dtype=float)
    if w.shape != (n, n):
        raise ValueError(f"matrix shape {w.shape} does not match domain size {n}")
    m = walk.haar_weights()
    power_norm = weighted_operator_norm(w, m)
    if power_norm >= 1.0 - NORM_GUARD:
        raise ValueError(f"operator norm {power_norm} too close to 1; Green kernel unreliable")
    lu = splu(sp.identity(n, format="csc") - w.tocsc())
    if rows is None:
        # the Neumann check samples three columns of the table
        a, weights, units, trans, checked = w, m, np.arange(n), "N", sorted({0, (n - 1) // 2, n - 1})
    else:
        a, weights, units, trans, checked = w.T.tocsr(), 1.0 / m, np.asarray(rows), "T", slice(None)
    x = np.empty((n, len(units)), order="F")
    residuals, diagonals = [], []
    for start in range(0, len(units), _PANEL):
        at = units[start:start + _PANEL]
        cols = np.arange(len(at))
        rhs = np.zeros((n, len(at)))
        rhs[at, cols] = 1.0
        panel = lu.solve(rhs, trans=trans)
        r = a @ panel
        r -= panel
        r += rhs
        residuals.append(np.abs(r).max())
        diagonals.append(panel[at, cols].min())
        x[:, start:start + len(at)] = panel
    # np.max and np.min keep a NaN of any panel, as one max over the table did
    residual = float(np.max(residuals))
    if residual > solver_tol:
        raise RuntimeError(f"Green solve residual {residual} above tolerance {solver_tol}")
    if np.min(diagonals) <= 0.0:
        raise RuntimeError("Green kernel diagonal not positive")
    # the tail estimate needs an upper bound on the norm, the walk's
    # certificate: power iteration approaches the norm from below
    gap = _neumann_gap(a, x[:, checked], units[checked], weights, walk.norm_bound)
    return x, residual, power_norm, gap


def _neumann_gap(a, cols: np.ndarray, units: np.ndarray, weights: np.ndarray, tail_norm: float) -> float:
    """Compare solved columns of (I - A)^-1, the ones at the given unit
    vectors, against the truncated Neumann series; returns the largest excess
    over the rigorous tail bound (<= 0 is a pass).  Entry i of column j is off
    by at most tail * sqrt(weights[j] / weights[i]) on the weighted space."""
    steps = min(600, max(40, int(math.ceil(math.log(1e-13) / math.log(tail_norm)))))
    vec = np.zeros_like(cols)
    vec[units, np.arange(len(units))] = 1.0
    acc = vec.copy()
    for _ in range(steps):
        vec = a @ vec
        acc += vec
    tail = tail_norm ** (steps + 1) / (1.0 - tail_norm)
    bound = tail * np.sqrt(weights[units][None, :] / weights[:, None]) + 1e-12
    return float((np.abs(cols - acc) - bound).max())


def truncation_error_bound(radius: int, s: str, t, walk: TransitionMatrix):
    """Rigorous bound on the truncation error of G(s, t) of the walk computed
    on the ball of the given radius: any escaping path needs at least
    N = ceil(2 (radius - max|s|,|t|) / range) steps, and the tail of the series
    is controlled by the walk's norm bound on the weighted space.

    ``t`` is a word, giving a float, or an array of heap indices, giving an
    array.
    """
    lam = walk.norm_bound
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    codes = np.array([heap_index(t)]) if isinstance(t, str) else np.asarray(t, dtype=np.int64)
    depth = radius - np.maximum(len(s), code_lengths(codes))
    if (depth < 0).any():
        raise ValueError("s and t must lie inside the ball")
    n_steps = np.ceil(2 * depth / walk.range_bound)
    bound = qdims(codes, walk.q) / qdim(s, walk.q) * lam ** n_steps / (1.0 - lam)
    return float(bound[0]) if isinstance(t, str) else bound


@dataclass
class HarnackReport:
    empirical_delta: float
    delta_bound: float
    passes: bool


def _interior_block(table: KernelTable, interior: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """G(s, t) and the tree distance d(s, t) over the interior words, from
    the table's rows and its walk's heap indices."""
    idx = [table.walk.index[w] for w in interior]
    codes = table.walk.codes[idx]
    g = table.green[np.ix_([table.row_index[w] for w in interior], idx)]
    return g, tree_distances(codes[:, None], codes[None, :])


def harnack_audit(table: KernelTable, delta0: float, k_steps: int, interior: list[str]) -> HarnackReport:
    """Exhaustive scan of the two Harnack inequalities over interior triples;
    the empirical delta is the largest constant that passes, compared against
    the chain bound delta0^K."""
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
    bound = delta0 ** k_steps
    return HarnackReport(worst, bound, worst >= bound * (1.0 - 1e-12))


@dataclass
class MultiplicativityReport:
    c1_lower: float
    c1_upper: float
    lower_bound: float
    upper_bound: float

    def verdicts(self) -> tuple[bool, bool]:
        """Whether the lower and the upper constant stay within their bounds."""
        return self.c1_lower <= self.lower_bound * (1 + 1e-12), self.c1_upper <= self.upper_bound * (1 + 1e-12)


def multiplicativity_audit(table: KernelTable, delta: float, interior: list[str]) -> MultiplicativityReport:
    """Measure both geodesic multiplicativity constants over interior triples
    s, t with v on the geodesic: the largest G(s,v)G(v,t)/G(s,t) against
    1/(1-lam) and the largest G(s,t)/(G(s,v)G(v,t)) against 3(2/delta^2)^(S-1),
    with lam the norm bound and S the range of the table's walk."""
    g, dist = _interior_block(table, interior)
    n = len(interior)
    c_lower = 0.0
    c_upper = 0.0
    for v in range(n):
        on_geo = dist[:, v][:, None] + dist[v, :][None, :] == dist
        prod = np.outer(g[:, v], g[v, :])
        ratio = np.where(on_geo, prod / g, 0.0)
        c_lower = max(c_lower, float(ratio.max()))
        inv = np.where(on_geo, g / prod, 0.0)
        c_upper = max(c_upper, float(inv.max()))
    return MultiplicativityReport(
        c1_lower=c_lower,
        c1_upper=c_upper,
        lower_bound=1.0 / (1.0 - table.walk.norm_bound),
        upper_bound=3.0 * (2.0 / delta ** 2) ** (table.walk.range_bound - 1),
    )


def entry_set(branch_domain: list[str], x: str, range_bound: int) -> list[str]:
    """The cut through which every path must enter the branch of x: branch
    vertices within the open ball of the walk range around x."""
    return [u for u in branch_domain if tree_distance(u, x) < range_bound]


def last_entry_audit(x: str, s: str, t: str, full_table: KernelTable, branch_table: KernelTable) -> float:
    """Relative residual of the last-entry decomposition
    G(s,t) = sum_u M(s,u) G_branch(u,t) over the entry cut of the branch of x,
    where M(s,u) sums paths of the walk of ``full_table`` whose final step
    enters the branch from outside.

    With the branch table truncated at the same radius as the full table the
    identity is exact up to solver error.
    """
    if s.endswith(x):
        raise ValueError("source must lie outside the branch")
    if not t.endswith(x):
        raise ValueError("target must lie inside the branch")
    walk = full_table.walk
    outside = [i for i, w in enumerate(walk.domain) if not w.endswith(x)]
    cut = entry_set(branch_table.walk.domain, x, walk.range_bound)
    si = full_table.row_index[s]
    # M(s, .) = sum over outside v of G(s, v) P(v, .)
    m_s = walk.matrix[outside].T @ full_table.green[si, outside]
    lhs = full_table.green_entry(s, t)
    rhs = 0.0
    for u in cut:
        rhs += float(m_s[walk.index[u]]) * branch_table.green_entry(u, t)
    return abs(lhs - rhs) / lhs


def ray_words(preperiod: str, period: str, suffix: str, depth: int) -> list[str]:
    """Finite truncations of the eventually periodic left-infinite word
    ...period period preperiod suffix, deepest last."""
    if not period:
        raise ValueError("period must be nonempty")
    out = []
    w = preperiod + suffix
    while len(w) <= depth:
        if w:
            out.append(w)
        w = period + w
    if not out:
        raise ValueError("ray does not reach the domain")
    return out


def martin_rows(
    table: KernelTable, sources: list[str], targets: list[str], root: KernelTable | None = None
) -> np.ndarray:
    """Martin kernel K(s, t) = G(s, t) / G_root(base, t), rows by source and
    columns by target.  The root table defaults to ``table``; the classical
    rows of the ball normalise the perturbed branch table.  Raises
    ValueError when a source has no solved row or a target lies outside
    either domain."""
    root = table if root is None else root
    try:
        cols = [table.walk.index[t] for t in targets]
        root_cols = cols if root.walk is table.walk else [root.walk.index[t] for t in targets]
    except KeyError as exc:
        raise ValueError(f"ray leaves the domain at {exc.args[0]!r}") from None
    denom = root.green[root.row_index[root.base], root_cols]
    # a zero G(e, t) leaves the Martin kernel undefined: raise, as float division does
    with np.errstate(divide="raise", invalid="raise"):
        return table.source_rows(sources)[:, cols] / denom[None, :]


def tail_decreasing(source: str, ray: list[str], values: np.ndarray, floor: float = 1e-11) -> bool:
    """True if past the junction of the source with the ray (its first
    closest point) the gaps |K(s, t_n+1) - K(s, t_n)| of the kernel values
    along the ray strictly decrease until they reach the numerical floor."""
    dists = [tree_distance(source, t) for t in ray]
    tail = np.abs(np.diff(values))[dists.index(min(dists)):]
    return not bool(np.any((tail[1:] >= tail[:-1]) & (tail[1:] > floor)))

