"""Perturbed transition weights on a branch: the one-step coefficients of the
quantum walk on the spectral component attached to y = bar(z) z.

For a point mass at u the coefficient is the normalized trace

    qhat_u(s, t) = tr[(i_u (x) V(s, s(x)y)*) (V(t, u(x)s) (x) i_y)
                      V(t, t(x)y) V(t, u(x)s)*]

over the block H_u (x) H_s, which is real, dominated entrywise by the
classical weights, and exponentially close to them far from the root.
Wherever the cut rule (exact_by_cut) applies the coefficient is the classical
weight itself, so the branch walk is the classical branch walk with its matrix
less a correction on the traced entries, a few per level.  The classical
branch walk is BranchContext.walk, which every function here reads.  Both are
numpy CSR arrays (fusion.CSR), the correction summed from its traced entries
as COO arrays, and both feed the same Green-kernel solver.  The perturbed
walk keeps the classical measure, whose norm bound also bounds it
(|qhat| <= p).  The walks name their words by heap index; the coefficients
are traced on the intertwiner stack, which works on strings, so the
branch's heap indices are converted to words where the entries are listed
(required_entries).
The two audit functions, decay_audit and gdif_audit, return measurements
only: the rate and envelopes they are compared with are computed beside
their entries of the audit table (cli.AUDITS, cli._stages).  oracle_bytes
sizes the audit's qhat_oracle pass from word lengths alone, so an audit
over ORACLE_BUDGET is refused before it allocates.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .fusion import CSR, Measure, TransitionMatrix, csr_from_entries, fuse
from .intertwiners import Intertwiner, IntertwinerEngine, kron_apply, split_component
from .kernels import SOLVER_TOL, KernelTable, Shortfall, green_table
from .words import _l2, branch, classical_dim, code_lengths, heap_index, involution, qdim, word

RESIDUAL_FLOOR = 1e-12
DOMINATION_TOL = 1e-12
#: source lengths with a residual above the floor that decay_audit needs for its fit
MIN_DECAY_LENGTHS = 4


class BranchContext:
    """Branch data for one z: the word y = bar(z) z and the classical walk on
    the truncated branch, restricted from a walk at the engine's q whose domain
    holds it.  Computed coefficients live in the engine's memo."""

    def __init__(self, engine: IntertwinerEngine, walk: TransitionMatrix, z: str, radius: int):
        if not z:
            raise ValueError("branch word z must be nonempty")
        omega = branch(z, radius)
        if len(omega) < 2:
            raise ValueError(
                f"branch of {z!r} truncated at radius {radius} has {len(omega)} words; "
                f"increase the radius or the tensor cap"
            )
        if walk.q != engine.q:
            raise ValueError(f"walk at q = {walk.q!r} on an engine at q = {engine.q!r}")
        self.engine = engine
        self.walk = walk.restrict(omega)
        self.q = walk.q
        self.z = z
        self.y = involution(z) + z
        self.radius = radius

    def contains(self, w: str) -> bool:
        return w.endswith(self.z)


def exact_by_cut(u: str, s: str, t: str, z: str) -> bool:
    """True when a repeated letter of s separates the cancellation with u
    from the action of y = bar(z) z, so that qhat_u(s, t) = p exactly.

    Let c = (|u| + |s| - |t|) / 2 be the number of letters u cancels off the
    front of s, and call j a cut of s when s[j-1] == s[j].  A cut is a
    junction no cancellation crosses, so with s0 = s[:j], s1 = s[j:] the
    fusion rules give H_s = H_s0 (x) H_s1, and the isometry V(s, s0(x)s1) is
    unitary.  The rule holds when some cut j has

        c < j <= |s| - |z|.

    The left bound keeps the cancellation with u inside s0: then t = t0 s1
    with t0 a component of u (x) s0, the junction of t0 and s1 is again a cut,
    and V(t, u(x)s) = V(t0, u(x)s0) (x) i_s1 up to the unitaries of the two
    cuts.  The right bound keeps y, which cancels at most |z| letters off the
    end of s, inside s1: then V(s, s(x)y) = i_s0 (x) V(s1, s1(x)y) and
    V(t, t(x)y) = i_t0 (x) V(s1, s1(x)y) alike.  Both trace routes
    H_t -> H_u (x) H_s (x) H_y are then the same tensor product of
    V(t0, u(x)s0) with V(s1, s1(x)y), so the commutation defect is 0 and
    qhat = p = dim_q t / (dim_q u dim_q s).  Neither bound can be dropped:
    a cut inside the cancellation, or one inside the reach of y, leaves the
    routes apart.  qhat_oracle never uses this rule, so the qhat_oracle audit
    checks it against the full trace on every entry of its branch.
    """
    c = (len(u) + len(s) - len(t)) // 2
    return any(s[j - 1] == s[j] for j in range(c + 1, len(s) - len(z) + 1))


def qhat_entry(u: str, s: str, t: str, ctx: BranchContext) -> float:
    """Coefficient of the branch walk for the point mass at u, from s to t.

    Zero unless t is a component of u (x) s; the empty u gives the identity.
    Entries the cut rule decides (exact_by_cut) are the classical weight p,
    with no memo lookup and no tensor-cap check.  Every other coefficient is
    traced once per engine and memoized under ("qhat", z, u, s, t), after the
    domination check passes.  Raises TensorCapError when the trace block
    would exceed the cap.
    """
    if not (ctx.contains(s) and ctx.contains(t)):
        raise ValueError(f"{s!r}, {t!r} must lie in the branch of {ctx.z!r}")
    if not u:
        return 1.0 if s == t else 0.0
    if t not in fuse(u, s):
        return 0.0
    dominator = qdim(t, ctx.q) / (qdim(u, ctx.q) * qdim(s, ctx.q))
    if exact_by_cut(u, s, t, ctx.z):
        return dominator

    def trace() -> float:
        v_us, v_sy, route_b, d_u = _isometries(u, s, t, ctx)
        composite = kron_apply(v_sy.T, route_b, left=d_u) @ v_us.T
        value = ctx.engine.weighted_trace(Intertwiner((u, s), (u, s), composite))
        if abs(value) > dominator + DOMINATION_TOL:
            raise AssertionError(
                f"coefficient {value} exceeds the classical weight {dominator} at ({u!r},{s!r},{t!r})"
            )
        return value

    return ctx.engine._memo(("qhat", ctx.z, u, s, t), trace)


def _isometries(u: str, s: str, t: str, ctx: BranchContext):
    """V(t, u(x)s), V(s, s(x)y), route B of trace_routes and dim u, once
    the block H_u (x) H_s (x) H_y is checked against the tensor cap."""
    eng = ctx.engine
    eng.check_cap(u + s + ctx.y)
    v_us, v_ty = eng.normalized_V(t, u, s), eng.normalized_V(t, t, ctx.y)
    route_b = kron_apply(v_us, v_ty, right=eng.irr_dim(ctx.y))
    return v_us, eng.normalized_V(s, s, ctx.y), route_b, eng.irr_dim(u)


def trace_routes(u: str, s: str, t: str, ctx: BranchContext) -> tuple[np.ndarray, np.ndarray]:
    """The two isometric routes H_t -> H_u (x) H_s (x) H_y whose overlap is
    the coefficient qhat_u(s, t):

        A = (i_u (x) V(s, s(x)y)) V(t, u(x)s),   B = (V(t, u(x)s) (x) i_y) V(t, t(x)y).

    Requires a nonempty u with t a component of u (x) s, and the block within
    the tensor cap.
    """
    if not (ctx.contains(s) and ctx.contains(t)):
        raise ValueError(f"{s!r}, {t!r} must lie in the branch of {ctx.z!r}")
    if not u or t not in fuse(u, s):
        raise ValueError(f"{t!r} is not a component of {u!r} (x) {s!r}")
    v_us, v_sy, route_b, d_u = _isometries(u, s, t, ctx)
    return kron_apply(v_sy, v_us, left=d_u), route_b


def commutation_defect(u: str, s: str, t: str, ctx: BranchContext) -> float:
    """Operator-norm gap eps = |A - B| between the two trace routes.

    A and B are isometric intertwiners out of the irreducible H_t, so
    A^T B = c 1 (Schur) and (A - B)^T (A - B) = (2 - 2c) 1.  Hence the
    Frobenius norm over sqrt(dim t) is the operator norm, and

        p - qhat_u(s, t) = p eps^2 / 2,   p = dim_q t / (dim_q u dim_q s):

    the perturbation residual is second order in the commutation defect.
    """
    route_a, route_b = trace_routes(u, s, t, ctx)
    return _l2(route_a - route_b) / math.sqrt(route_a.shape[1])


def qhat_oracle(u: str, s: str, t: str, ctx: BranchContext) -> tuple[float, float]:
    """Independent evaluation: apply the partial trace over u to the evolved
    one-point section and project onto V(s, s(x)y).  Returns the coefficient
    and the residual of the projection."""
    if not u:
        return (1.0 if s == t else 0.0), 0.0
    if t not in fuse(u, s):
        return 0.0, 0.0
    eng = ctx.engine
    v_us, v_sy, evolved, d_u = _isometries(u, s, t, ctx)
    # route B of trace_routes, then back along V(t, u(x)s)*; rebinding frees route B
    evolved = (evolved @ v_us.T).reshape(d_u, -1, d_u, eng.irr_dim(s))
    partial = np.einsum("ba,bYaS->YS", eng.rho_weight(u), evolved, optimize=True) / eng.qdim(u)
    coeff = float(np.sum(partial * v_sy) / np.sum(v_sy * v_sy))
    residual = _l2(partial - coeff * v_sy)
    return coeff, residual


def required_entries(ctx: BranchContext) -> list[tuple[str, str, str]]:
    """All (u, s, t) coefficient triples needed to assemble the perturbed
    branch matrix of the walk's measure on the truncated branch, as words for
    the intertwiner stack, in the order of the branch's heap indices."""
    return _entries_on(ctx.walk.codes, ctx.walk.mu)


def _entries_on(codes: np.ndarray, mu: Measure) -> list[tuple[str, str, str]]:
    """required_entries on the domain of the given heap indices."""
    codes, support = codes.tolist(), mu.dual().support
    inside = set(codes)
    return [(u, t, s) for t in map(word, codes) for u in support for s in fuse(u, t) if heap_index(s) in inside]


#: bytes the audit's qhat_oracle pass may hold by oracle_bytes.  Measured
#: peak RSS of `audit` is about 50 MiB plus twice the estimate: 57 MiB on the
#: example config (estimate 6 MiB), 77 MiB on tests/golden/range2.json (2
#: MiB), 147 MiB at cap 11, ball 10 (35 MiB) and 492 MiB at cap 12, ball 9
#: (224 MiB).  So this budget keeps an audit near 600 MiB; cap 13, ball 10
#: (1459 MiB) and cap 14, ball 11 (9692 MiB, which ran out of memory) are refused
ORACLE_BUDGET = 256 << 20


class OracleBudgetError(RuntimeError):
    """The audit's qhat_oracle pass would hold more than ORACLE_BUDGET bytes
    (oracle_bytes): a resource cap, raised before the pass allocates, and
    exit 3 like a TensorCapError."""

    def __init__(self, need: int):
        super().__init__(f"the qhat_oracle pass would hold about {need >> 20} MiB of bases and arrays, "
                         f"over its budget of {ORACLE_BUDGET >> 20} MiB")


def oracle_bytes(n: int, mu: Measure, z: str, radius: int) -> int:
    """The bytes the audit's qhat_oracle pass over the branch of z, with the
    qhat_entry traces it compares, would hold, from word lengths and
    classical dimensions alone: no basis is built.  It counts the memoised
    ambient bases, n^len(w) x dim(w) floats, of every word whose basis its
    isometries V(t, u(x)s), V(t, t(x)y) and V(s, s(x)y) read (the split
    words of each, the suffixes of the cancelled word and the prefixes of
    its involution, which the duality vectors nest through), closed under
    prefixes as basis builds them, and its largest per-entry array, the
    (dim u dim s)^2 dim y floats of qhat_oracle's evolved route."""
    y = involution(z) + z
    built, largest = set(), 0
    for u, s, t in _entries_on(branch(z, radius), mu):
        if not u:
            continue
        built |= {u, s, t, y}
        for head, v, tail in (split_component(t, u, s), split_component(t, t, y), split_component(s, s, y)):
            vbar = involution(v)
            built |= {head, tail, head + v, vbar + tail}
            built |= {v[i:] for i in range(len(v))} | {vbar[:i] for i in range(1, len(vbar) + 1)}
        largest = max(largest, (classical_dim(u, n) * classical_dim(s, n)) ** 2 * classical_dim(y, n))
    closure = {w[:k] for w in built for k in range(len(w) + 1)}
    return 8 * (sum(n ** len(w) * classical_dim(w, n) for w in closure) + largest)


def q_matrix(ctx: BranchContext) -> TransitionMatrix:
    """The perturbed walk on the truncated branch: a copy of the classical
    branch walk ctx.walk whose matrix loses the correction p - qhat on the
    traced entries, so qhat_entry runs only where the cut rule does not
    decide.  ctx.walk is left as it is.  Fails loudly, listing the offending
    entries, when a traced coefficient exceeds the tensor cap."""
    walk = copy.copy(ctx.walk)
    p, correction = ctx.walk.matrix, _traced(ctx, lambda u, s, t, p: p - qhat_entry(u, s, t, ctx))
    # P - correction as scipy subtracts two canonical CSRs: p + (-c) is p - c
    # to the bit, and an entry that cancels to zero is not stored
    walk.matrix = csr_from_entries(np.concatenate([p.rows(), correction.rows()]),
                                   np.concatenate([p.indices, correction.indices]),
                                   np.concatenate([p.data, -correction.data]), p.shape, drop_zeros=True)
    return walk


def residual_matrix(ctx: BranchContext) -> CSR:
    """The perturbation residual p - qhat on the truncated branch, with the
    weights of q_matrix, built entry by entry as p eps^2 / 2 from the
    commutation defect (see commutation_defect) rather than as a difference of
    O(1) numbers, so small residuals keep their relative accuracy.  Entries
    the cut rule decides (exact_by_cut) have residual 0 and are not stored."""
    return _traced(ctx, lambda u, s, t, p: p * commutation_defect(u, s, t, ctx) ** 2 / 2)


def _traced(ctx: BranchContext, term) -> CSR:
    """The branch matrix with entry (t, s) = sum over u of
    mud(u) (m_s / m_t)^2 term(u, s, t, p), p = m_t / (m_u m_s), over the
    traced entries: the required ones with nonempty u that the cut rule leaves
    to the trace.  The cap is checked on all of them up front."""
    traced = [(u, s, t) for (u, s, t) in required_entries(ctx) if u and not exact_by_cut(u, s, t, ctx.z)]
    ctx.engine.check_cap(*(u + s + ctx.y for (u, s, t) in traced))
    walk, mud, q = ctx.walk, ctx.walk.mu.dual(), ctx.q
    rows = walk.positions([heap_index(t) for (u, s, t) in traced])
    cols = walk.positions([heap_index(s) for (u, s, t) in traced])
    vals = []
    for u, s, t in traced:
        m_s, m_t = qdim(s, q), qdim(t, q)
        p = m_t / (qdim(u, q) * m_s)
        vals.append(mud.weight(u) * (m_s / m_t) ** 2 * term(u, s, t, p))
    # the terms at one entry are summed in the order traced, and a sum of 0.0 is not stored
    return csr_from_entries(rows, cols, vals, (walk.size, walk.size), drop_zeros=True)


def decay_audit(resid, ctx: BranchContext) -> tuple[list[int], list[float], float]:
    """The decay of the perturbation residual against the source length: the
    source lengths, the largest residual at each, and the least-squares slope
    of the logs of those maxima.

    ``resid`` is the branch matrix of p - qhat from residual_matrix: each
    entry is a sum of p eps^2 / 2 terms, formed without cancellation, so the
    fit reads the residual itself and not the round-off of qhat - p.  Residuals
    below the floor are discarded.  Fewer than MIN_DECAY_LENGTHS lengths above
    the floor raise Shortfall.
    """
    per_length: dict[int, float] = {}
    row_lengths = code_lengths(ctx.walk.codes)[resid.rows()].tolist()
    for length, value in zip(row_lengths, resid.data.tolist()):
        if value > RESIDUAL_FLOOR:
            per_length[length] = max(per_length.get(length, 0.0), value)
    if len(per_length) < MIN_DECAY_LENGTHS:
        raise Shortfall(len(per_length), MIN_DECAY_LENGTHS, "lengths with usable residuals")
    lengths = sorted(per_length)
    maxima = [per_length[l] for l in lengths]
    slope, _ = np.polyfit(lengths, np.log(maxima), 1)
    return lengths, maxima, float(slope)


def green_Q(ctx: BranchContext, solver_tol: float = SOLVER_TOL) -> tuple[TransitionMatrix, KernelTable]:
    """The perturbed walk (q_matrix) and its Green kernel on the truncated
    branch, through the same solver as the classical tables (raising
    RuntimeError when the solve residual exceeds ``solver_tol``)."""
    walk = q_matrix(ctx)
    return walk, green_table(walk, solver_tol=solver_tol)


def gdif_audit(
    q_walk: TransitionMatrix, ctx: BranchContext, x_list: list[str], solver_tol: float = SOLVER_TOL,
) -> list[float]:
    """Per word x, the largest relative gap between the Green kernels of the
    perturbed walk (``q_walk``, from q_matrix) and the classical branch walk
    ctx.walk, each restricted to the sub-branch of x.  Raises Shortfall on an
    empty list; each sub-branch solve raises RuntimeError above ``solver_tol``."""
    if not x_list:
        raise Shortfall(0, 1, "sub-branch words")
    rels = []
    for x in x_list:
        if not x.endswith(ctx.z):
            raise ValueError(f"{x!r} does not lie in the branch of {ctx.z!r}")
        sub = branch(x, ctx.radius)
        if len(sub) < 2:
            raise ValueError(f"sub-branch of {x!r} too small at radius {ctx.radius}")
        g_q = green_table(q_walk.restrict(sub), solver_tol=solver_tol)
        g_p = green_table(ctx.walk.restrict(sub), solver_tol=solver_tol)
        rels.append(float((np.abs(g_q.green - g_p.green) / g_p.green).max()))
    return rels
