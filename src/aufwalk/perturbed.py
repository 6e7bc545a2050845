"""Perturbed transition weights on a branch: the one-step coefficients of the
quantum walk on the spectral component attached to y = bar(z) z.

For a point mass at u the coefficient is the normalized trace

    qhat_u(s, t) = tr[(i_u (x) V(s, s(x)y)*) (V(t, u(x)s) (x) i_y)
                      V(t, t(x)y) V(t, u(x)s)*]

over the block H_u (x) H_s, which is real, dominated entrywise by the
classical weights, and exponentially close to them far from the root.
Wherever the cut rule (exact_by_cut) applies the coefficient is the classical
weight itself, so the branch walk is the classical branch walk with its matrix
less a correction on the traced entries, a few per level.  Both are sparse,
and the perturbed walk feeds the same Green-kernel solver as the classical one.
It keeps the classical measure, whose norm bound also bounds the perturbed
walk (|qhat| <= p), so its Green solves and audits take no separate bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fusion import Measure, TransitionMatrix, fuse, transition_matrix
from .intertwiners import Intertwiner, IntertwinerEngine, TensorCapError, kron_apply
from .kernels import SOLVER_TOL, KernelTable, green_table
from .words import branch, involution, qdim

RESIDUAL_FLOOR = 1e-12
DOMINATION_TOL = 1e-12


class BranchContext:
    """Branch data for one z: the word y = bar(z) z and the truncated branch
    domain.  Computed coefficients live in the engine's memo."""

    def __init__(self, engine: IntertwinerEngine, z: str, radius: int):
        if not z:
            raise ValueError("branch word z must be nonempty")
        self.engine = engine
        self.z = z
        self.y = involution(z) + z
        self.radius = radius
        self.omega = branch(z, radius)
        if len(self.omega) < 2:
            raise ValueError(
                f"branch of {z!r} truncated at radius {radius} has {len(self.omega)} words; "
                f"increase the radius or the tensor cap"
            )
        self.index = {w: i for i, w in enumerate(self.omega)}

    @property
    def q(self) -> float:
        return self.engine.q

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
        eng = ctx.engine
        v_us, v_ty, v_sy = _isometries(u, s, t, ctx)
        d_u, d_y = eng.irr_dim(u), eng.irr_dim(ctx.y)
        composite = kron_apply(v_sy.T, kron_apply(v_us, v_ty, right=d_y), left=d_u) @ v_us.T
        value = eng.weighted_trace(Intertwiner((u, s), (u, s), composite))
        if abs(value) > dominator + DOMINATION_TOL:
            raise AssertionError(
                f"coefficient {value} exceeds the classical weight {dominator} at ({u!r},{s!r},{t!r})"
            )
        return value

    return ctx.engine._memo(("qhat", ctx.z, u, s, t), trace)


def _isometries(u: str, s: str, t: str, ctx: BranchContext):
    """V(t, u(x)s), V(t, t(x)y) and V(s, s(x)y) as arrays, once the block
    H_u (x) H_s (x) H_y is checked against the tensor cap."""
    eng = ctx.engine
    if len(u) + len(s) + len(ctx.y) > eng.cfg.tensor_cap:
        raise TensorCapError([u + s + ctx.y], eng.cfg.tensor_cap)
    return (
        eng.normalized_V(t, u, s).array,
        eng.normalized_V(t, t, ctx.y).array,
        eng.normalized_V(s, s, ctx.y).array,
    )


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
    v_us, v_ty, v_sy = _isometries(u, s, t, ctx)
    eng = ctx.engine
    d_u, d_y = eng.irr_dim(u), eng.irr_dim(ctx.y)
    return kron_apply(v_sy, v_us, left=d_u), kron_apply(v_us, v_ty, right=d_y)


def commutation_defect(u: str, s: str, t: str, ctx: BranchContext) -> float:
    """Operator-norm gap eps = |A - B| between the two trace routes.

    A and B are isometric intertwiners out of the irreducible H_t, so
    A^T B = c 1 (Schur) and (A - B)^T (A - B) = (2 - 2c) 1.  Hence the
    Frobenius norm over sqrt(dim t) is the operator norm, and

        p - qhat_u(s, t) = p eps^2 / 2,   p = dim_q t / (dim_q u dim_q s):

    the perturbation residual is second order in the commutation defect.
    """
    route_a, route_b = trace_routes(u, s, t, ctx)
    return float(np.linalg.norm(route_a - route_b) / math.sqrt(route_a.shape[1]))


def qhat_oracle(u: str, s: str, t: str, ctx: BranchContext) -> tuple[float, float]:
    """Independent evaluation: apply the partial trace over u to the evolved
    one-point section and project onto V(s, s(x)y).  Returns the coefficient
    and the residual of the projection."""
    if not u:
        return (1.0 if s == t else 0.0), 0.0
    if t not in fuse(u, s):
        return 0.0, 0.0
    eng = ctx.engine
    v_us, v_ty, v_sy = _isometries(u, s, t, ctx)
    d_u, d_s, d_y = eng.irr_dim(u), eng.irr_dim(s), eng.irr_dim(ctx.y)
    # route B of trace_routes, then back along V(t, u(x)s)*
    evolved = kron_apply(v_us, v_ty, right=d_y) @ v_us.T
    weight = eng.rho_weight(u)
    partial = np.einsum(
        "ba,bYaS->YS", weight, evolved.reshape(d_u, d_s * d_y, d_u, d_s), optimize=True
    ) / eng.qdim(u)
    coeff = float(np.sum(partial * v_sy) / np.sum(v_sy * v_sy))
    residual = float(np.linalg.norm(partial - coeff * v_sy))
    return coeff, residual


def required_entries(mu: Measure, ctx: BranchContext) -> list[tuple[str, str, str]]:
    """All (u, s, t) coefficient triples needed to assemble the branch matrix
    of mu on the truncated domain."""
    mud = mu.dual()
    out = []
    for t in ctx.omega:
        for u in mud.support:
            for s in fuse(u, t):
                if s in ctx.index:
                    out.append((u, t, s))
    return out


def q_matrix(mu: Measure, ctx: BranchContext) -> TransitionMatrix:
    """The perturbed walk on the truncated branch: the classical branch walk
    of mu, whose matrix loses the correction p - qhat on the traced entries,
    so qhat_entry runs only where the cut rule does not decide.  Fails
    loudly, listing the offending entries, when a traced coefficient exceeds
    the tensor cap."""
    walk = transition_matrix(mu, ctx.omega, ctx.q)
    walk.matrix = walk.matrix - _traced(mu, ctx, lambda u, s, t, p: p - qhat_entry(u, s, t, ctx))
    return walk


def residual_matrix(mu: Measure, ctx: BranchContext) -> sp.csr_matrix:
    """The perturbation residual p - qhat on the truncated branch, with the
    weights of q_matrix, built entry by entry as p eps^2 / 2 from the
    commutation defect (see commutation_defect) rather than as a difference of
    O(1) numbers, so small residuals keep their relative accuracy.  Entries
    the cut rule decides (exact_by_cut) have residual 0 and are not stored."""
    return _traced(mu, ctx, lambda u, s, t, p: p * commutation_defect(u, s, t, ctx) ** 2 / 2)


def _traced(mu: Measure, ctx: BranchContext, term) -> sp.csr_matrix:
    """The branch matrix with entry (t, s) = sum over u of
    mud(u) (m_s / m_t)^2 term(u, s, t, p), p = m_t / (m_u m_s), over the
    traced entries: the required ones with nonempty u that the cut rule leaves
    to the trace.  The cap is checked on all of them up front."""
    traced = [(u, s, t) for (u, s, t) in required_entries(mu, ctx) if u and not exact_by_cut(u, s, t, ctx.z)]
    cap = ctx.engine.cfg.tensor_cap
    blocked = [u + s + ctx.y for (u, s, t) in traced if len(u) + len(s) + len(ctx.y) > cap]
    if blocked:
        raise TensorCapError(blocked[:8], cap)
    mud, q = mu.dual(), ctx.q
    out = sp.dok_matrix((len(ctx.omega), len(ctx.omega)))
    for (u, s, t) in traced:
        m_s, m_t = qdim(s, q), qdim(t, q)
        p = m_t / (qdim(u, q) * m_s)
        out[ctx.index[t], ctx.index[s]] += mud.weight(u) * (m_s / m_t) ** 2 * term(u, s, t, p)
    return out.tocsr()


@dataclass
class DecayReport:
    """Per source length, the largest perturbation residual p - qhat (from
    residual_matrix), the least-squares slope of their logs, the least
    constant c with residual <= c q^len, and the rate log q they are
    compared with."""

    lengths: list[int]
    maxima: list[float]
    fitted_rate: float
    fitted_c: float
    target_rate: float
    n_pairs: int

    def envelope_gap(self) -> float:
        """Largest excess of a residual over fitted_c * q^len.

        fitted_c is the least constant over these same per-length maxima, so
        the gap is <= 0 by construction: it confirms the bookkeeping, not an
        envelope.  Checking a real envelope needs an a priori constant."""
        return max(
            m - self.fitted_c * math.exp(self.target_rate * l) * (1 + 1e-6)
            for l, m in zip(self.lengths, self.maxima)
        )


def decay_audit(resid, ctx: BranchContext) -> DecayReport:
    """Fit the decay of the perturbation residual against the source length.

    ``resid`` is the branch matrix of p - qhat from residual_matrix: each
    entry is a sum of p eps^2 / 2 terms, formed without cancellation, so the
    fit reads the residual itself and not the round-off of qhat - p.  Residuals
    below the floor are discarded; the envelope slope is fitted on the
    per-length maxima by least squares and compared with log q.
    """
    per_length: dict[int, float] = {}
    n_pairs = 0
    coo = sp.coo_matrix(resid)
    for i, value in zip(coo.row.tolist(), coo.data.tolist()):
        if value > RESIDUAL_FLOOR:
            length = len(ctx.omega[i])
            per_length[length] = max(per_length.get(length, 0.0), value)
            n_pairs += 1
    if len(per_length) < 4:
        raise ValueError(f"only {len(per_length)} lengths with usable residuals; need at least 4")
    lengths = sorted(per_length)
    maxima = [per_length[l] for l in lengths]
    slope, _ = np.polyfit(lengths, np.log(maxima), 1)
    q = ctx.q
    envelope_c = max(m / q ** l for l, m in zip(lengths, maxima))
    return DecayReport(
        lengths=lengths,
        maxima=maxima,
        fitted_rate=float(slope),
        fitted_c=float(envelope_c),
        target_rate=math.log(q),
        n_pairs=n_pairs,
    )


def green_Q(mu: Measure, ctx: BranchContext, solver_tol: float = SOLVER_TOL) -> tuple[TransitionMatrix, KernelTable]:
    """The perturbed walk (q_matrix) and its Green kernel on the truncated
    branch, through the same solver as the classical tables (raising
    RuntimeError when the solve residual exceeds ``solver_tol``)."""
    walk = q_matrix(mu, ctx)
    return walk, green_table(walk, base=ctx.z, solver_tol=solver_tol)


@dataclass
class GdifReport:
    """Per sub-branch word x, the largest relative gap of the two Green
    kernels; envelope_gap is the largest ratio of a gap to the envelope
    c q^len(x) anchored at the first word (<= 1 when every gap stays inside)."""

    x_list: list[str]
    max_rel: list[float]
    envelope_gap: float


def gdif_audit(
    q_walk: TransitionMatrix, ctx: BranchContext, p_walk: TransitionMatrix, x_list: list[str],
    solver_tol: float = SOLVER_TOL,
) -> GdifReport:
    """Relative gap between the Green kernels of the perturbed walk
    (``q_walk``, from q_matrix) and the classical walk (``p_walk``, on any
    domain that holds the branch), each restricted to the sub-branches of the
    given words, and the envelope gap against q^len(x) anchored at the first
    word.  Each sub-branch solve raises RuntimeError above ``solver_tol``."""
    rels = []
    for x in x_list:
        if not x.endswith(ctx.z):
            raise ValueError(f"{x!r} does not lie in the branch of {ctx.z!r}")
        sub = branch(x, ctx.radius)
        if len(sub) < 2:
            raise ValueError(f"sub-branch of {x!r} too small at radius {ctx.radius}")
        g_q = green_table(q_walk.restrict(sub), base=x, solver_tol=solver_tol)
        g_p = green_table(p_walk.restrict(sub), base=x, solver_tol=solver_tol)
        rels.append(float((np.abs(g_q.green - g_p.green) / g_p.green).max()))
    q = ctx.q
    anchored = rels[0] / (q ** len(x_list[0]))
    gap = max(rel / (anchored * q ** len(x)) for rel, x in zip(rels, x_list))
    return GdifReport(x_list=list(x_list), max_rel=rels, envelope_gap=gap)
