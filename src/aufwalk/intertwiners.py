"""Concrete intertwiner model for the two-letter fusion ring.

Each irreducible word x is realized as the subspace H_x of the full tensor
product of letter spaces (one n-dimensional space per letter) cut out by the
duality maps: H_x is the orthogonal complement of all single insertions of
R or Rbar at positions where adjacent letters differ.

Morphisms are kept in block coordinates: an :class:`Intertwiner` maps a tensor
product of irreducible blocks to another one, with the matrix expressed in the
orthonormal bases chosen for the blocks.  Norms, traces and compositions in
block coordinates agree with the ambient ones because the bases are isometric.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .words import _l2, involution, qbinom, qdim, validate_q

TENSOR_CAP_HARD_LIMIT = 14
RANK_TOL = 1e-9
SIGN_TOL = 1e-9


class TensorCapError(RuntimeError):
    """A requested basis or trace exceeds the configured tensor-length cap;
    the message lists the first 8 words and counts the rest."""

    def __init__(self, words, cap):
        self.words = tuple(words)
        self.cap = cap
        listing = ", ".join(repr(w) for w in self.words[:8])
        if len(self.words) > 8:
            listing += f" and {len(self.words) - 8} more"
        super().__init__(f"tensor words exceed cap {cap}: {listing}")


def _root_below_one(t: float) -> float:
    """The root r < 1 of r + 1/r = t > 2, in the form free of cancellation
    (t - sqrt(t^2 - 4) loses every digit once t^2 dwarfs 4).  Where t^2
    overflows, r = 1/t to the last bit (the next term is 1/t^3)."""
    t2 = t * t
    return 1.0 / t if math.isinf(t2) else 2.0 / (t + math.sqrt(t2 - 4.0))


def _is_normal(x: float) -> bool:
    """Whether x is a normal positive float, so that 1/x is finite too."""
    return sys.float_info.min <= x <= sys.float_info.max


def _check_size(n: int, tensor_cap: int) -> None:
    """A basis of a word of length tensor_cap has n^tensor_cap ambient rows;
    the cap keeps that count at most 2^TENSOR_CAP_HARD_LIMIT, the bound it
    sets at n = 2."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (1 <= tensor_cap <= TENSOR_CAP_HARD_LIMIT and n ** tensor_cap <= 2 ** TENSOR_CAP_HARD_LIMIT):
        raise ValueError(
            f"tensor_cap {tensor_cap} must be at least 1, with n^tensor_cap at most "
            f"2^{TENSOR_CAP_HARD_LIMIT} (n = {n})"
        )


@dataclass(frozen=True)
class ModelConfig:
    """Deformation data: q, the eigenvalues rho of the positive character
    (rho_i = f_i^2 for F = diag(f)) and the tensor cap; n = len(rho).

    rho must satisfy sum rho_i = sum 1/rho_i = q + 1/q with q in (0, 1), and
    q = 1 (unitary 2-by-2 F) is rejected.  q is kept as given.
    """

    q: float
    rho: tuple[float, ...]
    tensor_cap: int = 10

    def __post_init__(self):
        _check_size(self.n, self.tensor_cap)
        if not all(_is_normal(r) for r in self.rho):
            raise ValueError(f"rho = {self.rho}; each must be a normal positive float")
        trace, trace_inv = sum(self.rho), sum(1.0 / r for r in self.rho)
        # an overflowed sum is not normalized, though the relative test passes it (inf > inf is false)
        if not math.isfinite(trace + trace_inv) or abs(trace - trace_inv) > 1e-12 * max(trace, trace_inv):
            raise ValueError(f"character not normalized: sum rho = {trace!r}, sum 1/rho = {trace_inv!r}")
        if trace <= 2.0 + 1e-12:
            raise ValueError("F is a unitary 2-by-2 matrix (q = 1); need q < 1")
        if not 0.0 < self.q < 1.0 or abs(self.q + 1.0 / self.q - trace) > 1e-12 * trace:
            raise ValueError(f"q = {self.q!r} must lie in (0, 1) with q + 1/q = sum rho = {trace!r}")

    @property
    def n(self) -> int:
        return len(self.rho)

    @property
    def lambdas(self) -> tuple[float, ...]:
        return tuple(r ** -0.5 for r in self.rho)

    @classmethod
    def from_q(cls, q: float, n: int = 2, tensor_cap: int = 10) -> "ModelConfig":
        """The character (q, 1/q) at n = 2, above it (r, 1/r, 1, ..., 1) with r + 1/r = q + 1/q - n + 2."""
        validate_q(q)
        _check_size(n, tensor_cap)
        t = q + 1.0 / q - (n - 2)
        if t <= 2.0:
            raise ValueError(f"q = {q} is not reachable with n = {n} (needs q + 1/q > n)")
        r = q if n == 2 else _root_below_one(t)
        if not _is_normal(r):
            raise ValueError(f"q = {q} is too small: the eigenvalues of the character are not normal floats")
        return cls(q=q, rho=(r, 1.0 / r) + (1.0,) * (n - 2), tensor_cap=tensor_cap)

    @classmethod
    def from_f_diag(cls, f_diag, n: int = 2, tensor_cap: int = 10) -> "ModelConfig":
        """The character rho_i = f_i^2, and q < 1 with q + 1/q = sum rho."""
        if len(f_diag) != n or any(f <= 0 for f in f_diag):
            raise ValueError("fDiag must be n positive reals")
        rho = tuple(f * f for f in f_diag)
        if not all(_is_normal(r) for r in rho):
            raise ValueError(f"fDiag {list(f_diag)} squares to rho = {rho}; each must be a normal positive float")
        # a trace of at most 2 is not normalized or is unitary F, which __post_init__ reports
        return cls(q=_root_below_one(max(sum(rho), 2.0)), rho=rho, tensor_cap=tensor_cap)


@dataclass(frozen=True)
class Intertwiner:
    """A morphism between tensor products of irreducible blocks.

    ``target`` and ``source`` are tuples of irreducible words; ``array`` holds
    the matrix in the chosen orthonormal block bases, rows indexed by the
    target product, columns by the source product.  The empty tuple is the
    scalar line.
    """

    target: tuple[str, ...]
    source: tuple[str, ...]
    array: np.ndarray

    def compose(self, other: "Intertwiner") -> "Intertwiner":
        if other.target != self.source:
            raise ValueError(f"cannot compose: {self.source} != {other.target}")
        return Intertwiner(self.target, other.source, self.array @ other.array)

    def __matmul__(self, other: "Intertwiner") -> "Intertwiner":
        return self.compose(other)

    def tensor(self, other: "Intertwiner") -> "Intertwiner":
        return Intertwiner(
            self.target + other.target,
            self.source + other.source,
            np.kron(self.array, other.array),
        )

    @property
    def adjoint(self) -> "Intertwiner":
        return Intertwiner(self.source, self.target, self.array.T.copy())

    @property
    def norm(self) -> float:
        """Operator norm.  Out of one irreducible block or the scalar line,
        A^T A = c 1 by Schur's lemma, so the norm is exactly the Frobenius
        norm (words._l2, whose bits do not depend on the BLAS thread count)
        over sqrt(dim source); out of a product of blocks it is the largest
        singular value, from LAPACK's SVD."""
        if min(self.array.shape) == 0:
            return 0.0
        if len(self.source) <= 1:
            return _l2(self.array) / math.sqrt(self.array.shape[1])
        return float(np.linalg.norm(self.array, 2))


class IntertwinerEngine:
    """Builds and memoizes block bases, inclusions, duality maps and traces
    for one model configuration, and holds the branch coefficients of
    perturbed.qhat_entry in the same memo.  All products are deterministic;
    the memo may be shared between threads."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.n = cfg.n
        self.q = cfg.q
        self._lock = threading.Lock()
        self._memos: dict[tuple, object] = {}
        lam = np.array(cfg.lambdas)
        # Rbar_a = sum_i (1/lambda_i) e_i (x) f_i ;  R_a = sum_i lambda_i f_i (x) e_i
        self._rbar_letter = {
            "a": np.diag(1.0 / lam).reshape(-1),
            "b": np.diag(lam).reshape(-1),
        }
        # weight of the positive character: diag(rho) on letter a, diag(1/rho) on b
        rho = np.array(cfg.rho)
        self._rho_letter = {"a": rho, "b": 1.0 / rho}

    def _memo(self, key: tuple, build):
        """The value memoized under key, built on first request.  The lock
        guards the dict only: builds run outside it, so they may recurse into
        the memo, and of two racing builds of one key the first stored wins."""
        with self._lock:
            got = self._memos.get(key)
        if got is not None:
            return got
        built = build()
        with self._lock:
            return self._memos.setdefault(key, built)

    # -- bases ---------------------------------------------------------------

    def check_cap(self, *tensor_words: str) -> None:
        """The one tensor-cap rule: raises TensorCapError for the distinct
        words longer than the cap."""
        bad = list(dict.fromkeys(w for w in tensor_words if len(w) > self.cfg.tensor_cap))
        if bad:
            raise TensorCapError(bad, self.cfg.tensor_cap)

    def basis(self, w: str) -> np.ndarray:
        """Orthonormal basis of H_w inside the full letter tensor space,
        as an (n^len(w), dim) column matrix."""
        return self._memo(("basis", w), lambda: self._build_basis(w))

    def _build_basis(self, w: str) -> np.ndarray:
        self.check_cap(w)
        n = self.n
        if not w:
            return np.ones((1, 1))
        if len(w) == 1:
            return np.eye(n)
        prefix = self.basis(w[:-1])
        cand = np.kron(prefix, np.eye(n))
        if w[-2] == w[-1]:
            return cand
        # new constraint at the last gap: orthogonality to the inserted
        # duality vector between the differing letters
        rvec = self._rbar_letter["a" if w[-2] == "a" else "b"]
        rows = cand.shape[0] // (n * n)
        constr = np.einsum(
            "pic,i->pc", cand.reshape(rows, n * n, cand.shape[1]), rvec
        )
        # the null space needs all of vh only when rows < columns; a full u
        # (rows x rows) would be thrown away
        _, sing, vh = np.linalg.svd(constr, full_matrices=rows < constr.shape[1])
        rank = int(np.sum(sing > RANK_TOL * sing[0])) if sing.size else 0
        null = vh[rank:].T
        return _fix_signs(cand @ null)

    def irr_dim(self, w: str) -> int:
        return self.basis(w).shape[1]

    def block_dim(self, factors: tuple[str, ...]) -> int:
        out = 1
        for f in factors:
            out *= self.irr_dim(f)
        return out

    def word_projection(self, x: str) -> Intertwiner:
        """Projection of the full letter tensor space onto H_x (the block
        picture over single-letter factors coincides with the ambient one)."""
        b = self.basis(x)
        letters = tuple(x)
        return Intertwiner(letters, letters, b @ b.T)

    # -- inclusions and duality maps ------------------------------------------

    def inclusion_block(self, x: str, y: str) -> np.ndarray:
        """Matrix of the embedding H_xy -> H_x (x) H_y in the block bases,
        an isometry of shape (dim(x) dim(y), dim(xy))."""
        return self._memo(("inclusion", x, y), lambda: self._build_inclusion(x, y))

    def _build_inclusion(self, x: str, y: str) -> np.ndarray:
        bx, by, bxy = self.basis(x), self.basis(y), self.basis(x + y)
        blocks = np.einsum(
            "ia,jb,ijc->abc",
            bx,
            by,
            bxy.reshape(bx.shape[0], by.shape[0], bxy.shape[1]),
            optimize=True,
        )
        return blocks.reshape(bx.shape[1] * by.shape[1], bxy.shape[1])

    def rbar_block(self, v: str) -> np.ndarray:
        """Standard solution Rbar_v : scalars -> H_v (x) H_vbar as a block
        vector, built by nesting the letter solutions through the inclusions."""
        return self._memo(("rbar", v), lambda: self._build_rbar(v))

    def _build_rbar(self, v: str) -> np.ndarray:
        n = self.n
        if not v:
            return np.ones(1)
        if len(v) == 1:
            return self._rbar_letter[v].copy()
        head, rest = v[0], v[1:]
        rest_bar = involution(rest)
        x1 = self._rbar_letter[head].reshape(n, n)
        x2 = self.rbar_block(rest).reshape(self.irr_dim(rest), self.irr_dim(rest_bar))
        v1 = self.inclusion_block(head, rest).reshape(n, self.irr_dim(rest), -1)
        v2 = self.inclusion_block(rest_bar, involution(head)).reshape(
            self.irr_dim(rest_bar), n, -1
        )
        out = np.einsum("il,jk,ija,klb->ab", x1, x2, v1, v2, optimize=True)
        return out.reshape(-1)

    def r_block(self, v: str) -> np.ndarray:
        """R_v : scalars -> H_vbar (x) H_v; equals Rbar of the involuted word."""
        return self.rbar_block(involution(v))

    def duality_maps(self) -> tuple[Intertwiner, Intertwiner]:
        """(R, Rbar) for the first letter, as morphisms from the scalar line."""
        r = Intertwiner(("b", "a"), (), self.r_block("a").reshape(-1, 1))
        rbar = Intertwiner(("a", "b"), (), self.rbar_block("a").reshape(-1, 1))
        return r, rbar

    # -- traces ----------------------------------------------------------------

    def rho_weight(self, w: str) -> np.ndarray:
        """Block matrix of the inverse of the positive character on H_w."""
        return self._memo(("rho", w), lambda: self._build_rho_weight(w))

    def _build_rho_weight(self, w: str) -> np.ndarray:
        b = self.basis(w)
        diag = np.ones(1)
        for c in w:
            diag = np.outer(diag, 1.0 / self._rho_letter[c]).reshape(-1)
        return b.T @ (diag[:, None] * b)

    def qdim(self, w: str) -> float:
        return qdim(w, self.q)

    def nested_r_matrix(self, factors: tuple[str, ...]) -> np.ndarray:
        """Standard solution for the product of the factor blocks, reshaped as
        a (conjugate side, plain side) matrix; built by the nesting
        R_{U (x) V} = (iota (x) R_U (x) iota) R_V."""
        if not factors:
            return np.ones((1, 1))
        head, rest = factors[0], factors[1:]
        m_head = self.r_block(head).reshape(self.irr_dim(involution(head)), self.irr_dim(head))
        if not rest:
            return m_head
        m_rest = self.nested_r_matrix(rest)
        out = np.einsum("ab,cd->acdb", m_rest, m_head)
        return out.reshape(m_rest.shape[0] * m_head.shape[0], m_head.shape[1] * m_rest.shape[1])

    def categorical_trace(self, t: Intertwiner) -> float:
        """Normalized categorical trace of a block endomorphism, contracted
        through the nested standard solution."""
        if t.source != t.target:
            raise ValueError(f"not an endomorphism: {t.target} vs {t.source}")
        m = self.nested_r_matrix(t.source)
        gram = m.T @ m
        total = float(np.sum(gram * t.array))
        for f in t.source:
            total /= self.qdim(f)
        return total

    def weighted_trace(self, t: Intertwiner) -> float:
        """Same trace through the character weights (independent route)."""
        if t.source != t.target:
            raise ValueError(f"not an endomorphism: {t.target} vs {t.source}")
        weight = np.ones((1, 1))
        for f in t.source:
            weight = np.kron(weight, self.rho_weight(f))
        # trace(A W) without the matrix product
        total = float(np.sum(t.array * weight.T))
        for f in t.source:
            total /= self.qdim(f)
        return total

    # -- the almost-isometries V tilde ------------------------------------------

    def vtilde(self, s: str, v: str, t: str) -> Intertwiner:
        """The morphism H_st -> H_sv (x) H_(vbar t) obtained by inserting the
        duality vector of v into the inclusion of H_st."""
        vbar = involution(v)
        self.check_cap(s + v + vbar + t)
        a = self.inclusion_block(s, t)
        d_s, d_t = self.irr_dim(s), self.irr_dim(t)
        d_v, d_vb = self.irr_dim(v), self.irr_dim(vbar)
        rb = self.rbar_block(v).reshape(d_v, d_vb)
        p1 = self.inclusion_block(s, v).reshape(d_s, d_v, -1)
        p2 = self.inclusion_block(vbar, t).reshape(d_vb, d_t, -1)
        # arr[a, b, c] = sum p1[i, k, a] rb[k, l] p2[l, j, b] A[i, j, c], contracted
        # p1 . rb, then A, then p2
        left = np.tensordot(p1, rb, axes=([1], [0]))  # (i, a, l)
        left = np.tensordot(left, a.reshape(d_s, d_t, -1), axes=([0], [0]))  # (a, l, j, c)
        arr = np.tensordot(p2, left, axes=([0, 1], [1, 2]))  # (b, a, c)
        arr = arr.transpose(1, 0, 2).reshape(p1.shape[2] * p2.shape[2], a.shape[1])
        return Intertwiner((s + v, vbar + t), (s + t,), arr)

    def normalized_V(self, z: str, x: str, y: str) -> np.ndarray:
        """The isometry V(z, x (x) y) for a component z of x (x) y, as its
        array in the block bases of H_z and H_x (x) H_y."""
        iv = self.vtilde(*split_component(z, x, y))
        nrm = iv.norm
        if nrm <= 0.0:
            raise ArithmeticError(f"vanishing morphism for ({z!r}, {x!r}, {y!r})")
        return iv.array / nrm

    # -- defect estimates --------------------------------------------------------

    def defect_audit(self, u: str, x: str, y: str, z: str) -> tuple[float, float]:
        """Measured commutation defect of V(z, x (x) y) against the projection
        onto H_uz resp. H_ux, and the predicted decay exponent
        (len(z) + len(x) - len(y)) / 2."""
        # kron_apply applies P_ux (x) i_y to i_u (x) V without forming it: (d_u d_x d_y)^2
        # floats, 648 MiB at n = 3 for u = ab, x = ababa
        lifted = np.kron(np.eye(self.irr_dim(u)), self.normalized_V(z, x, y))
        inc_uz, inc_ux = self.inclusion_block(u, z), self.inclusion_block(u, x)
        gap = lifted @ (inc_uz @ inc_uz.T) - kron_apply(inc_ux @ inc_ux.T, lifted, right=self.irr_dim(y))
        return float(np.linalg.norm(gap, 2)), (len(z) + len(x) - len(y)) / 2.0


def kron_apply(m: np.ndarray, x: np.ndarray, left: int = 1, right: int = 1) -> np.ndarray:
    """(i_left (x) m (x) i_right) @ x without forming the Kronecker product:
    one matmul over x reshaped to (left, m columns, right * x columns)."""
    out = np.matmul(m, x.reshape(left, m.shape[1], right * x.shape[1]))
    return out.reshape(left * m.shape[0] * right, x.shape[1])


def split_component(z: str, x: str, y: str) -> tuple[str, str, str]:
    """Decompose a fusion component z of x (x) y as z = st with x = sv and
    y = vbar t; raises if z is not a component."""
    total = len(x) + len(y) - len(z)
    if total < 0 or total % 2:
        raise ValueError(f"{z!r} is not a component of {x!r} (x) {y!r}")
    k = total // 2
    if k > len(x) or k > len(y):
        raise ValueError(f"{z!r} is not a component of {x!r} (x) {y!r}")
    s, v = x[: len(x) - k], x[len(x) - k:]
    t = y[k:]
    if involution(v) != y[:k] or z != s + t:
        raise ValueError(f"{z!r} is not a component of {x!r} (x) {y!r}")
    return s, v, t


def vtilde_norm_indecomposable(s: str, v: str, t: str, q: float) -> float:
    """Closed form of the norm of vtilde(s, v, t) when sv, v vbar and vbar t
    are all indecomposable: a ratio of Gaussian binomials in the lengths."""
    ns, nv, nt = len(s), len(v), len(t)
    return math.sqrt(
        qbinom(ns + nt + nv + 1, nv, q)
        / (qbinom(ns + nv, nv, q) * qbinom(nt + nv, nv, q))
    )


def _fix_signs(b: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: first coordinate of magnitude above the
    threshold is made positive, column by column."""
    out = b.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > SIGN_TOL)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out
