"""Free-monoid words, q-arithmetic and the geometry of the left-extension tree.

Words over the two-letter alphabet ``{a, b}`` are plain Python strings; the
empty string is the root ``e``.  Two words are adjacent in the tree iff one is
obtained from the other by adding one letter on the left, so the ball of
radius R around the root is the binary left-extension tree truncated at
depth R.

Every vertex has one integer name, its heap index ``2^len(w) - 1 + bits(w)``,
where ``bits`` reads a as 0 and b as 1 with the *last* letter as bit 0.  The
tree stack names vertices by heap index only: ``ball`` and ``branch`` return
sorted int64 arrays of them, heap order is ``ball`` order (by length, then
a < b), so a word's position in a ball is its heap index, and a branch of x
is the set of indices whose low len(x) bits spell x (``ends_with``).
Prepending a letter to a word of length L adds 2^L to its bits, and the
common suffix of two words of lengths L, M has length
``min(ctz(bits xor bits'), L, M)``.  Strings are the serialized form and the
names the intertwiner stack works on: ``heap_index``/``heap_indices`` and
``word``/``ball_words``/``format_words`` convert between the two.
"""

from __future__ import annotations

import functools

import numpy as np

ALPHABET = ("a", "b")
EMPTY = ""

#: Hard cap on ball radii (2^21 - 1 words is already ~2M vertices).
BALL_RADIUS_CAP = 20

_BAR = {"a": "b", "b": "a"}
_TO_BITS = str.maketrans("ab", "01")
_FROM_BITS = str.maketrans("01", "ab")


class RadiusCapError(ValueError):
    """A requested ball or branch radius exceeds the memory-safety cap."""


def check_word(w: str) -> str:
    if not isinstance(w, str) or any(c not in _BAR for c in w):
        raise ValueError(f"not a word over {{a,b}}: {w!r}")
    return w


def parse_word(text: str) -> str:
    """Parse the serialized form: letters over {a,b}, with 'e' for the empty word."""
    if text == "e":
        return EMPTY
    return check_word(text)


def format_word(w) -> str:
    """The serialized form of a word, given as a string or by its heap index."""
    if not isinstance(w, str):
        w = word(w)
    return w if w else "e"


def involution(w: str) -> str:
    """The anti-automorphism of the monoid: reverse the word and swap a <-> b."""
    return "".join(_BAR[c] for c in reversed(w))


def validate_q(q: float) -> float:
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"deformation parameter must lie in (0, 1), got {q}")
    return q


def qnumber(n: int, q: float) -> float:
    """The quantum integer [n]_q = (q^n - q^-n) / (q - q^-1), for n >= 1.

    Evaluated as q^(1-n) (1 - q^2n) / (1 - q^2) to keep all factors in (0, 1]
    before the single large power.
    """
    if n < 1:
        raise ValueError(f"qnumber requires n >= 1, got {n}")
    validate_q(q)
    return q ** (1 - n) * (1.0 - q ** (2 * n)) / (1.0 - q * q)


def qbinom(n: int, k: int, q: float) -> float:
    """Gaussian binomial coefficient, via the product formula
    q^(-k(n-k)) * prod_{i<k} (1 - q^(2(n-i))) / (1 - q^(2(k-i))).
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"qbinom requires 0 <= k <= n, got ({n}, {k})")
    validate_q(q)
    out = float(q) ** (-k * (n - k))
    for i in range(k):
        out *= (1.0 - q ** (2 * (n - i))) / (1.0 - q ** (2 * (k - i)))
    return out


def indecomposable_factors(w: str) -> list[str]:
    """Split w into maximal alternating blocks (cut wherever two equal letters meet)."""
    factors: list[str] = []
    start = 0
    for i in range(1, len(w)):
        if w[i] == w[i - 1]:
            factors.append(w[start:i])
            start = i
    if w:
        factors.append(w[start:])
    return factors


def qdim(w: str, q: float) -> float:
    """Quantum dimension: product of [len(f)+1]_q over the indecomposable factors."""
    out = 1.0
    for f in indecomposable_factors(w):
        out *= qnumber(len(f) + 1, q)
    return out


def classical_dim(w: str, n: int = 2) -> int:
    """Classical dimension of the irreducible w of A_u(F), F of size n: the
    product over indecomposable factors f of the Chebyshev value d_len(f),
    d_k = n d_(k-1) - d_(k-2) from d_0 = 1, d_1 = n.  At n = 2, d_k = k + 1,
    the q -> 1 limit of qdim."""
    out = 1
    for f in indecomposable_factors(w):
        prev, d = 1, n
        for _ in range(len(f) - 1):
            prev, d = d, n * d - prev
        out *= d
    return out


@functools.lru_cache(maxsize=4)
def ball_qdims(radius: int, q: float) -> np.ndarray:
    """qdim of every word of the ball, in heap order, by a level recurrence;
    read-only, and kept for the last few (radius, q), so that a walk's
    assembly, its weights and its truncation bounds compute it once.

    Appending a letter to w either extends its last indecomposable factor or,
    when it repeats w's last letter, closes that factor and starts a new one.
    Carrying the product of the closed factors and the length of the open one
    multiplies the same qnumbers in the same order as ``qdim``.
    """
    validate_q(q)
    _check_radius(radius)
    open_dim = np.array([1.0] + [qnumber(n + 1, q) for n in range(1, radius + 1)])
    closed = np.ones(1)
    run = np.zeros(1, dtype=np.int64)  # length of the open factor
    last = np.full(1, -1, dtype=np.int64)  # last letter, -1 for the root
    levels = [closed * open_dim[run]]
    for _ in range(radius):
        # bits of w c are 2 bits(w) + c: the two extensions interleave
        cut = np.stack([last == 0, last == 1], axis=1)
        closed = np.where(cut, (closed * open_dim[run])[:, None], closed[:, None]).ravel()
        run = np.where(cut, 1, (run + 1)[:, None]).ravel()
        last = np.tile(np.array([0, 1], dtype=np.int64), len(last))
        levels.append(closed * open_dim[run])
    dims = np.concatenate(levels)
    dims.flags.writeable = False
    return dims


def heap_index(w: str) -> int:
    """Position of w in ``ball`` order: 2^len(w) - 1 + bits(w)."""
    return int("1" + check_word(w).translate(_TO_BITS), 2) - 1


def word(code) -> str:
    """The word with the given heap index, the inverse of heap_index."""
    code = int(code)
    if code < 0:
        raise ValueError(f"heap index must be >= 0, got {code}")
    length = (code + 1).bit_length() - 1
    return format(code + 1 - (1 << length), f"0{length}b").translate(_FROM_BITS) if length else EMPTY


def format_words(codes) -> np.ndarray:
    """The serialized forms of the words with the given heap indices ("e"
    for the root) as ASCII bytes: a uint8 array of one row per word, as
    wide as the longest word, with NUL past each word's end."""
    codes = np.asarray(codes, dtype=np.int64)
    lengths = code_lengths(codes)
    width = max(int(lengths.max(initial=0)), 1)
    # the bits left-aligned to the width: letter j is bit width - 1 - j
    left = (codes + 1 - (np.int64(1) << lengths)) << (width - lengths)
    letters = np.zeros(codes.shape + (width,), dtype=np.uint8)
    for j in range(width):
        bit = left >> (width - 1 - j)
        bit &= 1
        bit += ord("a")
        np.copyto(letters[..., j], bit, casting="unsafe", where=lengths > j)
    letters[lengths == 0, 0] = ord("e")
    return letters


def heap_indices(domain) -> np.ndarray:
    """Heap indices of a sequence of words, as an int64 array.  Raises
    ValueError for a non-word and RadiusCapError for a word longer than
    BALL_RADIUS_CAP."""
    domain = [check_word(w) for w in domain]
    _check_radius(max(map(len, domain), default=0))
    return np.array([heap_index(w) for w in domain], dtype=np.int64)


def code_lengths(codes: np.ndarray) -> np.ndarray:
    """Word lengths from heap indices: len(w) = floor(log2(index + 1))."""
    return np.frexp(np.asarray(codes, dtype=np.int64) + 1.0)[1].astype(np.int64) - 1


def qdims(codes: np.ndarray, q: float) -> np.ndarray:
    """qdim of the words with the given heap indices."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size == 0:
        return np.zeros(0)
    return ball_qdims(int(code_lengths(codes).max()), q)[codes]


def tree_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise tree distance between words given by heap indices:
    len s + len t - 2 min(ctz(bits s xor bits t), len s, len t)."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    la, lb = code_lengths(a), code_lengths(b)
    diff = (a + 1 - (np.int64(1) << la)) ^ (b + 1 - (np.int64(1) << lb))
    # ctz through the exponent of the lowest set bit; equal bits never cap
    ctz = np.where(diff == 0, 64, np.frexp((diff & -diff).astype(float))[1] - 1)
    return la + lb - 2 * np.minimum(ctz, np.minimum(la, lb))


def common_suffix_length(s: str, t: str) -> int:
    k = 0
    while k < len(s) and k < len(t) and s[len(s) - 1 - k] == t[len(t) - 1 - k]:
        k += 1
    return k


def tree_distance(s: str, t: str) -> int:
    return len(s) + len(t) - 2 * common_suffix_length(s, t)


def _check_radius(radius: int) -> None:
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius > BALL_RADIUS_CAP:
        raise RadiusCapError(
            f"ball radius {radius} exceeds the cap {BALL_RADIUS_CAP} "
            f"({2 ** (BALL_RADIUS_CAP + 1) - 1} vertices)"
        )


def ball(radius: int) -> np.ndarray:
    """The heap indices of all words of length <= radius, 0 .. 2^(radius+1) - 2:
    length-lexicographic order (a < b)."""
    _check_radius(radius)
    return np.arange((1 << (radius + 1)) - 1, dtype=np.int64)


def ball_words(radius: int) -> list[str]:
    """The words of the ball as strings, in heap order, one table per level:
    the level of length L + 1 is each word of length L followed by a, then
    by b, since bits(w c) = 2 bits(w) + c."""
    _check_radius(radius)
    level, out = [EMPTY], [EMPTY]
    for _ in range(radius):
        level = [w + c for w in level for c in ALPHABET]
        out += level
    return out


def ends_with(codes: np.ndarray, x: int) -> np.ndarray:
    """Whether each word, given by heap index, ends in the word with heap
    index x: its length is at least len(x) and its low len(x) bits are x's."""
    codes = np.asarray(codes, dtype=np.int64)
    k = (int(x) + 1).bit_length() - 1
    lengths = code_lengths(codes)
    low = (codes + 1 - (np.int64(1) << lengths)) & ((1 << k) - 1)
    return (lengths >= k) & (low == int(x) + 1 - (1 << k))


def branch(x: str, radius: int) -> np.ndarray:
    """The branch of words ending in x, truncated to the ball of the given
    radius, as sorted heap indices: every ux with len(u) <= radius - len(x),
    in length-lexicographic order of u."""
    tail = heap_index(x) + 1 - (1 << len(x))
    if radius > BALL_RADIUS_CAP:
        raise RadiusCapError(f"radius {radius} exceeds the cap {BALL_RADIUS_CAP}")
    # the words of length L ending in x: L - len(x) free high bits above bits(x)
    levels = [(1 << length) - 1 + (np.arange(1 << (length - len(x)), dtype=np.int64) << len(x)) + tail
              for length in range(len(x), radius + 1)]
    return np.concatenate(levels) if levels else np.zeros(0, dtype=np.int64)


def locate(domain: np.ndarray, codes) -> tuple[np.ndarray, np.ndarray]:
    """(positions, inside) of the given heap indices in a domain of sorted,
    distinct heap indices: the index itself when the domain is a ball,
    np.searchsorted otherwise; a position is meaningful where inside holds."""
    codes = np.asarray(codes, dtype=np.int64)
    n = len(domain)
    if n and domain[-1] == n - 1:
        return codes, (codes >= 0) & (codes < n)
    pos = np.minimum(np.searchsorted(domain, codes), max(n - 1, 0))
    return pos, (domain[pos] == codes) if n else np.zeros(codes.shape, dtype=bool)
