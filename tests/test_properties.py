"""Property tests over random words, deformations and generating measures.

Hypothesis runs derandomized with few examples, so the suite stays
deterministic and quick; each property is also pinned on fixed inputs in the
module-specific test files.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aufwalk.cli import EXIT_AUDIT, EXIT_CAP, EXIT_CONFIG, EXIT_OK, load_config, main
from aufwalk.fusion import Measure, dual_audit, fuse, is_generating, transition_matrix, transition_prob
from aufwalk.intertwiners import IntertwinerEngine, ModelConfig
from aufwalk.kernels import green_rows, green_table, weighted_operator_norm
from aufwalk.perturbed import BranchContext, q_matrix
from aufwalk.words import (
    EMPTY,
    ball,
    ball_qdims,
    ball_words,
    branch,
    code_lengths,
    ends_with,
    format_word,
    heap_index,
    heap_indices,
    involution,
    parse_word,
    qdim,
    qdims,
    word,
)
from conftest import to_scipy

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)
RADIUS = 6

words = st.text(alphabet="ab", max_size=8)
deformations = st.floats(min_value=0.2, max_value=0.8)


@st.composite
def measures(draw):
    """Normalized measures on one to four nonempty words of length <= 3."""
    support = draw(st.lists(st.text(alphabet="ab", min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    k = len(support)
    weights = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k))
    total = sum(weights)
    return Measure({w: p / total for w, p in zip(support, weights)})


@PROPERTY
@given(st.floats(min_value=1e-300, max_value=0.99))
def test_model_keeps_the_q_it_is_given(q):
    cfg = ModelConfig.from_q(q, n=2)
    assert cfg.q == q
    assert cfg.rho == (q, 1.0 / q)


@st.composite
def model_sections(draw):
    """A config's model section at n = 2 or 3, by q or by fDiag, with the q
    the run must report: q itself, or the root that from_f_diag takes."""
    n = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        # n = 3 reaches only q + 1/q > 3
        q = draw(st.floats(min_value=0.05, max_value=0.8 if n == 2 else 0.38))
        return {"n": n, "q": q}, q
    f = draw(st.floats(min_value=1.05, max_value=4.0))
    f_diag = [f, 1.0 / f] + [1.0] * (n - 2)
    return {"n": n, "fDiag": f_diag}, ModelConfig.from_f_diag(f_diag, n, tensor_cap=5).q


@PROPERTY
@given(model_sections())
def test_config_q_survives_to_the_walk_manifest(section):
    """model.q reaches ModelConfig and the walk manifest bit for bit; an
    fDiag model reaches them as from_f_diag's q."""
    model, q = section
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({"model": model, "measure": {"a": 0.5, "b": 0.5}, "ballRadius": 3,
                                    "tensorCap": 5, "sources": ["e", "a"]}))
        cfg = load_config(str(path))
        assert (cfg.model.n, cfg.model.q, cfg.q) == (model["n"], q, q)
        assert main(["walk", str(path), "--out", str(Path(tmp) / "out")]) == EXIT_OK
        assert json.loads((Path(tmp) / "out" / "manifest.json").read_text())["q"] == q


@PROPERTY
@given(words, words, deformations)
def test_fusion_dimension_identity(r, s, q):
    # every multiplicity m(t; r, s) is 0 or 1, and fuse lists the t with m = 1
    assert sum(qdim(t, q) for t in fuse(r, s)) == pytest.approx(qdim(r, q) * qdim(s, q), rel=1e-12)


@st.composite
def measures_with_root(draw):
    """Normalized measures on one to four words of length <= 3, e allowed."""
    support = draw(st.lists(st.text(alphabet="ab", max_size=3), min_size=1, max_size=4, unique=True))
    k = len(support)
    weights = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k))
    total = sum(weights)
    return Measure({w: p / total for w, p in zip(support, weights)})


@PROPERTY
@given(words)
def test_heap_index_round_trips_through_ball_order(w):
    i = heap_index(w)
    assert ball_words(len(w))[i] == w and word(i) == w and ball(len(w))[i] == i
    assert heap_indices([w, w + "a", "b" + w]).tolist() == [i, heap_index(w + "a"), heap_index("b" + w)]


@pytest.mark.parametrize("radius", [0, 1, 5, 9])
def test_heap_indices_enumerate_ball(radius):
    words_ = ball_words(radius)
    assert heap_indices(words_).tolist() == ball(radius).tolist() == list(range(len(words_)))
    assert heap_indices(words_[::-1]).tolist() == list(range(len(words_)))[::-1]
    assert words_ == sorted(words_, key=lambda w: (len(w), w))


def test_string_table_and_heap_index_round_trip_up_to_radius_12():
    """Every word up to radius 12: the per-level string table lists it at its
    heap index, and word() inverts heap_index; each smaller ball's table is a
    prefix of the larger one."""
    table = ball_words(12)
    assert len(table) == 2 ** 13 - 1
    assert [heap_index(w) for w in table] == list(range(len(table)))
    assert heap_indices(table).tolist() == ball(12).tolist()
    assert [word(c) for c in ball(12)] == table
    assert code_lengths(ball(12)).tolist() == [len(w) for w in table]
    for radius in range(12):
        assert ball_words(radius) == table[: 2 ** (radius + 1) - 1]


@PROPERTY
@given(st.text(alphabet="ab", max_size=12))
def test_string_table_holds_each_word_at_its_heap_index(w):
    i = heap_index(w)
    assert ball_words(12)[i] == w == word(i) and format_word(i) == (w or "e")


@PROPERTY
@given(st.text(alphabet="ab", max_size=5), st.integers(min_value=0, max_value=9))
def test_branch_is_the_codes_whose_low_letters_spell_x(x, radius):
    """words.branch(x, r) is exactly the heap indices of the ball whose low
    len(x) letters spell x, sorted: the string route and the bit mask agree."""
    pool, table = ball(radius), ball_words(radius)
    want = [heap_index(w) for w in table if w.endswith(x)]
    assert branch(x, radius).tolist() == want
    assert ends_with(pool, heap_index(x)).tolist() == [w.endswith(x) for w in table]
    assert pool[ends_with(pool, heap_index(x))].tolist() == want


@PROPERTY
@given(deformations, st.integers(min_value=0, max_value=9), st.lists(words, max_size=6))
def test_qdim_array_matches_scalar(q, radius, extra):
    want = np.array([qdim(w, q) for w in ball_words(radius)])
    assert np.abs(ball_qdims(radius, q) / want - 1.0).max() <= 1e-14
    if extra:
        got = qdims(heap_indices(extra), q)
        assert np.abs(got / np.array([qdim(w, q) for w in extra]) - 1.0).max() <= 1e-14


@PROPERTY
@given(measures_with_root(), deformations, st.text(alphabet="ab", min_size=1, max_size=2))
def test_assembled_matrix_matches_transition_prob(mu, q, x):
    # a ball, a branch and a sorted sub-domain that skips the root
    for domain in (ball(4), branch(x, 5), ball(5)[3:40:3]):
        tm = transition_matrix(mu, domain, q)
        got = tm.matrix.toarray()
        domain_words = [word(c) for c in domain]
        want = np.array([[transition_prob(mu, s, t, q) for t in domain_words] for s in domain_words])
        assert np.array_equal(got != 0.0, want != 0.0)
        nz = want != 0.0
        assert np.abs(got[nz] / want[nz] - 1.0).max(initial=0.0) <= 1e-14


@PROPERTY
@given(measures(), deformations)
def test_interior_rows_stochastic(mu, q):
    tm = transition_matrix(mu, ball(RADIUS), q)
    assume(is_generating(tm))
    interior = code_lengths(tm.codes) < RADIUS - tm.range_bound
    assert interior.any()
    assert np.abs(tm.row_sums()[interior] - 1.0).max() < 1e-12


@PROPERTY
@given(measures(), deformations)
def test_duality_identity(mu, q):
    assert dual_audit(transition_matrix(mu, ball(5), q)) < 1e-12


def abs_conjugate_sums(walk) -> tuple[float, float]:
    """The largest row and column sums of |A|, A = D W D^-1 the conjugate of
    the walk's weights by D = diag(qdim) (the square roots of its weights)."""
    d = walk.qdims()
    a = abs(sp.diags(d) @ to_scipy(walk.matrix) @ sp.diags(1.0 / d))
    return float(a.sum(axis=1).max()), float(a.sum(axis=0).max())


@PROPERTY
@given(measures(), st.floats(min_value=0.05, max_value=0.995), st.integers(min_value=5, max_value=9))
def test_schur_bound_holds_on_walks_restrictions_and_q(mu, q, radius):
    """The Schur test behind the norm certificate: on a ball, two branch
    restrictions of it and the perturbed Q of a branch, every row and column
    sum of |A| is at most lam (up to the rounding of the sums), so the one
    Collatz-Wielandt top is at most the walk's norm_bound, as the audit
    compares them."""
    tm = transition_matrix(mu, ball(radius), q)
    assume(is_generating(tm))
    lam = tm.norm_bound
    engine = IntertwinerEngine(ModelConfig.from_q(q, n=2, tensor_cap=radius + 2 + tm.range_bound))
    walks = [tm, tm.restrict(branch("a", radius)), tm.restrict(branch("ab", radius)),
             q_matrix(BranchContext(engine, tm, "a", radius))]
    for walk in walks:
        assert walk.norm_bound == lam
        rows, cols = abs_conjugate_sums(walk)
        assert max(rows, cols) <= lam * (1.0 + 1e-12), (rows, cols, lam)
        assert weighted_operator_norm(walk.matrix, walk.haar_weights())[1] <= walk.norm_bound


@PROPERTY
@given(words)
def test_word_round_trip(w):
    text = format_word(w)
    assert parse_word(text) == w
    assert format_word(parse_word(text)) == text
    assert (text == "e") == (w == EMPTY)


FUZZ_BASE = {
    "model": {"n": 2, "q": 0.5},
    "measure": {"a": 0.5, "b": 0.5},
    "ballRadius": 3,
    "tensorCap": 10,
    "branchZ": "a",
    "rays": [["e", "a"]],
    "sources": ["e", "a"],
    "tolerances": {"solver": 1e-10},
}
FUZZ_KEYS = sorted(FUZZ_BASE) + ["boundarySources"]
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=6)
    | st.sampled_from([0.0, -1.0, 1e-3, 0.35, 0.5, 0.65, 2.0])
    | st.sampled_from(["", "e", "a", "b", "ab", "ba", "c"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "q", "fDiag", "solver", "audit", "e", "a", "b"]), inner, max_size=3),
    max_leaves=6,
)


def _run_mutated(command: str, base: dict, overrides: dict, dropped: set) -> int:
    raw = {k: v for k, v in base.items() if k not in dropped}
    raw.update(overrides)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        return main([command, str(path), "--out", str(Path(tmp) / "out")])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from(FUZZ_KEYS), json_values, max_size=2),
    st.sets(st.sampled_from(FUZZ_KEYS), max_size=2),
)
def test_config_fuzz_exits_cleanly(overrides, dropped):
    """Malformed configs exit 0, 2 or 3 from ``walk``; nothing raises."""
    assert _run_mutated("walk", FUZZ_BASE, overrides, dropped) in (EXIT_OK, EXIT_CONFIG, EXIT_CAP)


# audit and boundary build the intertwiner stack, so their sizes are kept
# small: never dropped, and mutated values clipped to the base ones
SMALL_BASE = dict(FUZZ_BASE, ballRadius=4, tensorCap=6)
SIZE_KEYS = ("ballRadius", "tensorCap")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from(["audit", "boundary"]),
    st.dictionaries(st.sampled_from(FUZZ_KEYS), json_values, max_size=2),
    st.sets(st.sampled_from(FUZZ_KEYS), max_size=2),
)
def test_config_fuzz_audit_and_boundary_exit_cleanly(command, overrides, dropped):
    """Malformed configs exit 0, 2 or 3 from ``audit`` and ``boundary``, or 1
    for a failed audit; nothing raises."""
    for key in SIZE_KEYS:
        if type(overrides.get(key)) is int:
            overrides[key] = min(overrides[key], SMALL_BASE[key])
    allowed = {EXIT_OK, EXIT_CONFIG, EXIT_CAP} | ({EXIT_AUDIT} if command == "audit" else set())
    assert _run_mutated(command, SMALL_BASE, overrides, dropped - set(SIZE_KEYS)) in allowed


# tensorCap 7 holds the defect audit's length-7 words, so an audit on this
# base runs past the defect audit to the branch stages; its sizes are never
# mutated or dropped (the defaults, ball 8 and cap 10, would take seconds)
AUDIT_BASE = dict(FUZZ_BASE, ballRadius=4, tensorCap=7)
AUDIT_FUZZ_KEYS = [k for k in FUZZ_KEYS if k not in SIZE_KEYS]


def test_audit_base_reaches_the_last_entry(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(AUDIT_BASE))
    assert main(["audit", str(path), "--out", str(tmp_path)]) == EXIT_AUDIT
    entries = json.loads((tmp_path / "audit_report.json").read_text())["audits"]
    assert len(entries) == 23 and entries[-1]["name"] == "boundary_ratio_trend"
    assert [e["name"] for e in entries if not e["pass"]] == ["perturbation_rate"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.dictionaries(st.sampled_from(AUDIT_FUZZ_KEYS), json_values, max_size=2),
    st.sets(st.sampled_from(AUDIT_FUZZ_KEYS), max_size=2),
)
def test_config_fuzz_audit_past_the_defect_audit_exits_cleanly(overrides, dropped):
    """Malformed configs exit 0, 1, 2 or 3 from ``audit`` on a base that
    reaches its last entry; nothing raises."""
    assert _run_mutated("audit", AUDIT_BASE, overrides, dropped) in (EXIT_OK, EXIT_AUDIT, EXIT_CONFIG, EXIT_CAP)


# The two symmetries of the Green kernel, against which the word involution
# is a negative control.  Measured on balls of radius 4-8 for q in [0.05,
# 0.995] under measures of range <= 3 (among them {a: .35, b: .65},
# {a, b, aa, bb} and {a: .3, b: .2, ab: .1, aab: .4} at radius 8, q = 0.5),
# both held within 4.5e-16 of the largest entry, about two ulps.  The bound
# leaves a factor above 20 for other BLAS and LAPACK builds and stays far
# below the control's misses of 0.32-0.75.
SYMMETRY_TOL = 1e-14
LETTER_SWAP = str.maketrans("ab", "ba")


def swapped(codes) -> np.ndarray:
    """The heap indices of the letter-swapped words: a <-> b flips the low len(w) bits."""
    codes = np.asarray(codes, dtype=np.int64)
    offset = (np.int64(1) << code_lengths(codes)) - 1
    return offset + ((codes - offset) ^ offset)


def swap_measure(mu: Measure) -> Measure:
    return Measure({w.translate(LETTER_SWAP): p for w, p in mu.items()})


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


def test_letter_swap_on_heap_indices_is_the_word_swap():
    codes = ball(6)
    assert [word(c) for c in swapped(codes)] == [word(c).translate(LETTER_SWAP) for c in codes]


@PROPERTY
@given(measures(), st.floats(min_value=0.05, max_value=0.995), st.integers(min_value=4, max_value=8),
       st.data())
def test_letter_swap_and_time_reversal(mu, q, radius, data):
    """G under the swapped measure at (swap s, swap t) is G(s, t), and
    G(s, t) qdim(s)^2 is G(t, s) qdim(t)^2 under the dual measure
    mu(r) -> mu(bar r); on the full table and on the rows of random sources
    and targets.  The word involution in place of the swap misses."""
    tm = transition_matrix(mu, ball(radius), q)
    assume(is_generating(tm))
    swap_tm = transition_matrix(swap_measure(mu), ball(radius), q)
    dual_tm = transition_matrix(mu.dual(), ball(radius), q)
    codes, d2 = tm.codes, qdims(tm.codes, q) ** 2
    g, swap_g = green_table(tm).green, green_table(swap_tm).green
    assert relative_gap(swap_g[np.ix_(swapped(codes), swapped(codes))], g) <= SYMMETRY_TOL
    assert relative_gap((green_table(dual_tm).green * d2[:, None]).T, g * d2[:, None]) <= SYMMETRY_TOL
    involuted = heap_indices([involution(word(c)) for c in codes])
    assert relative_gap(swap_g[np.ix_(involuted, involuted)], g) > 1e3 * SYMMETRY_TOL

    picks = st.lists(st.integers(min_value=0, max_value=len(codes) - 1), min_size=1, max_size=3, unique=True)
    sources, targets = (np.array(sorted(data.draw(picks)), dtype=np.int64) for _ in range(2))
    rows = green_rows(tm, sources).source_rows(sources)
    swap_rows = green_rows(swap_tm, swapped(sources)).source_rows(swapped(sources))[:, swapped(codes)]
    assert relative_gap(swap_rows, rows) <= SYMMETRY_TOL
    dual_rows = green_rows(dual_tm, targets).source_rows(targets)[:, sources]
    assert relative_gap((dual_rows * d2[targets, None]).T, rows[:, targets] * d2[sources, None]) <= SYMMETRY_TOL


@pytest.mark.parametrize("support", [{"a": 0.35, "b": 0.65}, {"a": 0.25, "b": 0.25, "aa": 0.25, "bb": 0.25},
                                     {"a": 0.3, "b": 0.2, "ab": 0.1, "aab": 0.4}])
def test_word_involution_is_no_symmetry(support):
    # the control at radius 8, q = 0.5: the involution misses by 0.34-0.71 where the swap holds
    mu, codes = Measure(support), ball(8)
    g = green_table(transition_matrix(mu, codes, 0.5)).green
    swap_g = green_table(transition_matrix(swap_measure(mu), codes, 0.5)).green
    involuted = heap_indices([involution(word(c)) for c in codes])
    assert relative_gap(swap_g[np.ix_(swapped(codes), swapped(codes))], g) <= SYMMETRY_TOL
    assert relative_gap(swap_g[np.ix_(involuted, involuted)], g) > 0.3
