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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aufwalk.cli import EXIT_AUDIT, EXIT_CAP, EXIT_CONFIG, EXIT_OK, main
from aufwalk.fusion import Measure, dual_audit, fuse, is_generating, transition_matrix, transition_prob
from aufwalk.words import (
    EMPTY,
    ball,
    ball_qdims,
    branch,
    format_word,
    heap_index,
    heap_indices,
    parse_word,
    qdim,
    qdims,
)

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
    assert ball(len(w))[i] == w
    assert heap_indices([w, w + "a", "b" + w]).tolist() == [i, heap_index(w + "a"), heap_index("b" + w)]


@pytest.mark.parametrize("radius", [0, 1, 5, 9])
def test_heap_indices_enumerate_ball(radius):
    words_ = ball(radius)
    assert heap_indices(words_).tolist() == list(range(len(words_)))
    assert heap_indices(words_[::-1]).tolist() == list(range(len(words_)))[::-1]
    assert words_ == sorted(words_, key=lambda w: (len(w), w))


@PROPERTY
@given(deformations, st.integers(min_value=0, max_value=9), st.lists(words, max_size=6))
def test_qdim_array_matches_scalar(q, radius, extra):
    want = np.array([qdim(w, q) for w in ball(radius)])
    assert np.abs(ball_qdims(radius, q) / want - 1.0).max() <= 1e-14
    if extra:
        got = qdims(heap_indices(extra), q)
        assert np.abs(got / np.array([qdim(w, q) for w in extra]) - 1.0).max() <= 1e-14


@PROPERTY
@given(measures_with_root(), deformations, st.text(alphabet="ab", min_size=1, max_size=2))
def test_assembled_matrix_matches_transition_prob(mu, q, x):
    # a ball, a branch and a reversed sub-domain that skips the root
    for domain in (ball(4), branch(x, 5), ball(5)[40:3:-3]):
        tm = transition_matrix(mu, domain, q)
        got = tm.matrix.toarray()
        want = np.array([[transition_prob(mu, s, t, q) for t in domain] for s in domain])
        assert np.array_equal(got != 0.0, want != 0.0)
        nz = want != 0.0
        assert np.abs(got[nz] / want[nz] - 1.0).max(initial=0.0) <= 1e-14


@PROPERTY
@given(measures(), deformations)
def test_interior_rows_stochastic(mu, q):
    assume(is_generating(mu, RADIUS, q))
    tm = transition_matrix(mu, ball(RADIUS), q)
    sums = tm.row_sums()
    interior = tm.interior_words(RADIUS)
    assert interior
    assert max(abs(sums[tm.index[w]] - 1.0) for w in interior) < 1e-12


@PROPERTY
@given(measures(), deformations)
def test_duality_identity(mu, q):
    assert dual_audit(transition_matrix(mu, ball(5), q)) < 1e-12


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
    "tolerances": {"solver": 1e-10, "audit": 1e-8},
    "seed": 7,
}
FUZZ_KEYS = sorted(FUZZ_BASE) + ["qRadius", "boundarySources"]
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
