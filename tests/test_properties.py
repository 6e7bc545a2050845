"""Property tests over random words, deformations and generating measures.

Hypothesis runs derandomized with few examples, so the suite stays
deterministic and quick; each property is also pinned on fixed inputs in the
module-specific test files.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aufwalk.fusion import Measure, dual_audit, fuse, is_generating, transition_matrix
from aufwalk.words import EMPTY, ball, format_word, parse_word, qdim

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
    assert dual_audit(mu, 5, q) < 1e-12


@PROPERTY
@given(words)
def test_word_round_trip(w):
    text = format_word(w)
    assert parse_word(text) == w
    assert format_word(parse_word(text)) == text
    assert (text == "e") == (w == EMPTY)
