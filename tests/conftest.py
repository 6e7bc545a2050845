import numpy as np
import pytest

from aufwalk import (
    BranchContext,
    IntertwinerEngine,
    Measure,
    ModelConfig,
    ball,
    green_table,
    transition_matrix,
)
from aufwalk.fusion import CSR

Q_DEFAULT = 0.5
RNG_SEED = 20240817


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(RNG_SEED)


@pytest.fixture(scope="session")
def engine():
    return IntertwinerEngine(ModelConfig.from_q(Q_DEFAULT, n=2, tensor_cap=10))


@pytest.fixture(scope="session")
def engine12():
    # the full indecomposable-triple scan needs intermediate tensor words of
    # length 11, one past the default budget
    return IntertwinerEngine(ModelConfig.from_q(Q_DEFAULT, n=2, tensor_cap=12))


@pytest.fixture(scope="session")
def mu_letters():
    return Measure({"a": 0.5, "b": 0.5})


@pytest.fixture(scope="session")
def mu_mixed():
    return Measure({"a": 0.25, "b": 0.25, "ab": 0.5})


@pytest.fixture(scope="session")
def walk8(mu_letters):
    domain = ball(8)
    tm = transition_matrix(mu_letters, domain, Q_DEFAULT)
    return tm, green_table(tm)


def branch_context(engine, mu, z, radius):
    """The branch of z truncated at the radius, restricted from the walk of
    mu on the ball of that radius at the engine's q."""
    return BranchContext(engine, transition_matrix(mu, ball(radius), engine.q), z, radius)


def random_word(rng, max_len=8):
    length = int(rng.integers(0, max_len + 1))
    return "".join(rng.choice(["a", "b"], size=length))


def to_scipy(m):
    """The scipy CSR matrix on the arrays of a walk's fusion.CSR (no copy):
    scipy.sparse is the tests' oracle for the CSR products and their editor
    of walk weights."""
    import scipy.sparse as sp

    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def from_scipy(m):
    """The canonical fusion.CSR of a scipy sparse matrix, as a walk holds it."""
    import scipy.sparse as sp

    c = sp.csr_matrix(m, copy=True)
    c.sum_duplicates()
    return CSR(c.indptr, c.indices, c.data, c.shape)
