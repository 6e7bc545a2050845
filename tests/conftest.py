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
    return tm, green_table(tm, base="")


@pytest.fixture(scope="session")
def branch_ctx(engine):
    return BranchContext(engine, "a", 6)


def random_word(rng, max_len=8):
    length = int(rng.integers(0, max_len + 1))
    return "".join(rng.choice(["a", "b"], size=length))
