import numpy as np
import pytest

from domainsift.model_io import load_model, save_model
from domainsift.synthetic import generate_labeled_corpus

# (criterion, status, detail) rows appended by the release-gate tests; the
# terminal summary prints one line per criterion at the end of the run
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, status, detail in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"[{status}] {criterion}: {detail}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_blobs(n_per_class=60, d=4, gap=6.0, seed=0):
    """Two well-separated Gaussian blobs; labels 0/1."""
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=0.0, scale=1.0, size=(n_per_class, d))
    b = rng.normal(loc=gap, scale=1.0, size=(n_per_class, d))
    X = np.vstack([a, b])
    y = np.repeat(np.array([0, 1], dtype=np.int64), n_per_class)
    order = rng.permutation(X.shape[0])
    return X[order], y[order]


def saved_bytes(model, path):
    save_model(model, path)
    return path.read_bytes()


def roundtrip(model, tmp_path):
    """``model`` written to a model file under ``tmp_path`` and loaded back."""
    path = tmp_path / "roundtrip.dsmodel"
    save_model(model, path)
    return load_model(path)


@pytest.fixture
def blobs():
    return make_blobs()


@pytest.fixture(scope="session")
def small_corpus():
    """A small but realistic labeled domain corpus (300 legit / 200 dga)."""
    return generate_labeled_corpus(n_legit=300, n_dga=200, seed=123)
