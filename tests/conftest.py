import copy
import hashlib
import json

import numpy as np
import pytest

from domainsift.ensemble import SCALED_KINDS
from domainsift.model_io import MODEL_FORMAT_VERSION, load_model, save_model
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


def read_model_document(path):
    """The ``{"kind", "metadata", "payload"}`` body of a saved model file."""
    _, body = path.read_bytes().split(b"\n", 1)
    return json.loads(body)


def write_model_document(path, document, version=MODEL_FORMAT_VERSION):
    """Write ``document`` as a model file body under a header with its checksum."""
    body = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = {"format_version": version, "sha256": hashlib.sha256(body).hexdigest()}
    path.write_bytes(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n" + body)


def write_single_document_model(path, document, version):
    """``document`` in the layout of format versions 1 and 2: one JSON object
    whose checksum covers its payload alone."""
    payload = json.dumps(document["payload"], sort_keys=True, separators=(",", ":"))
    path.write_text(json.dumps({
        **document,
        "format_version": version,
        "fingerprint": document["payload"]["state"].get("fingerprint"),
        "payload_sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }))


def as_format_6(document):
    """``document`` with an ensemble's parameters in the layout of format 6: they also
    hold ``member_params`` and ``members``, both null."""
    document = copy.deepcopy(document)
    if document["kind"] == "ensemble":
        document["payload"]["params"].update(member_params=None, members=None)
    return document


def as_format_5(document):
    """``document`` in the layout of format 6, with an ensemble's state in the layout
    of format 5: it also holds the ``fingerprint`` of the training corpus, a row count
    and a sha256."""
    document = as_format_6(document)
    if document["kind"] == "ensemble":
        state = document["payload"]["state"]
        n_rows = len(state["members"]["knn"]["state"]["y"])
        state["fingerprint"] = {"n_rows": n_rows, "sha256": hashlib.sha256(b"corpus").hexdigest()}
    return document


def as_format_4(document):
    """``document`` in the layout of format 5, with an ensemble's members in the
    layout of format 4: a list of entries that also hold ``name``, ``kind`` and
    ``uses_standardizer``, next to an ensemble ``version`` of 1."""
    document = as_format_5(document)
    if document["kind"] == "ensemble":
        state = document["payload"]["state"]
        state["version"] = 1
        state["members"] = [
            {"name": kind, "kind": kind, "uses_standardizer": kind in SCALED_KINDS, **member}
            for kind, member in state["members"].items()
        ]
    return document


def as_format_3(document):
    """``document`` in the layout of format 4, with each kNN state in the layout
    of format 3: all n training rows in ``X`` and no ``row`` field."""
    document = as_format_4(document)
    payload = document["payload"]
    knns = [payload] if document["kind"] == "knn" else [
        m for m in payload["state"].get("members", []) if m["kind"] == "knn"]
    for knn in knns:
        state = knn["state"]
        state["X"] = [state["X"][i] for i in state.pop("row")]
    return document


@pytest.fixture
def blobs():
    return make_blobs()


@pytest.fixture(scope="session")
def small_corpus():
    """A small but realistic labeled domain corpus (300 legit / 200 dga)."""
    return generate_labeled_corpus(n_legit=300, n_dga=200, seed=123)
