import copy
import csv
import hashlib
import json

import numpy as np
import pytest

from domainsift.ensemble import SCALED_KINDS
from domainsift.features import FEATURE_NAMES
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


def read_back_features(stream):
    """``(X, y)`` from a feature CSV that ``write_feature_csv`` wrote, checking the
    header and, on each row, 8 float cells plus a 0/1 label when the header has one."""
    header, *rows = csv.reader(stream)
    assert header in (list(FEATURE_NAMES), [*FEATURE_NAMES, "label"]), header
    assert all(len(row) == len(header) for row in rows), rows
    X = np.array([[float(cell) for cell in row[:8]] for row in rows]).reshape(len(rows), 8)
    if len(header) == 8:
        return X, None
    assert {row[8] for row in rows} <= {"0", "1"}, rows
    return X, np.array([int(row[8]) for row in rows], dtype=np.int64)


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
    """``document``, in the layout of format 7, written in the layout of format
    versions 1 and 2: one JSON object whose checksum covers its payload alone."""
    payload = json.dumps(document["payload"], sort_keys=True, separators=(",", ":"))
    path.write_text(json.dumps({
        **document,
        "format_version": version,
        "fingerprint": document["payload"]["state"].get("fingerprint"),
        "payload_sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }))


# the constructor parameters format 7 stored next to each fitted state, at the values
# every model was built with; a seed is the one in the file's metadata
FORMAT_7_PARAMS = {
    "standardizer": {},
    "c45": {"cf": 0.25, "max_depth": 25, "min_leaf": 5, "prune": True},
    "knn": {"k": 5},
    "logreg": {"epochs": 500, "l2": 1e-4, "lr": 0.1, "tol": 1e-6},
    "nb": {"var_floor": 1e-9},
    "svm": {"epochs": 50, "lam": 1e-4, "seed": None},
    "ensemble": {"seed": None},
    "kmeans": {"k": None, "max_iter": 300, "n_restarts": 1, "seed": None, "tol": 1e-4},
}


def as_format_9(document):
    """``document`` in the layout of format 9: each kNN state holds ``row`` and ``y``,
    one entry per training row, in place of ``counts`` and ``ones``."""
    document = copy.deepcopy(document)
    state = document["payload"]
    if document["kind"] == "ensemble":
        state = state["members"]["knn"]
    if document["kind"] in ("knn", "ensemble"):
        counts, ones = state.pop("counts"), state.pop("ones")
        state["row"] = [j for j, count in enumerate(counts) for _ in range(count)]
        state["y"] = [int(i < one) for count, one in zip(counts, ones) for i in range(count)]
    return document


def as_format_7(document):
    """``document`` in the layout of format 7: every payload, each nested one too, is
    ``{"params", "state"}``, with the state as formats 8 and 9 store it."""
    document = as_format_9(document)
    seed = document["metadata"].get("seed", 0)

    def wrap(kind, state):
        params = dict(FORMAT_7_PARAMS[kind])
        if "seed" in params:
            params["seed"] = seed
        if kind == "kmeans":
            params["k"] = len(state["centroids"])
        return {"params": params, "state": state}

    payload = document["payload"]
    if document["kind"] == "ensemble":
        payload["standardizer"] = wrap("standardizer", payload["standardizer"])
        payload["members"] = {kind: wrap(kind, state)
                              for kind, state in payload["members"].items()}
    document["payload"] = wrap(document["kind"], payload)
    return document


def as_format_6(document):
    """``document`` in the layout of format 7, with an ensemble's parameters in the
    layout of format 6: they also hold ``member_params`` and ``members``, both null."""
    document = as_format_7(document)
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
