"""Versioned JSON serialization for every trained model kind.

Files are self-describing: format version, model kind, full constructor
parameters, fitted state, training-corpus fingerprint, and a sha256 over the
canonical payload encoding. Writing is atomic (temp file + rename) and the
byte content is deterministic for identical models, so saved files can be
diffed and content-addressed. Floats are stored via Python's shortest
round-trip repr, which is exact for binary64.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from .cluster import KMeans
from .ensemble import MajorityVoteEnsemble
from .learners import (
    C45Tree,
    GaussianNaiveBayes,
    KNNClassifier,
    LogisticRegressionGD,
    PegasosSVM,
)
from .preprocessing import Standardizer

# version 1 files hold a kNN block-size parameter that KNNClassifier no longer takes
MODEL_FORMAT_VERSION = 2
MODEL_EXTENSION = ".dsmodel"

KIND_REGISTRY = {
    "standardizer": Standardizer,
    "c45": C45Tree,
    "knn": KNNClassifier,
    "logreg": LogisticRegressionGD,
    "nb": GaussianNaiveBayes,
    "svm": PegasosSVM,
    "ensemble": MajorityVoteEnsemble,
    "kmeans": KMeans,
}
_KIND_BY_TYPE = {cls: kind for kind, cls in KIND_REGISTRY.items()}


class ModelIOError(Exception):
    """Base class for model file problems."""


class ModelFormatError(ModelIOError):
    """File is not a well-formed model file, or its payload fails the hash check."""


class ModelVersionError(ModelIOError):
    """File was written with an unsupported format version."""


class ModelKindError(ModelIOError):
    """File holds a different model kind than requested, or an unknown one."""


def _canonical(obj):
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"model content is not serializable: {exc}") from exc


def save_model(model, path, metadata=None):
    """Write a fitted model to ``path`` atomically; returns file metadata.

    The model must be one of the registered kinds and fitted (serialization
    reads its fitted state).
    """
    kind = _KIND_BY_TYPE.get(type(model))
    if kind is None:
        raise ModelKindError(
            f"cannot save a {type(model).__name__}; registered kinds: "
            f"{sorted(KIND_REGISTRY)}"
        )
    payload = {"params": model.get_params(), "state": model.get_state()}
    digest = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": kind,
        "fingerprint": getattr(model, "fingerprint_", None),
        "metadata": dict(metadata or {}),
        "payload": payload,
        "payload_sha256": digest,
    }
    text = _canonical(document)

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return {"path": path, "kind": kind, "payload_sha256": digest, "bytes": len(text)}


def load_model(path, expected_kind=None):
    """Read a model file back into a fitted estimator.

    Verifies the format version, the payload checksum, and (when
    ``expected_kind`` is given) the model kind. The training-corpus
    fingerprint and the saved metadata are restored onto the model as
    ``fingerprint_`` and ``metadata_``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ModelIOError(f"cannot read model file {path!r}: {exc}") from exc
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"corrupt model file {path!r}: {exc}") from None
    if not isinstance(document, dict) or "payload" not in document:
        raise ModelFormatError(f"corrupt model file {path!r}: missing payload")

    version = document.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"model file {path!r} has format version {version!r}; "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    kind = document.get("kind")
    if not isinstance(kind, str) or kind not in KIND_REGISTRY:
        raise ModelKindError(f"model file {path!r} has unknown kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise ModelKindError(
            f"expected a {expected_kind!r} model, but {path!r} holds {kind!r}"
        )
    digest = hashlib.sha256(_canonical(document["payload"]).encode("utf-8")).hexdigest()
    if digest != document.get("payload_sha256"):
        raise ModelFormatError(f"corrupt payload in {path!r}: checksum mismatch")

    payload = document["payload"]
    try:
        model = KIND_REGISTRY[kind](**payload["params"])
        model.set_state(payload["state"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed {kind!r} payload in {path!r}: {exc!r}") from None
    if document.get("fingerprint") is not None:
        model.fingerprint_ = document["fingerprint"]
    metadata = document.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ModelFormatError(f"corrupt model file {path!r}: metadata is not an object")
    model.metadata_ = metadata
    return model
