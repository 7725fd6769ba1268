"""Versioned JSON serialization for every trained model kind.

A file is a one-line header, ``{"format_version":10,"sha256":"<hex>"}``,
then a body: the canonical JSON of ``{"kind", "metadata", "payload"}``. The
sha256 covers the body bytes exactly as written, so any edit to the kind,
the metadata or the payload that does not recompute it is refused. Writing
is atomic (temp file + fsync + rename) and the bytes are deterministic for
identical models, so saved files can be diffed and content-addressed.
Floats are stored via Python's shortest round-trip repr, which is exact for
binary64.

The state format is written here alone. A payload is the model's fitted
state and nothing else: ``n_features_in`` and, for each ``(attribute, dtype,
shape)`` of the class's ``FITTED_FIELDS``, the attribute under its name
minus the trailing ``_``. A dtype is a key of ``_NUMERIC``, "node", a
registered kind (stored nested) or "members": the ensemble's member payloads
keyed by exactly ``MEMBER_KINDS``, which fixes the members. A shape entry is
an int, "d" (for ``n_features_in``), or another name: a row count that every
field using it must agree on. Loading checks all of this, then the class's
``_check_state``, so a checksum-valid file loads or raises a
``ModelFormatError`` that names the path of the refused value. A loaded
model is built without its constructor, so it holds no constructor value
(such as a seed) that the file does not store.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .base import check_is_fitted
from .cluster import KMeans
from .ensemble import MEMBER_KINDS, MajorityVoteEnsemble
from .learners import (
    C45Tree,
    GaussianNaiveBayes,
    KNNClassifier,
    LogisticRegressionGD,
    PegasosSVM,
    _Node,
)
from .preprocessing import Standardizer

# version 1 files hold a kNN block-size parameter that KNNClassifier no longer takes;
# versions 1 and 2 are one JSON document whose checksum covers only its payload;
# versions 1 to 3 store every kNN training row instead of the distinct rows;
# versions 1 to 4 store the ensemble members as a list of named, flagged entries;
# versions 1 to 5 store the fingerprint of the ensemble's training corpus;
# versions 1 to 6 store the ensemble's member_params and members parameters;
# versions 1 to 7 store each model's constructor parameters next to its state;
# versions 1 to 8 hold svm weights from seeded per-row Pegasos steps;
# versions 1 to 9 store each kNN training row's stored-row number and label;
# versions 1 to 10 hold k-means fits whose draws and sums ran over every row in row order
MODEL_FORMAT_VERSION = 11
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

# numeric field dtypes: (numpy kinds accepted on load, stored dtype, value rule, rule text)
_NUMERIC = {
    "float": ("iuf", np.float64, np.isfinite, "finite"),
    "positive": ("iuf", np.float64, lambda a: np.isfinite(a) & (a > 0), "finite and > 0"),
    "count": ("i", np.int64, lambda a: a >= 0, ">= 0"),
    "label": ("i", np.int64, lambda a: (a == 0) | (a == 1), "0 or 1"),
}
# the stored fields of a c45 tree node, leaf or split
_LEAF = {"prediction": "label", "n_samples": "count", "n_errors": "count"}
_SPLIT = {**_LEAF, "feature": "count", "threshold": "float", "left": "node", "right": "node"}


class ModelIOError(Exception):
    """Base class for model file problems."""


class ModelFormatError(ModelIOError):
    """File is not a well-formed model file, or its body fails the hash check."""


class ModelVersionError(ModelIOError):
    """File was written with an unsupported format version."""


class ModelKindError(ModelIOError):
    """File holds a different model kind than requested, or an unknown one."""


def _canonical(obj):
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"model content is not serializable: {exc}") from exc


def _kind_of(model, kinds):
    for kind in kinds:
        if type(model) is KIND_REGISTRY[kind]:
            return kind
    raise ModelKindError(f"cannot save a {type(model).__name__}; saveable kinds: {sorted(kinds)}")


def _encode(model):
    """The payload of a fitted model: its fitted state."""
    check_is_fitted(model, "n_features_in_")
    state = {"n_features_in": int(model.n_features_in_)}
    for attr, dtype, _ in type(model).FITTED_FIELDS:
        state[attr[:-1]] = _encode_value(dtype, getattr(model, attr))
    return state


def _encode_value(dtype, value):
    if dtype in _NUMERIC:
        return np.asarray(value, dtype=_NUMERIC[dtype][1]).tolist()
    if dtype == "node":
        keys = _LEAF if value.is_leaf else _SPLIT
        return {key: _encode_value(keys[key], getattr(value, key)) for key in keys}
    if dtype == "members":
        return {name: _encode(estimator) for name, estimator in value}
    return _encode(value)


def _decode(cls, state, where, d=None):
    """A fitted ``cls`` from the payload at ``where``; ``d`` is the enclosing model's width."""
    _expect_keys(state, ["n_features_in", *(f[0][:-1] for f in cls.FITTED_FIELDS)], where)
    n = state["n_features_in"]
    if type(n) is not int or n < 1 or (d is not None and n != d):
        raise ModelFormatError(f"{where}.n_features_in: {n!r} is not {d or 'an int >= 1'}")
    model = cls.__new__(cls)
    model.n_features_in_ = n
    sizes = {"d": n}
    for attr, dtype, shape in cls.FITTED_FIELDS:
        at = f"{where}.{attr[:-1]}"
        setattr(model, attr, _decode_value(dtype, shape, state[attr[:-1]], sizes, at))
    if hasattr(model, "_check_state"):
        model._check_state()
    return model


def _expect_keys(value, keys, where):
    if not isinstance(value, dict):
        raise ModelFormatError(f"{where}: expected an object, got {type(value).__name__}")
    missing, unknown = set(keys) - set(value), set(value) - set(keys)
    if missing or unknown:
        raise ModelFormatError(f"{where}: missing {sorted(missing)}, unknown {sorted(unknown)}")


def _decode_value(dtype, shape, value, sizes, where):
    if dtype in _NUMERIC:
        return _decode_numeric(dtype, shape, value, sizes, where)
    if dtype == "node":
        return _decode_node(value, sizes, where)
    if dtype == "members":
        _expect_keys(value, MEMBER_KINDS, where)
        return [(kind, _decode(KIND_REGISTRY[kind], value[kind], f"{where}.{kind}", sizes["d"]))
                for kind in MEMBER_KINDS]
    return _decode(KIND_REGISTRY[dtype], value, where, sizes["d"])


def _decode_numeric(dtype, shape, value, sizes, where):
    """A checked array (a Python scalar for shape ``()``); binds unseen size names."""
    kinds, stored, rule, rule_text = _NUMERIC[dtype]
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in kinds or arr.ndim != len(shape):
        raise ModelFormatError(f"{where}: expected {dtype} numbers of shape {shape}")
    for got, name in zip(arr.shape, shape):
        want = sizes.setdefault(name, got) if isinstance(name, str) else name
        if got != want:
            raise ModelFormatError(f"{where}: shape {arr.shape} is not {shape}, {name}={want!r}")
    arr = arr.astype(stored)
    if not rule(arr).all():
        raise ModelFormatError(f"{where}: values must be {rule_text}")
    return arr.item() if arr.ndim == 0 else arr


def _decode_node(value, sizes, where):
    keys = _SPLIT if isinstance(value, dict) and "feature" in value else _LEAF
    _expect_keys(value, keys, where)
    node = _Node(None, None, None)
    for key, dtype in keys.items():
        setattr(node, key, _decode_value(dtype, (), value[key], sizes, f"{where}.{key}"))
    if not node.is_leaf and node.feature >= sizes["d"]:
        raise ModelFormatError(f"{where}.feature: {node.feature} is not below {sizes['d']}")
    return node


def save_model(model, path, metadata=None):
    """Write a fitted model to ``path`` atomically; returns file metadata.

    The model must be one of the registered kinds and fitted (serialization
    reads its fitted state).
    """
    kind = _kind_of(model, KIND_REGISTRY)
    document = {"kind": kind, "metadata": dict(metadata or {}), "payload": _encode(model)}
    body = _canonical(document).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    header = json.dumps({"format_version": MODEL_FORMAT_VERSION, "sha256": digest},
                        separators=(",", ":")).encode("utf-8") + b"\n"

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return {"path": path, "kind": kind, "sha256": digest, "bytes": len(header) + len(body)}


def _parse_json(data, path, part):
    try:
        return json.loads(data.decode("utf-8"))
    # UnicodeDecodeError and JSONDecodeError are ValueErrors
    except (RecursionError, ValueError) as exc:
        raise ModelFormatError(f"corrupt model file {path!r}: {part} is not JSON: {exc}") from None


def load_model(path, expected_kind=None):
    """Read a model file back into a fitted estimator.

    Verifies the format version, the checksum of the body, (when
    ``expected_kind`` is given) the model kind, and every state field (see
    the module docstring). The saved metadata is restored onto the model as
    ``metadata_``.
    """
    try:
        with open(path, "rb") as fh:
            line, body = fh.readline(), fh.read()
    except OSError as exc:
        raise ModelIOError(f"cannot read model file {path!r}: {exc}") from exc
    header = _parse_json(line, path, "header")
    # a version 1 or 2 file is one document, read here as the header
    if not isinstance(header, dict) or "format_version" not in header:
        raise ModelFormatError(f"corrupt model file {path!r}: no format version in line 1")
    version = header["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"model file {path!r} has format version {version!r}; "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    _expect_keys(header, ("format_version", "sha256"), f"header of {path!r}")
    if hashlib.sha256(body).hexdigest() != header["sha256"]:
        raise ModelFormatError(f"corrupt model file {path!r}: checksum mismatch")

    document = _parse_json(body, path, "body")
    _expect_keys(document, ("kind", "metadata", "payload"), f"body of {path!r}")
    kind = document["kind"]
    if not isinstance(kind, str) or kind not in KIND_REGISTRY:
        raise ModelKindError(f"model file {path!r} has unknown kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise ModelKindError(
            f"expected a {expected_kind!r} model, but {path!r} holds {kind!r}"
        )
    if not isinstance(document["metadata"], dict):
        raise ModelFormatError(f"corrupt model file {path!r}: metadata is not an object")
    try:
        model = _decode(KIND_REGISTRY[kind], document["payload"], "payload")
    # the decoders raise ModelFormatError; _check_state raises ValueError
    except (ModelFormatError, RecursionError, ValueError) as exc:
        raise ModelFormatError(f"malformed {kind!r} model in {path!r}: {exc}") from None
    model.metadata_ = document["metadata"]
    return model
