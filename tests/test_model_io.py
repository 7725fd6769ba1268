import hashlib
import json
import os

import numpy as np
import pytest

from domainsift.cluster import KMeans
from domainsift.ensemble import MajorityVoteEnsemble
from domainsift.learners import (
    C45Tree,
    GaussianNaiveBayes,
    KNNClassifier,
    LogisticRegressionGD,
    PegasosSVM,
)
from domainsift.model_io import (
    MODEL_FORMAT_VERSION,
    ModelFormatError,
    ModelIOError,
    ModelKindError,
    ModelVersionError,
    load_model,
    save_model,
)
from domainsift.preprocessing import Standardizer

from conftest import make_blobs


def fitted_models():
    X, y = make_blobs(n_per_class=25, seed=4)
    yield "standardizer", Standardizer().fit(X), X
    for cls in (C45Tree, KNNClassifier, LogisticRegressionGD, GaussianNaiveBayes, PegasosSVM):
        yield cls.__name__, cls().fit(X, y), X
    yield "ensemble", MajorityVoteEnsemble(seed=0).fit(X, y), X
    yield "kmeans", KMeans(k=2, seed=0).fit(X), X


@pytest.mark.parametrize("name,model,X", list(fitted_models()), ids=lambda v: str(v)[:16])
class TestRoundtrip:
    def test_roundtrip_behavior(self, name, model, X, tmp_path):
        path = tmp_path / "m.dsmodel"
        info = save_model(model, path)
        assert info["bytes"] == os.path.getsize(path)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        if hasattr(model, "predict"):
            np.testing.assert_array_equal(model.predict(X), loaded.predict(X))
        else:
            np.testing.assert_allclose(model.transform(X), loaded.transform(X))

    def test_byte_determinism(self, name, model, X, tmp_path):
        p1, p2 = tmp_path / "a.dsmodel", tmp_path / "b.dsmodel"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestDocumentShape:
    @pytest.fixture()
    def saved(self, tmp_path):
        X, y = make_blobs(n_per_class=20, seed=1)
        model = C45Tree().fit(X, y)
        path = tmp_path / "tree.dsmodel"
        save_model(model, path, metadata={"note": "test"})
        return model, path

    def test_json_document_fields(self, saved):
        model, path = saved
        doc = json.loads(path.read_text())
        assert doc["format_version"] == MODEL_FORMAT_VERSION
        assert doc["kind"] == "c45"
        assert doc["metadata"] == {"note": "test"}
        assert doc["fingerprint"] == model.fingerprint_
        assert len(doc["payload_sha256"]) == 64

    def test_metadata_restored(self, saved):
        _, path = saved
        loaded = load_model(path)
        assert loaded.metadata_ == {"note": "test"}
        assert loaded.fingerprint_ is not None

    def test_expected_kind_accepts_match(self, saved):
        _, path = saved
        assert load_model(path, expected_kind="c45") is not None

    def test_expected_kind_rejects_mismatch(self, saved):
        _, path = saved
        with pytest.raises(ModelKindError):
            load_model(path, expected_kind="ensemble")


class TestCorruption:
    @pytest.fixture()
    def path(self, tmp_path):
        X, y = make_blobs(n_per_class=20, seed=2)
        p = tmp_path / "m.dsmodel"
        save_model(GaussianNaiveBayes().fit(X, y), p)
        return p

    def test_not_json(self, path):
        path.write_text("definitely not json{")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated(self, path):
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_payload_tamper_breaks_checksum(self, path):
        doc = json.loads(path.read_text())
        doc["payload"]["state"]["class_prior"][0] += 0.25
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_unknown_version(self, path):
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError, match="99"):
            load_model(path)

    def test_unknown_kind(self, path):
        doc = json.loads(path.read_text())
        doc["kind"] = "mystery"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelKindError):
            load_model(path)

    def test_non_string_kind(self, path):
        doc = json.loads(path.read_text())
        doc["kind"] = ["nb"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelKindError):
            load_model(path)

    def test_missing_payload(self, path):
        doc = json.loads(path.read_text())
        del doc["payload"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelIOError):
            load_model(tmp_path / "absent.dsmodel")


def rewrite_payload(path, edit):
    """Apply ``edit`` to a saved file's payload and store a matching checksum."""
    doc = json.loads(path.read_text())
    edit(doc["payload"])
    canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc["payload_sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(doc))


class TestMalformedPayload:
    @pytest.fixture()
    def fitted(self):
        return make_blobs(n_per_class=20, seed=5)

    def test_version_1_file_refused(self, fitted, tmp_path):
        path = tmp_path / "knn.dsmodel"
        save_model(KNNClassifier().fit(*fitted), path)
        # what version 1 wrote: the format number and kNN's old chunk_size parameter
        doc = json.loads(path.read_text())
        doc["format_version"] = 1
        path.write_text(json.dumps(doc))
        rewrite_payload(path, lambda p: p["params"].update(chunk_size=None))
        with pytest.raises(ModelVersionError, match="version 1"):
            load_model(path)

    def test_unknown_param_is_format_error(self, fitted, tmp_path):
        path = tmp_path / "knn.dsmodel"
        save_model(KNNClassifier().fit(*fitted), path)
        rewrite_payload(path, lambda p: p["params"].update(chunk_size=7))
        with pytest.raises(ModelFormatError, match="chunk_size"):
            load_model(path)

    def test_missing_state_field_is_format_error(self, fitted, tmp_path):
        path = tmp_path / "tree.dsmodel"
        save_model(C45Tree().fit(*fitted), path)
        rewrite_payload(path, lambda p: p["state"].pop("tree"))
        with pytest.raises(ModelFormatError, match="tree"):
            load_model(path)

    def test_missing_member_field_is_format_error(self, fitted, tmp_path):
        path = tmp_path / "ens.dsmodel"
        save_model(MajorityVoteEnsemble(seed=0).fit(*fitted), path)
        rewrite_payload(path, lambda p: p["state"]["members"][0]["state"].pop("tree"))
        with pytest.raises(ModelFormatError):
            load_model(path, expected_kind="ensemble")

    def test_non_object_metadata_is_format_error(self, fitted, tmp_path):
        path = tmp_path / "nb.dsmodel"
        save_model(GaussianNaiveBayes().fit(*fitted), path)
        doc = json.loads(path.read_text())
        doc["metadata"] = ["sld"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="metadata"):
            load_model(path)


class TestAtomicity:
    def test_unfitted_model_leaves_no_file(self, tmp_path):
        target = tmp_path / "x.dsmodel"
        with pytest.raises(Exception):
            save_model(C45Tree(), target)  # not fitted
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no temp litter

    def test_overwrite_existing(self, tmp_path):
        X, y = make_blobs(n_per_class=15, seed=3)
        target = tmp_path / "m.dsmodel"
        save_model(C45Tree().fit(X, y), target)
        first = target.read_bytes()
        save_model(C45Tree(max_depth=1).fit(X, y), target)
        assert target.read_bytes() != first
        assert load_model(target).max_depth == 1

    def test_unregistered_type_rejected(self, tmp_path):
        class Weird:
            pass

        with pytest.raises(ModelIOError):
            save_model(Weird(), tmp_path / "w.dsmodel")
