import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from domainsift.cli import main
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


def _member(payload, kind):
    return next(m for m in payload["state"]["members"] if m["kind"] == kind)


def _set_root_feature(payload):
    tree = _member(payload, "c45")["state"]["tree"]
    assert "feature" in tree, "the fixture tree must split at its root"
    tree["feature"] = 99


def _drop_knn_columns(payload):
    state = _member(payload, "knn")["state"]
    state["X"] = [row[:7] for row in state["X"]]


def _shorten_knn_y(payload):
    del _member(payload, "knn")["state"]["y"][-50:]


def _negative_nb_variance(payload):
    _member(payload, "nb")["state"]["var"][0][0] = -1


# checksum-valid edits of a trained ensemble that used to load and then crash,
# mispredict or misreport; each must now be refused when the file is loaded
STATE_EDITS = {
    "c45_root_feature_99": _set_root_feature,
    "knn_y_50_short": _shorten_knn_y,
    "knn_k_string": lambda p: _member(p, "knn")["params"].update(k="5"),
    "knn_k_zero": lambda p: _member(p, "knn")["params"].update(k=0),
    "four_members": lambda p: p["state"]["members"].pop(),
    "nb_negative_variance": _negative_nb_variance,
    "ensemble_width_string": lambda p: p["state"].update(n_features_in="8"),
    "knn_X_7_columns": _drop_knn_columns,
    "logreg_coef_7_entries": lambda p: _member(p, "logreg")["state"]["coef"].pop(),
    "ensemble_version_9": lambda p: p["state"].update(version=9),
}


class TestStateChecks:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("state")
        assert main(["generate", "--out", str(root), "--seed", "3", "--n-legit", "300",
                     "--n-dga", "200", "--census-n", "200"]) == 0
        assert main(["train", "--in", str(root / "labeled.csv"),
                     "--out", str(root / "model.dsmodel")]) == 0
        return root

    @pytest.mark.parametrize("edit", list(STATE_EDITS))
    def test_edit_refused_on_load_and_by_predict(self, trained, edit, tmp_path, capsys):
        path = tmp_path / "edited.dsmodel"
        path.write_bytes((trained / "model.dsmodel").read_bytes())
        rewrite_payload(path, STATE_EDITS[edit])
        with pytest.raises(ModelFormatError):
            load_model(path)
        capsys.readouterr()
        assert main(["predict", "--in", str(trained / "census.tsv"), "--model", str(path),
                     "--out", str(tmp_path / "p")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("ERROR"), err

    def test_unedited_model_loads(self, trained):
        assert load_model(trained / "model.dsmodel").n_features_in_ == 8


def _payload_paths(node, prefix=()):
    """Every key/index path below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _payload_paths(child, prefix + (key,))


REPLACEMENTS = {"none": None, "string": "x", "negative": -1}


def _mutate(value, how):
    """``value`` replaced, or as a list one element short or one column wide."""
    if how in REPLACEMENTS:
        return REPLACEMENTS[how]
    rows = value if isinstance(value, list) else [value]
    if how == "short":
        return rows[:-1]
    if rows and all(isinstance(row, list) for row in rows):
        return [row + row[-1:] for row in rows]
    return rows + rows[-1:]


class TestFuzz:
    """A checksum-valid mutation either fails to load or loads a working model."""

    X, y = make_blobs(n_per_class=8, d=3, seed=9)
    QUERY = np.random.default_rng(0).normal(scale=4.0, size=(7, 3))

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "ens.dsmodel"
        save_model(MajorityVoteEnsemble(seed=0).fit(self.X, self.y), path)
        doc = json.loads(path.read_text())
        return doc, sorted(_payload_paths(doc["payload"]), key=str)

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_payload(self, saved, tmp_path, data):
        doc, paths = saved
        path = data.draw(st.sampled_from(paths))
        how = data.draw(st.sampled_from(["delete", *REPLACEMENTS, "short", "wide"]))

        def edit(payload):
            *parents, last = path
            for key in parents:
                payload = payload[key]
            if how == "delete":
                del payload[last]
            else:
                payload[last] = _mutate(payload[last], how)

        target = tmp_path / "mutated.dsmodel"
        target.write_text(json.dumps(doc))
        rewrite_payload(target, edit)
        try:
            model = load_model(target)
        except ModelIOError:
            return
        labels = model.predict(self.QUERY)
        assert labels.shape == (self.QUERY.shape[0],)
        assert set(labels.tolist()) <= {0, 1}
