import hashlib
import inspect
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from domainsift import model_io
from domainsift.cli import main
from domainsift.cluster import KMeans
from domainsift.ensemble import MEMBER_KINDS, MajorityVoteEnsemble
from domainsift.learners import (
    C45Tree,
    GaussianNaiveBayes,
    KNNClassifier,
    LogisticRegressionGD,
    PegasosSVM,
)
from domainsift.model_io import (
    KIND_REGISTRY,
    MODEL_FORMAT_VERSION,
    ModelFormatError,
    ModelIOError,
    ModelKindError,
    ModelVersionError,
    load_model,
    save_model,
)
from domainsift.preprocessing import Standardizer

from conftest import (
    as_format_3,
    as_format_4,
    as_format_5,
    as_format_6,
    as_format_7,
    make_blobs,
    read_model_document,
    write_model_document,
    write_single_document_model,
)


# each model's label in test ids: its class and the hyperparameters it is built with
MODEL_LABELS = {
    Standardizer: "Standardizer()",
    C45Tree: "C45Tree(max_depth=25, min_leaf=5, cf=0.25, prune=True)",
    KNNClassifier: "KNNClassifier(k=5)",
    LogisticRegressionGD: "LogisticRegressionGD(lr=0.1, epochs=500, l2=0.0001, tol=1e-06)",
    GaussianNaiveBayes: "GaussianNaiveBayes(var_floor=1e-09)",
    PegasosSVM: "PegasosSVM(lam=0.0001, steps=5000)",
    MajorityVoteEnsemble: "MajorityVoteEnsemble()",
    KMeans: "KMeans(k=2, seed=0, max_iter=300, tol=0.0001)",
}


def model_id(value):
    return MODEL_LABELS.get(type(value), str(value))[:16]


def fitted_models():
    X, y = make_blobs(n_per_class=25, seed=4)
    yield "standardizer", Standardizer().fit(X), X
    for cls in (C45Tree, KNNClassifier, LogisticRegressionGD, GaussianNaiveBayes, PegasosSVM):
        yield cls.__name__, cls().fit(X, y), X
    yield "ensemble", MajorityVoteEnsemble().fit(X, y), X
    yield "kmeans", KMeans(k=2, seed=0).fit(X), X


def test_constructor_parameters_of_registered_kinds():
    # hyperparameters are constants: k-means' seed and k are all a caller can set
    parameters = {kind: list(inspect.signature(cls).parameters)
                  for kind, cls in KIND_REGISTRY.items()}
    assert parameters == {"standardizer": [], "c45": [], "knn": [], "logreg": [], "nb": [],
                          "svm": [], "ensemble": [], "kmeans": ["k", "seed"]}


@pytest.mark.parametrize("name,model,X", list(fitted_models()), ids=model_id)
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
        _, path = saved
        raw = path.read_bytes()
        line, body = raw.split(b"\n", 1)
        digest = hashlib.sha256(body).hexdigest()
        assert line == b'{"format_version":%d,"sha256":"%s"}' % (MODEL_FORMAT_VERSION,
                                                                   digest.encode())
        doc = json.loads(body)
        assert sorted(doc) == ["kind", "metadata", "payload"]
        assert doc["kind"] == "c45"
        assert doc["metadata"] == {"note": "test"}
        assert body == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    def test_metadata_restored(self, saved):
        _, path = saved
        assert load_model(path).metadata_ == {"note": "test"}

    def test_save_reports_checksum_and_size(self, tmp_path):
        X, y = make_blobs(n_per_class=20, seed=1)
        path = tmp_path / "nb.dsmodel"
        info = save_model(GaussianNaiveBayes().fit(X, y), path)
        raw = path.read_bytes()
        assert info["bytes"] == len(raw)
        assert info["sha256"] == hashlib.sha256(raw.split(b"\n", 1)[1]).hexdigest()

    def test_ensemble_state_fields(self, tmp_path):
        X, y = make_blobs(n_per_class=20, seed=1)
        path = tmp_path / "ens.dsmodel"
        save_model(MajorityVoteEnsemble().fit(X, y), path)
        payload = read_model_document(path)["payload"]
        assert sorted(payload) == ["members", "n_features_in", "standardizer"]
        assert sorted(payload["members"]["svm"]) == ["coef", "intercept", "n_features_in"]

    @pytest.mark.parametrize("name,model,X", list(fitted_models()), ids=model_id)
    def test_loaded_model_holds_no_constructor_value(self, name, model, X, tmp_path):
        # a seed is not part of the fitted state, so the file does not store it
        path = tmp_path / "m.dsmodel"
        save_model(model, path)
        loaded = load_model(path)
        assert not hasattr(loaded, "seed") and not hasattr(loaded, "k")

    def test_canonical_encoding_once_per_save_never_on_load(self, tmp_path, monkeypatch):
        calls = []
        encode = model_io._canonical
        monkeypatch.setattr(model_io, "_canonical", lambda obj: calls.append(1) or encode(obj))
        X, y = make_blobs(n_per_class=20, seed=1)
        path = tmp_path / "ens.dsmodel"
        save_model(MajorityVoteEnsemble().fit(X, y), path)
        assert len(calls) == 1
        load_model(path)
        assert len(calls) == 1

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
        line, body = path.read_bytes().split(b"\n", 1)
        doc = json.loads(body)
        doc["payload"]["class_prior"][0] += 0.25
        path.write_bytes(line + b"\n" + json.dumps(doc).encode())
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda raw: raw.replace(b'"kind":"nb"', b'"kind":"c45"'),
        lambda raw: raw.replace(b'"metadata":{}', b'"metadata":{"mode":"full"}'),
        lambda raw: raw + b" ",
    ], ids=["kind", "metadata", "trailing_space"])
    def test_body_edit_breaks_checksum(self, path, edit):
        raw = path.read_bytes()
        path.write_bytes(edit(raw))
        assert path.read_bytes() != raw
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_unknown_version(self, path):
        write_model_document(path, read_model_document(path), version=99)
        with pytest.raises(ModelVersionError, match="99"):
            load_model(path)

    def test_unknown_kind(self, path):
        doc = read_model_document(path)
        doc["kind"] = "mystery"
        write_model_document(path, doc)
        with pytest.raises(ModelKindError):
            load_model(path)

    def test_non_string_kind(self, path):
        doc = read_model_document(path)
        doc["kind"] = ["nb"]
        write_model_document(path, doc)
        with pytest.raises(ModelKindError):
            load_model(path)

    def test_missing_payload(self, path):
        doc = read_model_document(path)
        del doc["payload"]
        write_model_document(path, doc)
        with pytest.raises(ModelFormatError, match="payload"):
            load_model(path)

    def test_top_level_fingerprint_refused(self, path):
        doc = read_model_document(path)
        doc["fingerprint"] = {"n_rows": 1, "sha256": "0" * 64}
        write_model_document(path, doc)
        with pytest.raises(ModelFormatError, match="fingerprint"):
            load_model(path)

    @pytest.mark.parametrize("raw", [
        b"\xff",
        b'{"format_version":3,"sha256":"\xff"}\n{}',
        b"[" * 100_000,
        b"3\n{}",
        b"{}",
    ], ids=["ff_byte", "ff_in_header", "deep_nesting", "number_header", "empty_object"])
    def test_header_not_json_object(self, path, raw):
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("body", [b"\xff\xfe", b'{"kind":"nb",', b"[" * 100_000],
                             ids=["not_utf8", "not_json", "deep_nesting"])
    def test_checksummed_body_not_json(self, path, body):
        digest = hashlib.sha256(body).hexdigest()
        path.write_bytes(b'{"format_version":%d,"sha256":"%s"}\n' % (MODEL_FORMAT_VERSION,
                                                                      digest.encode()) + body)
        with pytest.raises(ModelFormatError, match="body"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelIOError):
            load_model(tmp_path / "absent.dsmodel")


def rewrite_payload(path, edit):
    """Apply ``edit`` to a saved file's payload and store a matching checksum."""
    doc = read_model_document(path)
    edit(doc["payload"])
    write_model_document(path, doc)


class TestMalformedPayload:
    @pytest.fixture()
    def fitted(self):
        return make_blobs(n_per_class=20, seed=5)

    def test_version_1_file_refused(self, fitted, tmp_path):
        path = tmp_path / "knn.dsmodel"
        save_model(KNNClassifier().fit(*fitted), path)
        # what version 1 wrote: one document, and kNN's old chunk_size parameter
        doc = as_format_7(read_model_document(path))
        doc["payload"]["params"]["chunk_size"] = None
        write_single_document_model(path, doc, version=1)
        with pytest.raises(ModelVersionError, match="version 1"):
            load_model(path)

    def test_version_2_file_refused(self, fitted, tmp_path):
        path = tmp_path / "knn.dsmodel"
        save_model(KNNClassifier().fit(*fitted), path)
        write_single_document_model(path, as_format_7(read_model_document(path)), version=2)
        with pytest.raises(ModelVersionError, match="version 2"):
            load_model(path)

    def test_version_3_file_refused(self, fitted, tmp_path):
        path = tmp_path / "knn.dsmodel"
        save_model(KNNClassifier().fit(*fitted), path)
        doc = as_format_3(read_model_document(path))
        assert len(doc["payload"]["state"]["X"]) == 40
        write_model_document(path, doc, version=3)
        with pytest.raises(ModelVersionError, match="version 3"):
            load_model(path)

    def test_version_4_file_refused(self, fitted, tmp_path):
        path = tmp_path / "ens.dsmodel"
        save_model(MajorityVoteEnsemble().fit(*fitted), path)
        doc = as_format_4(read_model_document(path))
        assert [m["name"] for m in doc["payload"]["state"]["members"]] == list(MEMBER_KINDS)
        write_model_document(path, doc, version=4)
        with pytest.raises(ModelVersionError, match="version 4"):
            load_model(path)

    def test_version_5_file_refused(self, fitted, tmp_path):
        path = tmp_path / "ens.dsmodel"
        save_model(MajorityVoteEnsemble().fit(*fitted), path)
        doc = as_format_5(read_model_document(path))
        assert doc["payload"]["state"]["fingerprint"]["n_rows"] == 40
        write_model_document(path, doc, version=5)
        with pytest.raises(ModelVersionError, match="version 5"):
            load_model(path)

    def test_version_6_file_refused(self, fitted, tmp_path):
        path = tmp_path / "ens.dsmodel"
        save_model(MajorityVoteEnsemble().fit(*fitted), path)
        doc = as_format_6(read_model_document(path))
        assert doc["payload"]["params"] == {"member_params": None, "members": None, "seed": 0}
        write_model_document(path, doc, version=6)
        with pytest.raises(ModelVersionError, match="version 6"):
            load_model(path)
        # under the current header, a payload of params and state is refused
        write_model_document(path, doc)
        with pytest.raises(ModelFormatError, match=r"payload: missing \[.*\], "
                                                   r"unknown \['params', 'state'\]"):
            load_model(path)

    def test_version_7_file_refused(self, fitted, tmp_path):
        path = tmp_path / "ens.dsmodel"
        save_model(MajorityVoteEnsemble().fit(*fitted), path)
        doc = as_format_7(read_model_document(path))
        assert doc["payload"]["params"] == {"seed": 0}
        assert doc["payload"]["state"]["members"]["knn"]["params"] == {"k": 5}
        write_model_document(path, doc, version=7)
        with pytest.raises(ModelVersionError, match="version 7"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda p: {"params": {"k": 5}, "state": p},
        lambda p: {**p, "params": {"k": 5}},
    ], ids=["wrapping_state", "next_to_state"])
    def test_params_key_is_format_error(self, fitted, tmp_path, edit):
        path = tmp_path / "knn.dsmodel"
        save_model(KNNClassifier().fit(*fitted), path)
        doc = read_model_document(path)
        doc["payload"] = edit(doc["payload"])
        write_model_document(path, doc)
        with pytest.raises(ModelFormatError, match=r"unknown \['params'"):
            load_model(path)

    def test_unknown_param_is_format_error(self, fitted, tmp_path):
        path = tmp_path / "knn.dsmodel"
        save_model(KNNClassifier().fit(*fitted), path)
        rewrite_payload(path, lambda p: p.update(chunk_size=7))
        with pytest.raises(ModelFormatError,
                           match=r"payload: missing \[\], unknown \['chunk_size'\]"):
            load_model(path)

    def test_missing_state_field_is_format_error(self, fitted, tmp_path):
        path = tmp_path / "tree.dsmodel"
        save_model(C45Tree().fit(*fitted), path)
        rewrite_payload(path, lambda p: p.pop("tree"))
        with pytest.raises(ModelFormatError, match="tree"):
            load_model(path)

    def test_missing_member_field_is_format_error(self, fitted, tmp_path):
        path = tmp_path / "ens.dsmodel"
        save_model(MajorityVoteEnsemble().fit(*fitted), path)
        rewrite_payload(path, lambda p: p["members"]["c45"].pop("tree"))
        with pytest.raises(ModelFormatError):
            load_model(path, expected_kind="ensemble")

    def test_non_object_metadata_is_format_error(self, fitted, tmp_path):
        path = tmp_path / "nb.dsmodel"
        save_model(GaussianNaiveBayes().fit(*fitted), path)
        doc = read_model_document(path)
        doc["metadata"] = ["sld"]
        write_model_document(path, doc)
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
        save_model(C45Tree().fit(X, 1 - y), target)
        assert target.read_bytes() != first
        np.testing.assert_array_equal(load_model(target).predict(X), 1 - y)

    def test_unregistered_type_rejected(self, tmp_path):
        class Weird:
            pass

        with pytest.raises(ModelIOError):
            save_model(Weird(), tmp_path / "w.dsmodel")


def _member(payload, kind):
    return payload["members"][kind]


def _set_root_feature(payload):
    tree = _member(payload, "c45")["tree"]
    assert "feature" in tree, "the fixture tree must split at its root"
    tree["feature"] = 99


def _drop_knn_columns(payload):
    state = _member(payload, "knn")
    state["X"] = [row[:7] for row in state["X"]]


def _shorten_knn_y(payload):
    del _member(payload, "knn")["y"][-50:]


def _set_knn_row(value):
    """An edit setting one kNN ``row`` entry to ``value(m)``, m the stored row count."""
    def edit(payload):
        state = _member(payload, "knn")
        state["row"][3] = value(len(state["X"]))
    return edit


def _knn_rows_below_k(payload):
    # 4 training rows, consistent with each other, are fewer than the 5 neighbours that vote
    state = _member(payload, "knn")
    del state["row"][4:], state["y"][4:]


def _negative_nb_variance(payload):
    _member(payload, "nb")["var"][0][0] = -1


def _rename_member(payload):
    members = payload["members"]
    members["KNN"] = members.pop("knn")


def _sixth_member(payload):
    payload["members"]["knn2"] = _member(payload, "knn")


# checksum-valid edits of a trained ensemble that used to load and then crash,
# mispredict or misreport; each must now be refused when the file is loaded
STATE_EDITS = {
    "c45_root_feature_99": _set_root_feature,
    "knn_y_50_short": _shorten_knn_y,
    # k is a constant: a file cannot set it
    "knn_k_string": lambda p: _member(p, "knn").update(k="5"),
    "knn_k_zero": lambda p: _member(p, "knn").update(k=0),
    "four_members": lambda p: p["members"].pop("svm"),
    "six_members": _sixth_member,
    "member_renamed_KNN": _rename_member,
    "knn_uses_standardizer_false": lambda p: _member(p, "knn").update(uses_standardizer=False),
    "nb_negative_variance": _negative_nb_variance,
    "ensemble_width_string": lambda p: p.update(n_features_in="8"),
    "knn_X_7_columns": _drop_knn_columns,
    "logreg_coef_7_entries": lambda p: _member(p, "logreg")["coef"].pop(),
    "ensemble_version_9": lambda p: p.update(version=9),
    "knn_row_equal_to_m": _set_knn_row(lambda m: m),
    "knn_row_negative": _set_knn_row(lambda m: -1),
    "knn_row_one_short": lambda p: _member(p, "knn")["row"].pop(),
    "knn_k_above_n": lambda p: _member(p, "knn").update(k=len(_member(p, "knn")["y"]) + 1),
    "knn_rows_below_k": _knn_rows_below_k,
    "fingerprint": lambda p: p.update(fingerprint={"n_rows": 500, "sha256": "0" * 64}),
    "ensemble_params": lambda p: p.update(params={"seed": 0}),
    "svm_params": lambda p: _member(p, "svm").update(params={"seed": 0}),
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

    def test_knn_stores_distinct_rows(self, trained):
        state = _member(read_model_document(trained / "model.dsmodel")["payload"], "knn")
        assert len(state["row"]) == len(state["y"]) == 500
        assert len(state["X"]) == len(set(map(tuple, state["X"]))) < 500
        assert sorted(set(state["row"])) == list(range(len(state["X"])))

    def _predict_error(self, trained, path, tmp_path, capsys):
        """The one ERROR line of a ``predict`` that must exit 1 without a traceback."""
        capsys.readouterr()
        assert main(["predict", "--in", str(trained / "census.tsv"), "--model", str(path),
                     "--out", str(tmp_path / "p")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1, err
        return errors[0]

    def test_unrehashed_mode_edit_refused(self, trained, tmp_path, capsys):
        raw = (trained / "model.dsmodel").read_bytes()
        path = tmp_path / "edited.dsmodel"
        path.write_bytes(raw.replace(b'"mode":"sld"', b'"mode":"full"', 1))
        assert path.read_bytes() != raw
        err = self._predict_error(trained, path, tmp_path, capsys)
        assert "checksum" in err

    def test_non_string_mode_refused(self, trained, tmp_path, capsys):
        path = tmp_path / "edited.dsmodel"
        doc = read_model_document(trained / "model.dsmodel")
        doc["metadata"]["mode"] = ["sld"]
        write_model_document(path, doc)
        err = self._predict_error(trained, path, tmp_path, capsys)
        assert "mode" in err


def _payload_paths(node, prefix=()):
    """Every key/index path below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _payload_paths(child, prefix + (key,))


REPLACEMENTS = {"none": None, "string": "x", "negative": -1}
MUTATIONS = ["delete", *REPLACEMENTS, "short", "wide"]


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
        save_model(MajorityVoteEnsemble().fit(self.X, self.y), path)
        doc = read_model_document(path)
        return doc, sorted(_payload_paths(doc["payload"]), key=str)

    def check_mutation(self, doc, path, how, tmp_path):
        """Mutate the payload at ``path`` by ``how``: the file is refused or predicts 0/1."""
        def edit(payload):
            *parents, last = path
            for key in parents:
                payload = payload[key]
            if how == "delete":
                del payload[last]
            else:
                payload[last] = _mutate(payload[last], how)

        target = tmp_path / "mutated.dsmodel"
        write_model_document(target, doc)
        rewrite_payload(target, edit)
        try:
            model = load_model(target)
        except ModelIOError:
            return
        labels = model.predict(self.QUERY)
        assert labels.shape == (self.QUERY.shape[0],)
        assert set(labels.tolist()) <= {0, 1}

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_payload(self, saved, tmp_path, data):
        doc, paths = saved
        self.check_mutation(doc, data.draw(st.sampled_from(paths)),
                            data.draw(st.sampled_from(MUTATIONS)), tmp_path)

    @pytest.mark.parametrize("how", MUTATIONS)
    @pytest.mark.parametrize("field", ["X", "row", "y"])
    def test_mutated_knn_field(self, saved, tmp_path, field, how):
        # every kNN state field, whole and at one entry, whichever paths the sample draws
        doc, _ = saved
        at = ("members", "knn", field)
        for path in (at, (*at, 0), (*at, 5)):
            self.check_mutation(doc, path, how, tmp_path)


class TestByteEdits:
    """Any byte flipped or the file cut short, with no checksum recomputed, is refused."""

    @pytest.fixture(scope="class")
    def raw(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bytes") / "ens.dsmodel"
        X, y = make_blobs(n_per_class=8, d=3, seed=9)
        save_model(MajorityVoteEnsemble().fit(X, y), path, metadata={"mode": "sld"})
        return path.read_bytes()

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_flipped_or_truncated(self, raw, tmp_path, data):
        header_end = raw.index(b"\n")
        # half the offsets fall in the header line or on its newline
        offset = data.draw(st.one_of(st.integers(0, header_end), st.integers(0, len(raw) - 1)))
        if data.draw(st.booleans()):
            edited = raw[:offset]
        else:
            mask = data.draw(st.integers(1, 255))
            edited = raw[:offset] + bytes([raw[offset] ^ mask]) + raw[offset + 1:]
        path = tmp_path / "edited.dsmodel"
        path.write_bytes(edited)
        with pytest.raises(ModelIOError):
            load_model(path)
