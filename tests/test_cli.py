import argparse
import ast
import csv
import gzip
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import domainsift
from domainsift.cli import build_parser, main
from domainsift.features import FEATURE_NAMES
from domainsift.model_io import load_model

from conftest import (
    as_format_3,
    as_format_4,
    as_format_5,
    as_format_6,
    as_format_7,
    read_back_features,
    read_model_document,
    write_model_document,
    write_single_document_model,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Generated corpora shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    rc = main([
        "generate", "--out", str(root / "gen"), "--seed", "7",
        "--n-legit", "300", "--n-dga", "200",
        "--census-n", "400", "--dga-fraction", "0.1",
    ])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def sld_model(workdir):
    """An ensemble trained on the generated corpus in the default sld mode."""
    path = workdir / "sld.dsmodel"
    assert main(["train", "--in", str(workdir / "gen" / "labeled.csv"),
                 "--out", str(path)]) == 0
    return str(path)


def test_generate_outputs(workdir):
    gen = workdir / "gen"
    assert (gen / "labeled.csv").exists()
    assert (gen / "census.tsv").exists()
    assert (gen / "census_truth.csv").exists()


def test_extract_writes_feature_csv(workdir):
    out = workdir / "features.csv"
    rc = main(["extract", "--in", str(workdir / "gen" / "labeled.csv"),
               "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == ",".join(FEATURE_NAMES) + ",label"


def test_extract_accepts_plain_domain_list(workdir, tmp_path):
    listing = tmp_path / "domains.txt"
    listing.write_text("google.com\nexample.net\n")
    out = tmp_path / "f.csv"
    rc = main(["extract", "--in", str(listing), "--out", str(out), "--mode", "full"])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


def test_analyze_outputs(workdir, capsys):
    out = workdir / "analysis"
    rc = main(["analyze", "--in", str(workdir / "gen" / "labeled.csv"),
               "--out", str(out)])
    assert rc == 0
    assert (out / "summary.csv").exists()
    assert (out / "correlation.csv").exists()
    for name in FEATURE_NAMES:
        assert (out / f"hist_{name}.csv").exists()
    assert "uniq_chars" in capsys.readouterr().out


def test_analyze_requires_labels(workdir, tmp_path):
    rc = main(["analyze", "--in", str(workdir / "gen" / "census.tsv"),
               "--out", str(tmp_path / "a")])
    assert rc == 1


def test_train_then_evaluate_and_predict(workdir, capsys):
    labeled = str(workdir / "gen" / "labeled.csv")
    model = str(workdir / "model.dsmodel")
    assert main(["train", "--in", labeled, "--out", model]) == 0
    capsys.readouterr()

    report = workdir / "report.csv"
    assert main(["evaluate", "--in", labeled, "--out", str(report),
                 "--seed", "5"]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "classifier,accuracy,precision,recall,f_score"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["c45", "knn", "logreg", "nb", "svm", "ensemble"]
    capsys.readouterr()

    out = workdir / "preds"
    assert main(["predict", "--in", str(workdir / "gen" / "census.tsv"),
                 "--model", model, "--out", str(out), "--mode", "sld"]) == 0
    pred_lines = (out / "predictions.csv").read_text().splitlines()
    assert pred_lines[0].startswith("host,domain,prediction,vote_")
    assert len(pred_lines) == 401
    assert (out / "flagged.txt").exists()


def test_evaluate_existing_model(workdir, sld_model):
    labeled = str(workdir / "gen" / "labeled.csv")
    assert main(["evaluate", "--in", labeled, "--model", sld_model, "--seed", "5"]) == 0


def test_evaluate_cv_with_model_refused(workdir, sld_model, tmp_path, capsys):
    out = tmp_path / "cv.csv"
    assert main(["evaluate", "--in", str(workdir / "gen" / "labeled.csv"), "--cv", "3",
                 "--model", sld_model, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--cv" in err and "Traceback" not in err
    assert not out.exists()


def test_evaluate_cv(workdir):
    labeled = str(workdir / "gen" / "labeled.csv")
    out = workdir / "cv.csv"
    assert main(["evaluate", "--in", labeled, "--cv", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("classifier,accuracy_mean,accuracy_std")
    assert len(lines) == 7


def test_train_deterministic_bytes(workdir, tmp_path):
    labeled = str(workdir / "gen" / "labeled.csv")
    a, b = tmp_path / "a.dsmodel", tmp_path / "b.dsmodel"
    assert main(["train", "--in", labeled, "--out", str(a)]) == 0
    assert main(["train", "--in", labeled, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _shuffled_copy(path, tmp_path, header):
    """A copy of the corpus at ``path`` with its lines after the first ``header``
    in shuffled order, under the same file name, since a model records it."""
    lines = path.read_text().splitlines(keepends=True)
    rows = lines[header:]
    random.Random(3).shuffle(rows)
    shuffled = tmp_path / "shuffled" / path.name
    shuffled.parent.mkdir()
    shuffled.write_text("".join(lines[:header] + rows))
    return shuffled


def _outputs(root):
    """``{relative path: bytes}`` of every file under ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_train_bytes_do_not_depend_on_row_order(workdir, tmp_path):
    shuffled = _shuffled_copy(workdir / "gen" / "labeled.csv", tmp_path, header=1)
    a, b = tmp_path / "a.dsmodel", tmp_path / "b.dsmodel"
    assert main(["train", "--in", str(workdir / "gen" / "labeled.csv"), "--out", str(a)]) == 0
    assert main(["train", "--in", str(shuffled), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cluster_outputs(workdir, capsys):
    out = workdir / "clusters"
    rc = main(["cluster", "--in", str(workdir / "gen" / "census.tsv"),
               "--out", str(out), "--k", "2", "--seed", "1",
               "--model-out", str(workdir / "km.dsmodel")])
    assert rc == 0
    centroid_lines = (out / "centroids.csv").read_text().splitlines()
    assert centroid_lines[0] == "feature,cluster_1,cluster_2"
    # the seed is the one value of the run that the centroids do not imply
    assert read_model_document(workdir / "km.dsmodel")["metadata"] == {"source": "census.tsv",
                                                                       "seed": 1}
    assert "inertia" in capsys.readouterr().out


def test_cluster_outputs_do_not_depend_on_row_order(workdir, tmp_path, capsys):
    census = workdir / "gen" / "census.tsv"

    def run(corpus, out):
        capsys.readouterr()
        assert main(["cluster", "--in", str(corpus), "--out", str(out / "clusters"),
                     "--model-out", str(out / "km.dsmodel")]) == 0
        return _outputs(out), capsys.readouterr().out

    shuffled = _shuffled_copy(census, tmp_path, header=0)
    assert run(shuffled, tmp_path / "b") == run(census, tmp_path / "a")


def test_analyze_outputs_do_not_depend_on_row_order(workdir, tmp_path, capsys):
    labeled = workdir / "gen" / "labeled.csv"

    def run(corpus, out):
        capsys.readouterr()
        assert main(["analyze", "--in", str(corpus), "--out", str(out)]) == 0
        return _outputs(out), capsys.readouterr().out

    shuffled = _shuffled_copy(labeled, tmp_path, header=1)
    assert run(shuffled, tmp_path / "b") == run(labeled, tmp_path / "a")


def test_cluster_builds_no_per_row_feature_matrix(workdir, capsys, monkeypatch):
    """cluster takes its distinct vectors from integer counts: with the per-row
    extractor and the row sort made to fail, it writes the same outputs."""
    def run(out):
        capsys.readouterr()
        assert main(["cluster", "--in", str(workdir / "gen" / "census.tsv"), "--out", str(out),
                     "--k", "3", "--mode", "sld"]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}, capsys.readouterr().out

    unpatched = run(workdir / "clusters_unpatched")
    assert {"centroids.csv", f"hist_{FEATURE_NAMES[0]}.csv"} <= set(unpatched[0])

    def refuse(*args, **kwargs):
        raise AssertionError("cluster built a per-row feature matrix")

    for module, name in ((domainsift.features, "extract_features"),
                         (domainsift.cli, "extract_features"),
                         (domainsift.base, "distinct_rows"),
                         (domainsift.cluster, "distinct_rows")):
        monkeypatch.setattr(module, name, refuse)
    assert run(workdir / "clusters_patched") == unpatched


def test_predict_votes_on_distinct_feature_vectors(workdir, sld_model, capsys, monkeypatch):
    """predict takes its feature vectors from integer counts and the members see
    each distinct vector once: with the per-row extractor made to fail, no row
    sort sees more rows than the corpus has distinct vectors, and the outputs stay."""
    def run(out):
        capsys.readouterr()
        assert main(["predict", "--in", str(workdir / "gen" / "census.tsv"),
                     "--model", sld_model, "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}, capsys.readouterr().out

    unpatched = run(workdir / "predict_unpatched")
    domains = [row[1] for row in _prediction_rows(workdir / "predict_unpatched")[1:]]
    n_distinct = domainsift.features.distinct_features(domains).rows.shape[0]
    assert n_distinct < len(domains)

    def refuse(*args, **kwargs):
        raise AssertionError("predict built a per-row feature matrix")

    seen = []

    def recording_distinct_rows(X, _distinct_rows=domainsift.ensemble.distinct_rows):
        seen.append(len(X))
        return _distinct_rows(X)

    monkeypatch.setattr(domainsift.features, "extract_features", refuse)
    monkeypatch.setattr(domainsift.cli, "extract_features", refuse)
    monkeypatch.setattr(domainsift.ensemble, "distinct_rows", recording_distinct_rows)
    assert run(workdir / "predict_patched") == unpatched
    assert seen and max(seen) <= n_distinct, (seen, n_distinct)


def _prediction_rows(out):
    with open(out / "predictions.csv", newline="") as fh:
        return list(csv.reader(fh))


def test_predict_unchanged_by_duplicated_shuffled_rows(workdir, sld_model, tmp_path):
    census = workdir / "gen" / "census.tsv"
    lines = census.read_text().splitlines()
    shuffled = lines * 3
    random.Random(0).shuffle(shuffled)
    (tmp_path / "shuffled.tsv").write_text("\n".join(shuffled) + "\n")
    assert main(["predict", "--in", str(census), "--model", sld_model,
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["predict", "--in", str(tmp_path / "shuffled.tsv"), "--model", sld_model,
                 "--out", str(tmp_path / "b")]) == 0
    a, b = _prediction_rows(tmp_path / "a"), _prediction_rows(tmp_path / "b")
    assert a[0] == b[0]
    # dedupe keeps the first host of each domain, so compare per domain
    assert sorted(row[1:] for row in a[1:]) == sorted(row[1:] for row in b[1:])


def test_predict_csv_quotes_hosts_with_commas(sld_model, tmp_path):
    census = tmp_path / "census.tsv"
    census.write_text("http://a.com/x,y\t10.0.0.1\nexample.com\t10.0.0.2\n")
    out = tmp_path / "p"
    assert main(["predict", "--in", str(census), "--model", sld_model, "--out", str(out)]) == 0
    rows = _prediction_rows(out)
    assert [len(row) for row in rows] == [8, 8, 8]
    assert rows[1][:2] == ["http://a.com/x,y", "a"]


class TestPredictMode:
    @pytest.fixture(scope="class")
    def full_model(self, workdir):
        path = workdir / "full.dsmodel"
        assert main(["train", "--in", str(workdir / "gen" / "labeled.csv"),
                     "--out", str(path), "--mode", "full"]) == 0
        return str(path)

    def test_mode_defaults_to_models(self, workdir, full_model, tmp_path):
        assert main(["predict", "--in", str(workdir / "gen" / "census.tsv"),
                     "--model", full_model, "--out", str(tmp_path / "p")]) == 0
        rows = _prediction_rows(tmp_path / "p")[1:]
        assert all(host == domain for host, domain, *_ in rows)

    def test_mismatched_flag_refused(self, workdir, sld_model, tmp_path, capsys):
        assert main(["predict", "--in", str(workdir / "gen" / "census.tsv"),
                     "--model", sld_model, "--mode", "full",
                     "--out", str(tmp_path / "p")]) == 1
        assert "trained in 'sld' mode" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_evaluate_existing_model_refuses_mismatch(self, workdir, full_model):
        assert main(["evaluate", "--in", str(workdir / "gen" / "labeled.csv"),
                     "--model", full_model, "--mode", "sld"]) == 1

    @pytest.mark.parametrize("short, long", [("sld", "second_level_label"),
                                             ("full", "full_name")])
    def test_model_recording_a_long_mode_name_refused(self, workdir, full_model, sld_model,
                                                      tmp_path, capsys, short, long):
        """A long mode name, which only format 8 and earlier wrote, is not a mode name."""
        census = str(workdir / "gen" / "census.tsv")
        doc = read_model_document(Path({"sld": sld_model, "full": full_model}[short]))
        doc["metadata"]["mode"] = long
        edited = tmp_path / "long.dsmodel"
        write_model_document(edited, doc)
        for mode in ([], ["--mode", short]):
            capsys.readouterr()
            assert main(["predict", "--in", census, "--model", str(edited), *mode,
                         "--out", str(tmp_path / "p")]) == 1
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("ERROR")]
            assert len(errors) == 1 and "Traceback" not in err, err
            assert f"unknown normalization mode {long!r}" in errors[0]
            assert not (tmp_path / "p").exists()


@pytest.fixture(scope="module")
def predictions(workdir, sld_model):
    """Output directory of a predict run over the generated census."""
    out = workdir / "sld_preds"
    assert main(["predict", "--in", str(workdir / "gen" / "census.tsv"),
                 "--model", sld_model, "--out", str(out)]) == 0
    return out


def test_reputation_check(predictions, tmp_path):
    flagged = predictions / "flagged.txt"
    badlist = tmp_path / "bad.txt"
    hosts = flagged.read_text().splitlines()
    badlist.write_text("\n".join(hosts[:3]) + "\n")
    out = tmp_path / "rep.csv"
    rc = main(["reputation-check", "--in", str(flagged), "--badlist", str(badlist),
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "domain,score,verdict,provider"
    assert sum(",suspicious," in line for line in lines) == 3


def test_reputation_check_skips_indented_comments(tmp_path, capsys):
    # a line is stripped before it is taken for a comment, as in a plain domain list,
    # and a comment does not count toward --max-rows
    hosts = tmp_path / "hosts.txt"
    hosts.write_text("a.com\n  # note\nb.com\nc.com\n")
    badlist = tmp_path / "bad.txt"
    badlist.write_text("b.com\n")
    out = tmp_path / "rep.csv"
    capsys.readouterr()
    assert main(["reputation-check", "--in", str(hosts), "--badlist", str(badlist),
                 "--out", str(out), "--max-rows", "2"]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["a.com",
                                                                                "b.com"]
    assert capsys.readouterr().out == "suspicious: 1, unknown: 1\n"


def test_reputation_check_max_rows_stops_reading(tmp_path, capsys):
    # an undecodable byte well past the decoder's first chunk, after the rows wanted
    hosts = tmp_path / "hosts.txt"
    hosts.write_bytes(b"first.com\n" + b"filler-host-name.com\n" * 6000 + b"\xff\n")
    badlist = tmp_path / "bad.txt"
    badlist.write_text("first.com\n")
    capsys.readouterr()
    rc = main(["reputation-check", "--in", str(hosts), "--badlist", str(badlist),
               "--max-rows", "1"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "ERROR" not in captured.err
    assert captured.out.strip() == "suspicious: 1"


def test_skipped_row_reasons_logged(tmp_path, capsys):
    census = tmp_path / "census.tsv"
    census.write_text("abc.com\t1.2.3.4\nno address here\nxyz.net\t300.1.1.1\n")
    capsys.readouterr()
    assert main(["extract", "--in", str(census), "--out", str(tmp_path / "f.csv")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("WARNING domainsift: ")]
    assert warnings == [
        "WARNING domainsift: skipped line 2: not 'domain<TAB>ipv4'",
        "WARNING domainsift: skipped line 3: not 'domain<TAB>ipv4'",
    ]


# the run options each command resolves, in the order its resolved-options line lists them
RUN_OPTIONS = {
    "extract": ["mode", "max_rows"],
    "analyze": ["mode", "max_rows"],
    "train": ["mode", "max_rows"],
    "evaluate": ["mode", "seed", "max_rows", "test_fraction", "cv"],
    "cluster": ["mode", "seed", "max_rows", "k"],
    "predict": ["mode", "max_rows"],
    "reputation-check": ["seed", "max_rows"],
    "generate": ["seed"],
}


def test_run_options_are_the_commands_flags():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    run_options = {"mode", "seed", "max_rows", "test_fraction", "cv", "k"}
    assert {name: {action.dest for action in sub._actions} & run_options
            for name, sub in commands.choices.items()} == {
        name: set(options) for name, options in RUN_OPTIONS.items()}


@pytest.mark.parametrize("command", list(RUN_OPTIONS))
def test_resolved_options_name_only_the_commands_run_options(sld_model, tmp_path, capsys,
                                                             command):
    # no run option is given, so each is its flag's default; a command logs only its own
    missing = str(tmp_path / "missing.txt")
    argv = [command, "--out", str(tmp_path / "o"), *{
        "generate": ["--n-legit", "5", "--n-dga", "5", "--census-n", "5"],
        "predict": ["--in", missing, "--model", sld_model],
        "reputation-check": ["--in", missing, "--badlist", missing],
    }.get(command, ["--in", missing])]
    capsys.readouterr()
    main(argv)
    logged = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("INFO domainsift: resolved options: ")]
    assert len(logged) == 1
    resolved = ast.literal_eval(logged[0].split(": ", 2)[2])
    assert list(resolved) == RUN_OPTIONS[command]
    # predict takes the sld model's mode
    mode = "full" if command == "cluster" else "sld"
    assert {"mode": mode, "seed": 42, "max_rows": None, "test_fraction": 0.3, "cv": 0,
            "k": 2}.items() >= resolved.items()


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["extract", "--bogus"]) == 2

    @pytest.mark.parametrize("argv", [
        ["extract", "--seed", "3"],
        ["analyze", "--seed", "3"],
        ["predict", "--model", "m.dsmodel", "--seed", "3"],
        ["reputation-check", "--badlist", "bad.txt", "--mode", "full"],
        ["train", "--config", "run.cfg"],
        ["train", "--seed", "3"],
    ], ids=["extract_seed", "analyze_seed", "predict_seed", "reputation_check_mode",
            "train_config", "train_seed"])
    def test_option_the_command_never_reads_is_usage_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--in", "in.txt", "--out", str(tmp_path / "o")]) == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["extract", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.csv")]) == 1

    def test_bad_model_file_is_data_error(self, workdir, tmp_path):
        fake = tmp_path / "fake.dsmodel"
        fake.write_text("{}")
        assert main(["predict", "--in", str(workdir / "gen" / "census.tsv"),
                     "--model", str(fake), "--out", str(tmp_path / "p")]) == 1

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
    def test_old_version_model_is_data_error(self, workdir, sld_model, tmp_path, capsys,
                                             version):
        old = tmp_path / "old.dsmodel"
        document = read_model_document(Path(sld_model))
        if version == 7:  # each payload is its params and its state
            write_model_document(old, as_format_7(document), version)
        elif version == 6:  # the ensemble parameters also hold member_params and members
            write_model_document(old, as_format_6(document), version)
        elif version == 5:  # the ensemble state also holds the training corpus fingerprint
            write_model_document(old, as_format_5(document), version)
        elif version == 4:  # members as a list of named entries, and an ensemble version
            write_model_document(old, as_format_4(document), version)
        elif version == 3:  # a header line and a body, with every kNN training row stored
            write_model_document(old, as_format_3(document), version)
        else:
            write_single_document_model(old, as_format_7(document), version)
        capsys.readouterr()
        assert main(["predict", "--in", str(workdir / "gen" / "census.tsv"),
                     "--model", str(old), "--out", str(tmp_path / "p")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR") and len(err.splitlines()) == 1, err
        assert f"format version {version}" in err

    @pytest.mark.parametrize("command, corpus", [("predict", "census.tsv"),
                                                 ("evaluate", "labeled.csv")])
    def test_format_8_model_is_data_error(self, workdir, tmp_path, capsys, command, corpus):
        # each written by its format's train on `generate --seed 8 --n-legit 30 --n-dga 20`
        for version in (8, 9, 10):
            old = str(Path(__file__).parent / "data" / f"format{version}.dsmodel")
            capsys.readouterr()
            assert main([command, "--in", str(workdir / "gen" / corpus), "--model", old,
                         "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err == (
                f"ERROR domainsift: model error: model file {old!r} "
                f"has format version {version}; this build reads version 11\n")
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["extract", "--max-rows", "-2"],
        ["extract", "--max-rows", "0"],
        ["reputation-check", "--max-rows", "-1", "--badlist", "{in}"],
    ], ids=["extract_-2", "extract_0", "reputation_check_-1"])
    def test_max_rows_below_1_refused(self, workdir, tmp_path, capsys, argv):
        labeled = str(workdir / "gen" / "labeled.csv")
        argv = [a.format(**{"in": labeled}) for a in argv]
        argv += ["--in", labeled, "--out", str(tmp_path / "o.csv")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR") and len(err.splitlines()) == 1, err
        assert "max_rows must be at least 1" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv,message", [
        (["predict", "--max-rows", "0"], "max_rows must be at least 1, got 0"),
        (["evaluate", "--test-fraction", "2"], "--test-fraction must be in (0, 1), got 2.0"),
    ], ids=["predict_max_rows_0", "evaluate_test_fraction_2"])
    def test_bad_option_refused_before_the_model_is_read(self, workdir, tmp_path, capsys,
                                                         argv, message):
        argv = argv + ["--in", str(workdir / "gen" / "labeled.csv"), "--out",
                       str(tmp_path / "o"), "--model", str(tmp_path / "missing.dsmodel")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"ERROR domainsift: {message}\n"

    @pytest.mark.parametrize("flag,argv", [
        ("--n-legit", ["generate", "--n-legit", "-1", "--n-dga", "20", "--census-n", "20"]),
        ("--n-dga", ["generate", "--n-legit", "20", "--n-dga", "-1", "--census-n", "20"]),
        ("--census-n", ["generate", "--n-legit", "20", "--n-dga", "20", "--census-n", "-5"]),
        ("--dga-fraction", ["generate", "--census-n", "20", "--dga-fraction", "2"]),
        ("--dga-fraction", ["generate", "--census-n", "20", "--dga-fraction", "-0.1"]),
        ("--dga-fraction", ["generate", "--census-n", "20", "--dga-fraction", "nan"]),
        ("--sample", ["reputation-check", "--sample", "-1", "--in", "{list}",
                      "--badlist", "{list}"]),
    ], ids=["n_legit", "n_dga", "census_n", "dga_fraction_2", "dga_fraction_negative",
            "dga_fraction_nan", "sample"])
    def test_bad_size_refused_before_writing(self, tmp_path, capsys, flag, argv):
        domains = tmp_path / "domains.txt"
        domains.write_text("abc.com\nxyz.net\n")
        out = tmp_path / "out"
        argv = [a.format(list=domains) for a in argv] + ["--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR") and len(err.splitlines()) == 1, err
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["cluster", "--k", "0"], "--k must be at least 1, got 0"),
        (["evaluate", "--cv", "-3"], "--cv must be 0 or at least 2, got -3"),
        (["evaluate", "--cv", "1"], "--cv must be 0 or at least 2, got 1"),
        (["evaluate", "--test-fraction", "2"], "--test-fraction must be in (0, 1), got 2.0"),
        (["evaluate", "--test-fraction", "0"], "--test-fraction must be in (0, 1), got 0.0"),
        (["evaluate", "--test-fraction", "nan"], "--test-fraction must be in (0, 1), got nan"),
    ], ids=["k_0", "cv_negative", "cv_1", "test_fraction_2", "test_fraction_0",
            "test_fraction_nan"])
    def test_bad_option_refused_before_reading(self, workdir, tmp_path, capsys, argv, message):
        corpus = "census.tsv" if argv[0] == "cluster" else "labeled.csv"
        argv = argv + ["--in", str(workdir / "gen" / corpus), "--out", str(tmp_path / "o")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"ERROR domainsift: {message}\n"
        assert "parsed" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--n-legit", "20", "--n-dga", "20", "--census-n", "20"],
        ["evaluate", "--in", "{missing}"],
        ["cluster", "--in", "{missing}"],
        ["reputation-check", "--in", "{missing}", "--badlist", "{missing}", "--sample", "1"],
    ], ids=lambda argv: f"{argv[0]}-flag")
    def test_negative_seed_refused_before_reading(self, tmp_path, capsys, argv):
        # the input does not exist, so reading it first would give another error
        argv = [a.format(missing=tmp_path / "missing.txt") for a in argv]
        argv += ["--out", str(tmp_path / "o"), "--seed", "-1"]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "ERROR domainsift: --seed must be at least 0, got -1\n"
        assert not (tmp_path / "o").exists()

    def test_k_above_distinct_feature_vectors_refused(self, tmp_path, capsys):
        # abc.com and cab.com share one feature vector: 4 rows, 3 distinct vectors
        census = tmp_path / "census.tsv"
        census.write_text("abc.com\t1.2.3.4\ncab.com\t1.2.3.5\n"
                          "example.org\t10.0.0.1\nq9z.net\t8.8.8.8\n")
        out = tmp_path / "clusters"
        capsys.readouterr()
        assert main(["cluster", "--in", str(census), "--out", str(out), "--k", "4"]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("ERROR")]
        assert errors == ["ERROR domainsift: need at least k=4 distinct feature vectors,"
                          " got 3 among 4 rows"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "analyze", "predict", "extract"])
    def test_stray_quote_in_labeled_csv_is_one_error_line(self, sld_model, tmp_path, capsys,
                                                          command):
        # a stray quote opens a field that swallows the rest of the file, past the csv
        # module's field limit of 131,072 characters
        rows = [f"www.name{i:05d}.com,name{i:05d},{'dga' if i % 3 else 'legit'}\n"
                for i in range(5000)]
        rows[1] = '"' + rows[1]
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("host,domain,class\n" + "".join(rows))
        out = str(tmp_path / "out")
        argv = {
            "train": ["--out", out],
            "evaluate": ["--model", sld_model],
            "analyze": ["--out", out],
            "predict": ["--model", sld_model, "--out", out],
            "extract": ["--out", out],
        }[command]
        capsys.readouterr()
        assert main([command, "--in", str(labeled), *argv]) == 1
        err = capsys.readouterr().err
        _one_error_line(err)
        assert (f"ERROR domainsift: corpus error: {labeled}: labeled CSV row 3: "
                "field larger than field limit (131072)") in err.splitlines()

    @pytest.mark.parametrize("command", ["extract", "analyze", "train", "evaluate", "cluster",
                                         "predict"])
    def test_feature_csv_is_refused(self, workdir, sld_model, tmp_path, capsys, command):
        features = tmp_path / "features.csv"
        assert main(["extract", "--in", str(workdir / "gen" / "labeled.csv"),
                     "--out", str(features)]) == 0
        out = str(tmp_path / "out")
        argv = {
            "extract": ["--out", out],
            "analyze": ["--out", out],
            "train": ["--out", out],
            "evaluate": ["--out", out],
            "cluster": ["--out", out, "--model-out", str(tmp_path / "kmeans.dsmodel")],
            "predict": ["--model", sld_model, "--out", out],
        }[command]
        capsys.readouterr()
        assert main([command, "--in", str(features), *argv]) == 1
        err = capsys.readouterr().err
        _one_error_line(err)
        assert [line for line in err.splitlines() if line.startswith("ERROR")] == [
            f"ERROR domainsift: corpus error: {features} is a feature CSV; "
            "this command needs a domain corpus"]
        assert [path.name for path in tmp_path.iterdir()] == ["features.csv"]

    @pytest.mark.parametrize("brk", ["\r", "\n", "\r\n"])
    def test_labeled_host_with_line_break_is_skipped(self, sld_model, tmp_path, capsys, brk):
        good = ["www.google.com", "qxz07kvb3m.net", "shop.bbc.co.uk", "a1b2c3d4e5.org"]
        labeled = tmp_path / "labeled.csv"
        with open(labeled, "w", encoding="utf-8", newline="") as fh:
            fh.write("host,domain,class\n" + "".join(f"{host},,legit\n" for host in good[:2])
                     + f'"a{brk}b.com",p3q8z1x7k2v9.com,dga\n'
                     + "".join(f"{host},,dga\n" for host in good[2:]))
        out = tmp_path / "preds"
        capsys.readouterr()
        assert main(["predict", "--in", str(labeled), "--model", sld_model,
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "WARNING domainsift: skipped row 4: host 'a\\nb.com' holds a line break" in (
            captured.err.splitlines())
        rows = _check_predictions(out, captured)
        assert [row[0] for row in rows] == good


class TestCorpusEncoding:
    def test_bom_census_extracts_length_11(self, tmp_path):
        census = tmp_path / "census.tsv"
        census.write_bytes("\ufeffexample.com\t1.2.3.4\n".encode())
        out = tmp_path / "f.csv"
        assert main(["extract", "--in", str(census), "--out", str(out), "--mode", "full"]) == 0
        with open(out, newline="") as fh:
            assert [row["len"] for row in csv.DictReader(fh)] == ["11"]

    def test_bom_labeled_csv_trains(self, workdir, sld_model, tmp_path):
        labeled = tmp_path / "labeled.csv"  # the basename is in the model's metadata
        labeled.write_bytes(b"\xef\xbb\xbf" + (workdir / "gen" / "labeled.csv").read_bytes())
        model = tmp_path / "m.dsmodel"
        assert main(["train", "--in", str(labeled), "--out", str(model)]) == 0
        assert model.read_bytes() == Path(sld_model).read_bytes()

    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    @pytest.mark.parametrize("command", ["extract", "reputation-check"])
    def test_corrupt_gzip_is_one_error_line(self, tmp_path, capsys, damage, command):
        lines = "".join(f"host{i:05d}-{i * 7919 % 10007}.com\t1.2.3.4\n" for i in range(4000))
        data = gzip.compress(lines.encode())
        if damage == "truncated":  # the first line decodes; the parse meets the cut
            data = data[: len(data) // 2]
        else:  # the first block of deflate data is garbage
            data = data[:10] + bytes(b ^ 0xFF for b in data[10:30]) + data[30:]
        corpus_path = tmp_path / "census.tsv.gz"
        corpus_path.write_bytes(data)
        badlist = tmp_path / "bad.txt"
        badlist.write_text("a.com\n")
        argv = {
            "extract": ["extract", "--out", str(tmp_path / "f.csv")],
            "reputation-check": ["reputation-check", "--badlist", str(badlist)],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--in", str(corpus_path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and "Traceback" not in err, err
        assert errors[0].startswith(f"ERROR domainsift: corpus error: {corpus_path}: "
                                    "corrupt gzip data: ")

    @pytest.mark.parametrize("wrap", ["plain", "gzip"])
    @pytest.mark.parametrize("command", ["extract", "cluster"])
    def test_non_utf8_is_one_error_line(self, tmp_path, capsys, wrap, command):
        # the bad byte is far enough in that the format sniffing reads past none of it
        lines = "".join(f"host{i:05d}-{i * 7919 % 10007}.com\t1.2.3.4\n" for i in range(4000))
        data = lines.encode() + b"bad\xffname.com\t1.2.3.5\n"
        corpus_path = tmp_path / ("census.tsv.gz" if wrap == "gzip" else "census.tsv")
        corpus_path.write_bytes(gzip.compress(data) if wrap == "gzip" else data)
        capsys.readouterr()
        assert main([command, "--in", str(corpus_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and "Traceback" not in err, err
        assert errors == [f"ERROR domainsift: corpus error: {corpus_path}: "
                          "not UTF-8 text: byte 0xff: invalid start byte"]

    def test_bom_badlist_flags_its_first_name(self, tmp_path, capsys):
        flagged = tmp_path / "flagged.txt"
        flagged.write_text("yewtulip.biz\nquartzfern.com\nmossgate.net\n")
        badlist = tmp_path / "bad.txt"
        badlist.write_bytes("\ufeffyewtulip.biz\n".encode())
        capsys.readouterr()
        assert main(["reputation-check", "--in", str(flagged), "--badlist", str(badlist)]) == 0
        assert capsys.readouterr().out == "suspicious: 1, unknown: 2\n"

    def test_non_utf8_badlist_is_one_error_line(self, tmp_path, capsys):
        domains = tmp_path / "domains.txt"
        domains.write_text("example.com\n")
        badlist = tmp_path / "badlist.txt"
        badlist.write_bytes(b"example.com\n\xff\n")
        capsys.readouterr()
        assert main(["reputation-check", "--badlist", str(badlist), "--in", str(domains)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and "Traceback" not in err, err
        assert errors == [f"ERROR domainsift: bad-list error: {badlist}: "
                          "not UTF-8 text: byte 0xff: invalid start byte"]


def _cli(*argv, stdin=None, **env):
    """``python -m domainsift.cli`` in a child process, with ``stdin`` bytes on a pipe
    and ``env`` added to its environment."""
    src = str(Path(domainsift.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "domainsift.cli", *argv], input=stdin,
                          capture_output=True, env=env, check=False)


def test_svm_weights_do_not_depend_on_the_blas_kernel(workdir, tmp_path):
    # the svm sums with elementwise numpy adds, not BLAS, so every OpenBLAS kernel gives its bits
    svm = {}
    for kernel in ["default", "Haswell", "Prescott"]:
        path = tmp_path / f"{kernel}.dsmodel"
        env = {} if kernel == "default" else {"OPENBLAS_CORETYPE": kernel}
        proc = _cli("train", "--in", str(workdir / "gen" / "labeled.csv"), "--out", str(path),
                    **env)
        assert proc.returncode == 0, proc.stderr
        svm[kernel] = read_model_document(path)["payload"]["members"]["svm"]
    assert svm["Haswell"] == svm["default"] == svm["Prescott"]


@pytest.mark.parametrize("command", ["train", "predict", "cluster"])
def test_command_never_imports_numpy_ma(workdir, sld_model, tmp_path, command):
    # numpy 2's np.unique imports numpy.ma (about 10 ms) unless asked for indices or counts
    gen = workdir / "gen"
    argv = {
        "train": ["--in", gen / "labeled.csv", "--out", tmp_path / "m.dsmodel"],
        "predict": ["--in", gen / "census.tsv", "--model", sld_model, "--out", tmp_path / "p"],
        "cluster": ["--in", gen / "census.tsv", "--out", tmp_path / "c"],
    }[command]
    script = ("import sys\nfrom domainsift.cli import main\n"
              "rc = main(sys.argv[1:])\nprint('numpy.ma' in sys.modules)\nsys.exit(rc)")
    src = str(Path(domainsift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, command, *map(str, argv)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


class TestInputsReadOnce:
    """A user file is opened and read once, so a pipe gives what the same file gives by path."""

    # 5,000 lines, more than a pipe holds, so the reader takes several reads
    CENSUS = "".join(f"host{i:05d}-{i * 7919 % 10007}.com\t1.2.3.4\n" for i in range(5000))

    @pytest.mark.parametrize("wrap", ["plain", "gzip"])
    def test_extract_census_from_stdin(self, tmp_path, wrap):
        data = self.CENSUS.encode()
        if wrap == "gzip":
            data = gzip.compress(data, mtime=0)
        census = tmp_path / "census.tsv"
        census.write_bytes(data)
        by_path = _cli("extract", "--in", str(census), "--out", str(tmp_path / "a.csv"))
        piped = _cli("extract", "--in", "/dev/stdin", "--out", str(tmp_path / "b.csv"),
                     stdin=data)
        assert by_path.returncode == piped.returncode == 0, piped.stderr
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
        assert len((tmp_path / "b.csv").read_bytes().splitlines()) == 5001
        assert piped.stderr == (by_path.stderr.replace(str(census).encode(), b"/dev/stdin")
                                .replace(b"a.csv", b"b.csv"))

    def test_train_labeled_from_stdin(self, workdir, sld_model, tmp_path):
        labeled = workdir / "gen" / "labeled.csv"
        piped = _cli("train", "--in", "/dev/stdin", "--out", str(tmp_path / "m.dsmodel"),
                     stdin=labeled.read_bytes())
        assert piped.returncode == 0, piped.stderr
        got = read_model_document(tmp_path / "m.dsmodel")
        want = read_model_document(Path(sld_model))
        assert got["metadata"].pop("source") == "stdin"
        assert want["metadata"].pop("source") == "labeled.csv"
        assert got == want

    @pytest.mark.parametrize("piped", ["in", "badlist"])
    def test_reputation_check_from_stdin(self, tmp_path, piped):
        names = [f"name{i}-{i * 7919 % 10007}.com" for i in range(6000)]
        domains, badlist = tmp_path / "d.txt", tmp_path / "bl.txt"
        domains.write_text("".join(f"{name}\n" for name in names))
        badlist.write_text("".join(f"{name.upper()}\n" for name in names[::2000]))
        by_path = _cli("reputation-check", "--in", str(domains), "--badlist", str(badlist))
        paths = {"in": str(domains), "badlist": str(badlist), piped: "/dev/stdin"}
        data = (domains if piped == "in" else badlist).read_bytes()
        got = _cli("reputation-check", "--in", paths["in"], "--badlist", paths["badlist"],
                   stdin=data)
        assert by_path.stdout == b"suspicious: 3, unknown: 5997\n"
        assert (got.returncode, got.stdout) == (0, by_path.stdout), got.stderr

# census lines the parser keeps, skips or normalizes, for the extract fuzz test
FUZZ_LINES = [
    "example.com\t1.2.3.4",
    "www.Shop.co.uk\t10.0.0.1",
    "a1b2c3d4e5.net\t 8.8.8.8 \textra field",
    "http://x.org/path\t1.1.1.1",
    "qxz-07_k.example.org\t255.255.255.255",
    "no-address.com",
    "bad..dots.com\t1.2.3.4",
    "ümlaut.de\t9.9.9.9",
    "domain\tip",
    "",
]


# plain domain-list lines: names, URLs, comments, blanks, a name that is not
# ASCII and one longer than a host name may be
FUZZ_DOMAIN_LINES = [
    "example.com",
    "www.Shop.co.uk",
    "a1b2c3d4e5.net",
    "http://x.org/path",
    "https://qxz-07_k.example.org:8080/a?b=c",
    "# a comment",
    "ümlaut.de",
    "q" * 254 + ".com",
    "bad..dots.com",
    "  padded.io  ",
    "",
]

# bad-list lines: names, comments and blanks
FUZZ_BADLIST_LINES = ["evil.com", "EVIL.com  # seen in 2020", "# a comment", "ümlaut.de", ""]

# labeled-CSV heads, one of which starts each file of the labeled-CSV fuzz test: a
# header, in one of three column orders, and eight good rows, four of each class
FUZZ_LABELED_HEADS = [
    "host,domain,class\n"
    "www.google.com,google,legit\nshop.example.co.uk,,LEGIT\n"
    "mail.wikipedia.org,wikipedia,legit\nnews.bbc.co.uk,,legit\n"
    "a1b2c3d4e5.net,a1b2c3d4e5,dga\nqxz07kvb3m.org,,dga\n"
    "x7y8z9q4.info,x7y8z9q4,Dga\nkq3vz9wx.biz,,dga",
    "Class, Domain ,HOST\n"
    "legit,google,www.google.com\nLEGIT,,shop.example.co.uk\n"
    "legit,wikipedia,mail.wikipedia.org\nlegit,,news.bbc.co.uk\n"
    "dga,a1b2c3d4e5,a1b2c3d4e5.net\ndga,,qxz07kvb3m.org\n"
    "Dga,x7y8z9q4,x7y8z9q4.info\ndga,,kq3vz9wx.biz",
    "domain,class,host,notes\n"
    "google,legit,www.google.com,\n,LEGIT,shop.example.co.uk,seen\n"
    "wikipedia,legit,mail.wikipedia.org,\n,legit,news.bbc.co.uk,\n"
    "a1b2c3d4e5,dga,a1b2c3d4e5.net,\n,dga,qxz07kvb3m.org,\n"
    "x7y8z9q4,Dga,x7y8z9q4.info,\n,dga,kq3vz9wx.biz,",
]

# labeled-CSV lines, read against whichever head was drawn: a header, a good row,
# stray and unbalanced quotes, over-long fields, extra and missing columns, an
# unknown class and quoted hosts holding a line break
FUZZ_LABELED_LINES = [
    "host,domain,class",
    "zq8w7e6r5t.com,,dga",
    '"stray.com,stray,dga',
    'mid"quote.com,midquote,legit',
    '"unbalanced.com,""x,dga',
    "x" * 300 + ".com,,dga",
    '"' + "y" * 131_100 + '",,legit',
    "extra.com,extra,dga,surplus,cells",
    "missing.com,legit",
    "unknown.com,unknown,benign",
    '"qx7\nz9k.com",zq9x8k2v7j3p1,dga',
    '"cr\rq8z7x.net",v7k2x9q3j8z1w,legit',
    "",
]


@st.composite
def mutated_bytes(draw, lines, first=None):
    """File bytes: one of ``first`` if given, some of ``lines``, then byte-level
    damage, maybe gzipped."""
    drawn = draw(st.lists(st.sampled_from(lines), max_size=12))
    if first:
        drawn.insert(0, draw(st.sampled_from(first)))
    data = "\n".join(drawn).encode()
    if draw(st.booleans()):
        data += b"\n"
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        insert = draw(st.one_of(
            st.sampled_from([b"\xff", b"\x00", b"\xef\xbb\xbf", b"\r\n", b"\r", b"\t"]),
            st.binary(min_size=1, max_size=6),
        ))
        data = data[:at] + insert + data[at:]
    if draw(st.booleans()):
        data = data.replace(b"\n", b"\r\n")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()):
        data = gzip.compress(data, mtime=0)
        damage = draw(st.sampled_from(["none", "truncate", "flip"]))
        if damage == "truncate":
            data = data[: draw(st.integers(0, len(data) - 1))]
        elif damage == "flip":
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_bytes(FUZZ_LINES), mode=st.sampled_from(["full", "sld"]))
def test_extract_on_mutated_census(tmp_path, capsys, data, mode):
    """extract either writes a feature CSV that reads back, or exits 1 with one
    ERROR line that names the input, and never shows a traceback."""
    corpus_path, out = tmp_path / "census.tsv", tmp_path / "features.csv"
    corpus_path.write_bytes(data)
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["extract", "--in", str(corpus_path), "--out", str(out), "--mode", mode])
    err = capsys.readouterr().err
    assert "Traceback" not in err, err
    errors = [line for line in err.splitlines() if line.startswith("ERROR")]
    if code == 0:
        assert errors == []
        with open(out, newline="", encoding="utf-8") as fh:
            X, y = read_back_features(fh)
        assert X.shape[0] >= 1 and y is None
    else:
        assert code == 1
        assert len(errors) == 1 and str(corpus_path) in errors[0], err


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_bytes(FUZZ_BADLIST_LINES))
def test_reputation_check_on_mutated_badlist(tmp_path, capsys, data):
    """reputation-check either writes a CSV that reads back and agrees with the printed
    counts, or exits 1 with one ERROR line that names the bad-list."""
    flagged, badlist, out = tmp_path / "flagged.txt", tmp_path / "bad.txt", tmp_path / "rep.csv"
    flagged.write_text("evil.com\nEVIL.COM\nok.net\nümlaut.de\n", encoding="utf-8")
    badlist.write_bytes(data)
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["reputation-check", "--in", str(flagged), "--badlist", str(badlist),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err, captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("ERROR")]
    if code == 0:
        assert errors == []
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["domain"] for row in rows] == ["evil.com", "EVIL.COM", "ok.net", "ümlaut.de"]
        assert rows[0]["verdict"] == rows[1]["verdict"]  # case is ignored
        counts = {}
        for row in rows:
            counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
        assert captured.out == ", ".join(f"{v}: {n}" for v, n in sorted(counts.items())) + "\n"
    else:
        assert code == 1
        assert len(errors) == 1 and str(badlist) in errors[0], captured.err


def _one_error_line(err):
    """Exit 1's promise: one ERROR line and no traceback."""
    assert "Traceback" not in err, err
    assert len([line for line in err.splitlines() if line.startswith("ERROR")]) == 1, err


def _check_predictions(out, captured):
    """The rows of ``predictions.csv`` under ``out``, after checking that they read
    back and agree with ``flagged.txt`` and the printed count."""
    assert "Traceback" not in captured.err and "ERROR" not in captured.err, captured.err
    with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["host", "domain", "prediction", *(f"vote_{kind}" for kind in
                                                        ("c45", "knn", "logreg", "nb", "svm"))]
    assert rows and all(len(row) == len(header) for row in rows)
    with open(out / "flagged.txt", encoding="utf-8") as fh:
        flagged = [line.rstrip("\n") for line in fh]
    assert flagged == [row[0] for row in rows if row[2] == "1"]
    printed = re.fullmatch(r"(\d+) of (\d+) domains flagged as DGA \(\d+\.\d\d%\)\n",
                           captured.out)
    assert printed and [int(n) for n in printed.groups()] == [len(flagged), len(rows)]
    return rows


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_bytes(FUZZ_LINES))
def test_predict_on_mutated_census(sld_model, tmp_path, capsys, data):
    """predict either writes predictions that read back and agree with flagged.txt and
    the printed count, or exits 1 with one ERROR line."""
    corpus_path, out = tmp_path / "census.tsv", tmp_path / "preds"
    corpus_path.write_bytes(data)
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    code = main(["predict", "--in", str(corpus_path), "--model", sld_model, "--out", str(out)])
    captured = capsys.readouterr()
    if code != 0:
        assert code == 1
        _one_error_line(captured.err)
        return
    _check_predictions(out, captured)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_bytes(FUZZ_LINES), mode=st.sampled_from(["full", "sld"]))
def test_cluster_on_mutated_census(tmp_path, capsys, data, mode):
    """cluster either writes a centroid table and histograms that read back and agree
    with the printed sizes, or exits 1 with one ERROR line."""
    corpus_path, out = tmp_path / "census.tsv", tmp_path / "clusters"
    corpus_path.write_bytes(data)
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    code = main(["cluster", "--in", str(corpus_path), "--out", str(out), "--mode", mode])
    captured = capsys.readouterr()
    if code != 0:
        assert code == 1
        _one_error_line(captured.err)
        return
    assert "Traceback" not in captured.err and "ERROR" not in captured.err, captured.err
    _check_clusters(out, captured)


def _check_clusters(out, captured):
    with open(out / "centroids.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["feature", "cluster_1", "cluster_2"]
    assert [row[0] for row in rows] == [*FEATURE_NAMES, "size"]
    assert all(len(row) == 3 for row in rows)
    sizes = captured.out.splitlines()[0]
    assert sizes == f"cluster 1: {rows[-1][1]}, cluster 2: {rows[-1][2]}"
    for name in FEATURE_NAMES:
        with open(out / f"hist_{name}.csv", newline="", encoding="utf-8") as fh:
            assert all(len(row) == 3 for row in csv.reader(fh))


def _check_extracted(out, captured):
    with open(out, newline="", encoding="utf-8") as fh:
        X, y = read_back_features(fh)
    assert X.shape[0] >= 1 and y is None


@pytest.mark.parametrize("command", ["extract", "cluster-full", "cluster-sld", "predict"])
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_bytes(FUZZ_DOMAIN_LINES))
def test_commands_on_mutated_domain_list(sld_model, tmp_path, capsys, command, data):
    """extract, cluster and predict on a damaged plain domain list either write
    outputs that read back, or exit 1 with one ERROR line."""
    corpus_path, out = tmp_path / "domains.txt", tmp_path / f"{command}.out"
    corpus_path.write_bytes(data)
    shutil.rmtree(out, ignore_errors=True)
    out.unlink(missing_ok=True)
    argv, check = {
        "extract": (["extract"], _check_extracted),
        "cluster-full": (["cluster", "--mode", "full"], _check_clusters),
        "cluster-sld": (["cluster", "--mode", "sld"], _check_clusters),
        "predict": (["predict", "--model", sld_model], _check_predictions),
    }[command]
    capsys.readouterr()
    code = main([*argv, "--in", str(corpus_path), "--out", str(out)])
    captured = capsys.readouterr()
    if code != 0:
        assert code == 1
        _one_error_line(captured.err)
        return
    assert "Traceback" not in captured.err and "ERROR" not in captured.err, captured.err
    check(out, captured)


def _check_written_model(out, captured):
    assert load_model(out, expected_kind="ensemble").metadata_["n_rows"] >= 1
    digest = json.loads(out.read_bytes().split(b"\n", 1)[0])["sha256"]
    assert captured.out == f"{out}  sha256:{digest[:16]}  {out.stat().st_size} bytes\n"


def _check_evaluate_report(out, captured):
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["classifier", "accuracy", "precision", "recall", "f_score"]
    assert [row[0] for row in rows] == ["c45", "knn", "logreg", "nb", "svm", "ensemble"]
    assert all(len(row) == 5 and [float(cell) for cell in row[1:]] for row in rows)


def _check_analysis(out, captured):
    for name in ["summary", "correlation", *(f"hist_{name}" for name in FEATURE_NAMES)]:
        with open(out / f"{name}.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), name
    assert "uniq_chars" in captured.out


@pytest.mark.parametrize("command", ["train", "evaluate", "analyze", "predict"])
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_bytes(FUZZ_LABELED_LINES, first=FUZZ_LABELED_HEADS))
def test_labeled_commands_on_mutated_csv(sld_model, tmp_path, capsys, command, data):
    """train, evaluate, analyze and predict on a damaged labeled CSV either write
    outputs that read back, or exit 1 with one ERROR line."""
    corpus_path, out = tmp_path / "labeled.csv", tmp_path / f"{command}.out"
    corpus_path.write_bytes(data)
    shutil.rmtree(out, ignore_errors=True)
    out.unlink(missing_ok=True)
    argv, check = {
        "train": ([], _check_written_model),
        "evaluate": (["--model", sld_model], _check_evaluate_report),
        "analyze": ([], _check_analysis),
        "predict": (["--model", sld_model], _check_predictions),
    }[command]
    capsys.readouterr()
    code = main([command, "--in", str(corpus_path), "--out", str(out), *argv])
    captured = capsys.readouterr()
    if code != 0:
        assert code == 1
        _one_error_line(captured.err)
        return
    assert "Traceback" not in captured.err and "ERROR" not in captured.err, captured.err
    check(out, captured)


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("domainsift")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "extract" in proc.stdout and "reputation-check" in proc.stdout
