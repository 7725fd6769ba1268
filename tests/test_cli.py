import csv
import gzip
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from domainsift.cli import main
from domainsift.features import FEATURE_NAMES, read_feature_csv

from conftest import (
    as_format_3,
    as_format_4,
    as_format_5,
    as_format_6,
    read_model_document,
    write_model_document,
    write_single_document_model,
)


# config keys that set learner and k-means hyperparameters before model format 7
FORMER_KEYS = ["tree_max_depth", "tree_min_leaf", "tree_cf", "knn_k", "logreg_lr",
               "logreg_epochs", "logreg_l2", "logreg_tol", "nb_var_floor", "svm_lambda",
               "svm_epochs", "kmeans_max_iter", "kmeans_tol", "kmeans_restarts"]


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
                 "--out", str(path), "--seed", "5"]) == 0
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
    assert main(["train", "--in", labeled, "--out", model, "--seed", "5"]) == 0
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
    assert main(["train", "--in", labeled, "--out", str(a), "--seed", "3"]) == 0
    assert main(["train", "--in", labeled, "--out", str(b), "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cluster_outputs(workdir, capsys):
    out = workdir / "clusters"
    rc = main(["cluster", "--in", str(workdir / "gen" / "census.tsv"),
               "--out", str(out), "--k", "2", "--seed", "1",
               "--model-out", str(workdir / "km.dsmodel")])
    assert rc == 0
    centroid_lines = (out / "centroids.csv").read_text().splitlines()
    assert centroid_lines[0] == "feature,cluster_1,cluster_2"
    assert (workdir / "km.dsmodel").exists()
    assert "inertia" in capsys.readouterr().out


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
                     "--out", str(path), "--mode", "full", "--seed", "5"]) == 0
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

    def test_mismatched_config_refused(self, workdir, full_model, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = sld\n")
        assert main(["predict", "--in", str(workdir / "gen" / "census.tsv"),
                     "--model", full_model, "--config", str(cfg),
                     "--out", str(tmp_path / "p")]) == 1

    def test_evaluate_existing_model_refuses_mismatch(self, workdir, full_model):
        assert main(["evaluate", "--in", str(workdir / "gen" / "labeled.csv"),
                     "--model", full_model, "--mode", "sld"]) == 1


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


def test_config_file_supplies_defaults(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\nmode = full\n")
    model = tmp_path / "m.dsmodel"
    rc = main(["train", "--in", str(workdir / "gen" / "labeled.csv"),
               "--out", str(model), "--config", str(cfg)])
    assert rc == 0
    doc = read_model_document(model)
    assert doc["metadata"]["mode"] == "full"
    assert doc["payload"]["params"] == {"seed": 5}
    assert doc["payload"]["state"]["members"]["svm"]["params"]["seed"] == 5


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
    ], ids=["extract_seed", "analyze_seed", "predict_seed", "reputation_check_mode"])
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

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_old_version_model_is_data_error(self, workdir, sld_model, tmp_path, capsys,
                                             version):
        old = tmp_path / "old.dsmodel"
        document = read_model_document(Path(sld_model))
        if version == 6:  # the ensemble parameters also hold member_params and members
            write_model_document(old, as_format_6(document), version)
        elif version == 5:  # the ensemble state also holds the training corpus fingerprint
            write_model_document(old, as_format_5(document), version)
        elif version == 4:  # members as a list of named entries, and an ensemble version
            write_model_document(old, as_format_4(document), version)
        elif version == 3:  # a header line and a body, with every kNN training row stored
            write_model_document(old, as_format_3(document), version)
        else:
            write_single_document_model(old, document, version)
        capsys.readouterr()
        assert main(["predict", "--in", str(workdir / "gen" / "census.tsv"),
                     "--model", str(old), "--out", str(tmp_path / "p")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR") and len(err.splitlines()) == 1, err
        assert f"format version {version}" in err

    @pytest.mark.parametrize("argv,config", [
        (["extract", "--max-rows", "-2"], None),
        (["extract", "--max-rows", "0"], None),
        (["extract"], "max_rows = 0\n"),
        (["reputation-check", "--max-rows", "-1", "--badlist", "{in}"], None),
    ], ids=["extract_-2", "extract_0", "config_0", "reputation_check_-1"])
    def test_max_rows_below_1_refused(self, workdir, tmp_path, capsys, argv, config):
        labeled = str(workdir / "gen" / "labeled.csv")
        argv = [a.format(**{"in": labeled}) for a in argv]
        argv += ["--in", labeled, "--out", str(tmp_path / "o.csv")]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR") and len(err.splitlines()) == 1, err
        assert "max_rows must be at least 1" in err
        assert not (tmp_path / "o.csv").exists()

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

    @pytest.mark.parametrize("argv,config,message", [
        (["cluster", "--k", "0"], None, "--k must be at least 1, got 0"),
        (["cluster"], "k = -2\n", "--k must be at least 1, got -2"),
        (["evaluate", "--cv", "-3"], None, "--cv must be 0 or at least 2, got -3"),
        (["evaluate", "--cv", "1"], None, "--cv must be 0 or at least 2, got 1"),
        (["evaluate"], "cv = 1\n", "--cv must be 0 or at least 2, got 1"),
        (["evaluate", "--test-fraction", "2"], None, "--test-fraction must be in (0, 1), got 2.0"),
        (["evaluate", "--test-fraction", "0"], None, "--test-fraction must be in (0, 1), got 0.0"),
        (["evaluate", "--test-fraction", "nan"], None,
         "--test-fraction must be in (0, 1), got nan"),
        (["evaluate"], "test_fraction = 1\n", "--test-fraction must be in (0, 1), got 1.0"),
    ], ids=["k_0", "config_k", "cv_negative", "cv_1", "config_cv", "test_fraction_2",
            "test_fraction_0", "test_fraction_nan", "config_test_fraction"])
    def test_bad_option_refused_before_reading(self, workdir, tmp_path, capsys, argv, config,
                                               message):
        corpus = "census.tsv" if argv[0] == "cluster" else "labeled.csv"
        argv = argv + ["--in", str(workdir / "gen" / corpus), "--out", str(tmp_path / "o")]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"ERROR domainsift: {message}\n"
        assert "parsed" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("argv", [
        ["generate", "--n-legit", "20", "--n-dga", "20", "--census-n", "20"],
        ["train", "--in", "{missing}"],
        ["evaluate", "--in", "{missing}"],
        ["cluster", "--in", "{missing}"],
        ["reputation-check", "--in", "{missing}", "--badlist", "{missing}", "--sample", "1"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_refused_before_reading(self, tmp_path, capsys, argv, source):
        # the input does not exist, so reading it first would give another error
        argv = [a.format(missing=tmp_path / "missing.txt") for a in argv]
        argv += ["--out", str(tmp_path / "o")]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            (tmp_path / "run.cfg").write_text("seed = -1\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "ERROR domainsift: --seed must be at least 0, got -1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line,message", [
        *((f"{key} = 1", f"unknown config key {key!r}; known keys: ") for key in FORMER_KEYS),
        ("mode = bogus", "mode: unknown normalization mode 'bogus'; expected one of "),
        ("mode = full\x00", "mode: unknown normalization mode 'full\\x00'; expected one of "),
    ], ids=[*FORMER_KEYS, "mode_bogus", "mode_nul"])
    def test_bad_config_line_refused_before_reading(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 3\n{line}\n")
        out = tmp_path / "m.dsmodel"
        capsys.readouterr()
        assert main(["train", "--in", str(tmp_path / "missing.csv"), "--out", str(out),
                     "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR domainsift: {cfg}:2: {message}"), err
        assert len(err.splitlines()) == 1, err
        assert not out.exists()

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

    def test_bad_config_is_data_error(self, workdir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n")
        assert main(["extract", "--in", str(workdir / "gen" / "labeled.csv"),
                     "--out", str(tmp_path / "o.csv"), "--config", str(cfg)]) == 1

    def test_feature_csv_rejected_for_predict(self, workdir, sld_model, tmp_path, capsys):
        features = str(tmp_path / "features.csv")
        assert main(["extract", "--in", str(workdir / "gen" / "labeled.csv"),
                     "--out", features]) == 0
        capsys.readouterr()
        assert main(["predict", "--in", features, "--model", sld_model,
                     "--out", str(tmp_path / "p")]) == 1
        assert "feature CSV" in capsys.readouterr().err


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
        assert main(["train", "--in", str(labeled), "--out", str(model), "--seed", "5"]) == 0
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

    def test_bom_config_is_read(self, tmp_path, capsys):
        domains = tmp_path / "domains.txt"
        domains.write_text("example.com\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("\ufeffseed = 4\n".encode())
        capsys.readouterr()
        assert main(["extract", "--in", str(domains), "--out", str(tmp_path / "f.csv"),
                     "--config", str(cfg)]) == 0
        assert ("INFO domainsift: resolved options: {'mode': 'sld', 'seed': 4, 'max_rows': None}"
                in capsys.readouterr().err.splitlines())

    @pytest.mark.parametrize("which", ["badlist", "config"])
    def test_non_utf8_user_file_is_one_error_line(self, tmp_path, capsys, which):
        domains = tmp_path / "domains.txt"
        domains.write_text("example.com\n")
        user_file = tmp_path / f"{which}.txt"
        argv = {
            "badlist": ["reputation-check", "--badlist", str(user_file)],
            "config": ["extract", "--out", str(tmp_path / "f.csv"), "--config", str(user_file)],
        }[which]
        user_file.write_bytes({"badlist": b"example.com\n", "config": b"seed = 4\n"}[which]
                              + b"\xff\n")
        capsys.readouterr()
        assert main([*argv, "--in", str(domains)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and "Traceback" not in err, err
        role = {"badlist": "bad-list", "config": "config"}[which]
        assert errors == [f"ERROR domainsift: {role} error: {user_file}: "
                          "not UTF-8 text: byte 0xff: invalid start byte"]


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


# bad-list lines: names, comments and blanks
FUZZ_BADLIST_LINES = ["evil.com", "EVIL.com  # seen in 2020", "# a comment", "ümlaut.de", ""]

# config lines with run options: extract reads mode, which is checked where the file is
# parsed, and takes any value of the types of seed, k, cv and test_fraction. max_rows is
# left out: an out-of-range value is an option error that names the option, not the file
FUZZ_CONFIG_LINES = ["seed = 4", "mode = full  # trailing", "k = 3", "cv = 5",
                     "test_fraction = 0.25", "# run settings", ""]


@st.composite
def mutated_bytes(draw, lines):
    """File bytes: some of ``lines``, then byte-level damage, maybe gzipped."""
    data = "\n".join(draw(st.lists(st.sampled_from(lines), max_size=12))).encode()
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
            X, y = read_feature_csv(fh)
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


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_bytes(FUZZ_CONFIG_LINES))
def test_extract_on_mutated_config(tmp_path, capsys, data):
    """extract with a damaged --config either writes a feature CSV that reads back,
    or exits 1 with one ERROR line that names the config file."""
    domains, cfg, out = tmp_path / "domains.txt", tmp_path / "run.cfg", tmp_path / "f.csv"
    domains.write_text("example.com\nqxz07k.net\n")
    cfg.write_bytes(data)
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["extract", "--in", str(domains), "--out", str(out), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert "Traceback" not in err, err
    errors = [line for line in err.splitlines() if line.startswith("ERROR")]
    if code == 0:
        assert errors == []
        with open(out, newline="", encoding="utf-8") as fh:
            X, _ = read_feature_csv(fh)
        assert X.shape[0] == 2
    else:
        assert code == 1
        assert len(errors) == 1 and str(cfg) in errors[0], err


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("domainsift")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "extract" in proc.stdout and "reputation-check" in proc.stdout
