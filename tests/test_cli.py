import csv
import os
import random
from pathlib import Path

import numpy as np
import pytest

from domainsift.cli import main
from domainsift.features import FEATURE_NAMES

from conftest import (
    as_format_3,
    as_format_4,
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
    cfg.write_text("seed = 5\nknn_k = 3\n")
    model = tmp_path / "m.dsmodel"
    rc = main(["train", "--in", str(workdir / "gen" / "labeled.csv"),
               "--out", str(model), "--config", str(cfg)])
    assert rc == 0
    doc = read_model_document(model)
    assert doc["payload"]["state"]["members"]["knn"]["params"]["k"] == 3


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["extract", "--bogus"]) == 2

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["extract", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.csv")]) == 1

    def test_bad_model_file_is_data_error(self, workdir, tmp_path):
        fake = tmp_path / "fake.dsmodel"
        fake.write_text("{}")
        assert main(["predict", "--in", str(workdir / "gen" / "census.tsv"),
                     "--model", str(fake), "--out", str(tmp_path / "p")]) == 1

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_old_version_model_is_data_error(self, workdir, sld_model, tmp_path, capsys,
                                             version):
        old = tmp_path / "old.dsmodel"
        document = read_model_document(Path(sld_model))
        if version == 4:  # members as a list of named entries, and an ensemble version
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


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("domainsift")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "extract" in proc.stdout and "reputation-check" in proc.stdout
