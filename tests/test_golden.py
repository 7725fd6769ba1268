"""Every file a command writes is byte-stable: digests (sha256, first 16 hex
digits) of the outputs of extract, analyze, train, evaluate, predict and
cluster, in both modes, on small seeded corpora from ``generate``; those of
analyze and cluster also under older OpenBLAS kernels."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import domainsift
from domainsift import cli
from domainsift.cli import main

CORPUS_SIZES = ["--n-legit", "600", "--n-dga", "400", "--census-n", "3000"]


def commands(corpus, out):
    """``(command, argv)`` for each command, reading the corpora in ``corpus`` and
    writing under ``out``; predict scores with the model that train writes."""
    labeled, census = str(corpus / "labeled.csv"), str(corpus / "census.tsv")
    return [
        ("extract", ["extract", "--in", labeled, "--out", str(out / "features.csv")]),
        ("analyze", ["analyze", "--in", labeled, "--out", str(out / "analysis")]),
        ("train", ["train", "--in", labeled, "--out", str(out / "model.dsmodel")]),
        ("evaluate", ["evaluate", "--in", labeled, "--out", str(out / "report.csv")]),
        ("predict", ["predict", "--in", census, "--model", str(out / "model.dsmodel"),
                     "--out", str(out / "predict")]),
        ("cluster", ["cluster", "--in", census, "--out", str(out / "cluster"),
                     "--model-out", str(out / "km.dsmodel")]),
    ]


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """``digests(seed, mode)``: each command's ``{file: digest}``, relative to its
    output root, after one run of all commands; a run is made once per seed and mode."""
    done = {}

    def get(seed, mode):
        if (seed, mode) not in done:
            root = tmp_path_factory.mktemp(f"golden-{seed}-{mode}")
            assert main(["generate", "--out", str(root / "gen"), "--seed", str(seed),
                         *CORPUS_SIZES]) == 0
            out = root / "out"
            out.mkdir()
            done[seed, mode] = {
                command: _written(out, lambda: main([*argv, "--mode", mode]) == 0)
                for command, argv in commands(root / "gen", out)
            }
        return done[seed, mode]

    return get


def _written(out, run):
    """The ``{file: digest}`` of the files under ``out`` that ``run()`` writes,
    relative to ``out``; ``run`` returns whether the command succeeded."""
    before = {p for p in out.rglob("*") if p.is_file()}
    assert run()
    written = sorted(p for p in out.rglob("*") if p.is_file() and p not in before)
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in written}


GOLDEN = {
    (42, "full", "analyze"): {
        "analysis/correlation.csv": "31fd4612179d5d85",
        "analysis/hist_len.csv": "3f68d6af1d9d0518",
        "analysis/hist_ratio_letters.csv": "af0e6cded3fc35a3",
        "analysis/hist_ratio_numbers.csv": "3787ef7df13bbbba",
        "analysis/hist_ratio_uniq_letters.csv": "e96c26cc0e131eea",
        "analysis/hist_ratio_uniq_numbers.csv": "38c9a38bb6bb3833",
        "analysis/hist_uniq_chars.csv": "745ba2172336159e",
        "analysis/hist_uniq_letters.csv": "db84d53c536b47df",
        "analysis/hist_uniq_numbers.csv": "6d5b5b0ca554ce39",
        "analysis/summary.csv": "a9101c2b2d6caad2",
    },
    (42, "full", "cluster"): {
        "cluster/centroids.csv": "dc1a23942f85e6dc",
        "cluster/hist_len.csv": "3cf886f06295c71d",
        "cluster/hist_ratio_letters.csv": "057bcce94b39941b",
        "cluster/hist_ratio_numbers.csv": "3834173081e51b31",
        "cluster/hist_ratio_uniq_letters.csv": "65a7124aa8d5c372",
        "cluster/hist_ratio_uniq_numbers.csv": "061078be1b27401b",
        "cluster/hist_uniq_chars.csv": "151db04f3bc24aeb",
        "cluster/hist_uniq_letters.csv": "d5fa123c8fc337b3",
        "cluster/hist_uniq_numbers.csv": "3a9e57e78a39c421",
        "km.dsmodel": "dd1c38baa0538720",
    },
    (42, "full", "evaluate"): {
        "report.csv": "e9b58e9085dd778d",
    },
    (42, "full", "extract"): {
        "features.csv": "1ace97f1f9489856",
    },
    (42, "full", "predict"): {
        "predict/flagged.txt": "e749b04e4260ed9e",
        "predict/hist_len.csv": "c861e1ae3962ed3a",
        "predict/hist_ratio_letters.csv": "aaf9113d93691caf",
        "predict/hist_ratio_numbers.csv": "e5c02e8d2deaa6a3",
        "predict/hist_ratio_uniq_letters.csv": "102c679197b7c98e",
        "predict/hist_ratio_uniq_numbers.csv": "1a4963502bf2386d",
        "predict/hist_uniq_chars.csv": "b2225a02b9ddd322",
        "predict/hist_uniq_letters.csv": "9e49bc9fe4bf250a",
        "predict/hist_uniq_numbers.csv": "d59df67cda45748e",
        "predict/predictions.csv": "4d0537943431b1f9",
    },
    (42, "full", "train"): {
        "model.dsmodel": "2a3cb653cc37d4a7",
    },
    (42, "sld", "analyze"): {
        "analysis/correlation.csv": "31fd4612179d5d85",
        "analysis/hist_len.csv": "3f68d6af1d9d0518",
        "analysis/hist_ratio_letters.csv": "af0e6cded3fc35a3",
        "analysis/hist_ratio_numbers.csv": "3787ef7df13bbbba",
        "analysis/hist_ratio_uniq_letters.csv": "e96c26cc0e131eea",
        "analysis/hist_ratio_uniq_numbers.csv": "38c9a38bb6bb3833",
        "analysis/hist_uniq_chars.csv": "745ba2172336159e",
        "analysis/hist_uniq_letters.csv": "db84d53c536b47df",
        "analysis/hist_uniq_numbers.csv": "6d5b5b0ca554ce39",
        "analysis/summary.csv": "a9101c2b2d6caad2",
    },
    (42, "sld", "cluster"): {
        "cluster/centroids.csv": "97eb39b8a022bead",
        "cluster/hist_len.csv": "77573a974803954b",
        "cluster/hist_ratio_letters.csv": "64fe1fc26f3b31bc",
        "cluster/hist_ratio_numbers.csv": "6c3f63fdd2ca6974",
        "cluster/hist_ratio_uniq_letters.csv": "e262f11adecfc3f9",
        "cluster/hist_ratio_uniq_numbers.csv": "94c5f85c37de559d",
        "cluster/hist_uniq_chars.csv": "e213c72dff329851",
        "cluster/hist_uniq_letters.csv": "9657066479aee83e",
        "cluster/hist_uniq_numbers.csv": "3cd40437198cba0a",
        "km.dsmodel": "49be86dc26196a54",
    },
    (42, "sld", "evaluate"): {
        "report.csv": "e9b58e9085dd778d",
    },
    (42, "sld", "extract"): {
        "features.csv": "1ace97f1f9489856",
    },
    (42, "sld", "predict"): {
        "predict/flagged.txt": "738e4027ec0eaa61",
        "predict/hist_len.csv": "e4bc5051482f5210",
        "predict/hist_ratio_letters.csv": "98f6152bb471727b",
        "predict/hist_ratio_numbers.csv": "27b82d5fba39ab58",
        "predict/hist_ratio_uniq_letters.csv": "f6949b01338fc7b2",
        "predict/hist_ratio_uniq_numbers.csv": "a5362f1b360128a3",
        "predict/hist_uniq_chars.csv": "acf141cfdb462584",
        "predict/hist_uniq_letters.csv": "0cc5a6916ba455ab",
        "predict/hist_uniq_numbers.csv": "db7ffeb7d3cb405a",
        "predict/predictions.csv": "57fcb17e76e808f6",
    },
    (42, "sld", "train"): {
        "model.dsmodel": "0074e3da7c61c5bf",
    },
    (20201224, "full", "predict"): {
        "predict/flagged.txt": "00ed959baf81dd1c",
        "predict/hist_len.csv": "88a35be8bc3c43b5",
        "predict/hist_ratio_letters.csv": "489b30e5111e0240",
        "predict/hist_ratio_numbers.csv": "137ddde7043c166d",
        "predict/hist_ratio_uniq_letters.csv": "ec9915ce4ee4ee86",
        "predict/hist_ratio_uniq_numbers.csv": "cc8729a27bda1e23",
        "predict/hist_uniq_chars.csv": "987da5a81ed53f4e",
        "predict/hist_uniq_letters.csv": "8ece062f7e695105",
        "predict/hist_uniq_numbers.csv": "7c5cb98e9496484b",
        "predict/predictions.csv": "ca1d02aae739aa56",
    },
    (20201224, "sld", "predict"): {
        "predict/flagged.txt": "31543fb273a71a6d",
        "predict/hist_len.csv": "212db1f1e3005d0f",
        "predict/hist_ratio_letters.csv": "9324cc90448e9920",
        "predict/hist_ratio_numbers.csv": "c1a51aa0bc809801",
        "predict/hist_ratio_uniq_letters.csv": "0bf500db7aa10909",
        "predict/hist_ratio_uniq_numbers.csv": "3ddccd2a8e4572cc",
        "predict/hist_uniq_chars.csv": "375503fd56ccd016",
        "predict/hist_uniq_letters.csv": "d5528fa8114bb30c",
        "predict/hist_uniq_numbers.csv": "a9edfd4896e5f20d",
        "predict/predictions.csv": "92b9d95c01b7e1a1",
    },
}


@pytest.mark.parametrize("seed, mode, command", sorted(GOLDEN))
def test_digests(digests, seed, mode, command):
    assert digests(seed, mode)[command] == GOLDEN[seed, mode, command]


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_cluster_and_analyze_do_not_depend_on_the_blas_kernel(tmp_path, kernel):
    """``cluster`` and ``analyze`` make no BLAS call that reaches an output byte: run
    in child processes under an older OpenBLAS kernel, set for those children only,
    they write the default kernel's files."""
    assert main(["generate", "--out", str(tmp_path / "gen"), "--seed", "42",
                 *CORPUS_SIZES]) == 0
    src = str(Path(domainsift.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for mode in ("full", "sld"):
        out = tmp_path / mode
        out.mkdir()
        for command, argv in commands(tmp_path / "gen", out):
            if command in ("analyze", "cluster"):
                argv = [sys.executable, "-m", "domainsift.cli", *argv, "--mode", mode]
                written = _written(out, lambda: subprocess.run(
                    argv, env=env, capture_output=True).returncode == 0)
                assert written == GOLDEN[42, mode, command], (mode, command)


def test_train_builds_no_per_row_feature_matrix(tmp_path, monkeypatch):
    """``train`` fits from the distinct (feature row, label) pairs: with the per-row
    ``extract_features`` made to fail, it still writes the golden model."""
    assert main(["generate", "--out", str(tmp_path / "gen"), "--seed", "42",
                 *CORPUS_SIZES]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("train built a per-row feature matrix")

    monkeypatch.setattr(cli, "extract_features", refuse)
    for mode in ("full", "sld"):
        out = tmp_path / mode
        out.mkdir()
        argv = dict(commands(tmp_path / "gen", out))["train"]
        assert _written(out, lambda: main([*argv, "--mode", mode]) == 0) == GOLDEN[42, mode, "train"]
