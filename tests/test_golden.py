"""Every file a command writes is byte-stable: digests (sha256, first 16 hex
digits) of the outputs of extract, analyze, train, evaluate, predict and
cluster, in both modes, on small seeded corpora from ``generate``."""

import hashlib

import pytest

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
            done[seed, mode] = {}
            for command, argv in commands(root / "gen", out):
                before = {p for p in out.rglob("*") if p.is_file()}
                assert main([*argv, "--mode", mode]) == 0, command
                written = sorted(p for p in out.rglob("*") if p.is_file() and p not in before)
                done[seed, mode][command] = {
                    p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                    for p in written
                }
        return done[seed, mode]

    return get


GOLDEN = {
    (42, "full", "analyze"): {
        "analysis/correlation.csv": "0f94c04c4033b277",
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
        "cluster/centroids.csv": "aca3dc406dfd8df7",
        "cluster/hist_len.csv": "66f191af1e4ba2da",
        "cluster/hist_ratio_letters.csv": "7d868082f3443ac1",
        "cluster/hist_ratio_numbers.csv": "07d7c3cc720249a6",
        "cluster/hist_ratio_uniq_letters.csv": "27bf007267e98f15",
        "cluster/hist_ratio_uniq_numbers.csv": "ce344797b6b16970",
        "cluster/hist_uniq_chars.csv": "ddd806e4264c8f45",
        "cluster/hist_uniq_letters.csv": "f7e0a517d7b290fa",
        "cluster/hist_uniq_numbers.csv": "a466ccc39205e862",
        "km.dsmodel": "9d08f55a76357f36",
    },
    (42, "full", "evaluate"): {
        "report.csv": "72b4c048bcc81709",
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
        "predict/predictions.csv": "b030104558558014",
    },
    (42, "full", "train"): {
        "model.dsmodel": "701cf865719ac0d5",
    },
    (42, "sld", "analyze"): {
        "analysis/correlation.csv": "0f94c04c4033b277",
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
        "km.dsmodel": "effe8ec39febb0cb",
    },
    (42, "sld", "evaluate"): {
        "report.csv": "72b4c048bcc81709",
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
        "predict/predictions.csv": "a8b392651bcd27ab",
    },
    (42, "sld", "train"): {
        "model.dsmodel": "b453bbc13529d4f8",
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
