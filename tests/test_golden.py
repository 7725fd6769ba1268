"""Every file a command writes is byte-stable: digests (sha256, first 16 hex
digits) of the outputs of extract, analyze, train, evaluate, predict and
cluster, in both modes, on small seeded corpora from ``generate``."""

import hashlib
import sys

import pytest

from domainsift.cli import main

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="Python 3.12+ compensates float sum(), which can move svm weights and so the bytes",
)

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
        "km.dsmodel": "6cb15074c60ee271",
    },
    (42, "full", "evaluate"): {
        "report.csv": "53da7bde1de949c1",
    },
    (42, "full", "extract"): {
        "features.csv": "1ace97f1f9489856",
    },
    (42, "full", "predict"): {
        "predict/flagged.txt": "1f061ca6f4b3c946",
        "predict/hist_len.csv": "7dbc3df75f3c3f7c",
        "predict/hist_ratio_letters.csv": "d8fdee516345f8a6",
        "predict/hist_ratio_numbers.csv": "50063f69a76f943a",
        "predict/hist_ratio_uniq_letters.csv": "50563aef68ea92e5",
        "predict/hist_ratio_uniq_numbers.csv": "f929f1706f8d3be2",
        "predict/hist_uniq_chars.csv": "75783c9353d798b9",
        "predict/hist_uniq_letters.csv": "1f27b2958a3c255e",
        "predict/hist_uniq_numbers.csv": "b7eac7f25bd82d66",
        "predict/predictions.csv": "ea915b9f3aea0d6b",
    },
    (42, "full", "train"): {
        "model.dsmodel": "165288fba81a3fb4",
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
        "km.dsmodel": "e52b76883258de11",
    },
    (42, "sld", "evaluate"): {
        "report.csv": "53da7bde1de949c1",
    },
    (42, "sld", "extract"): {
        "features.csv": "1ace97f1f9489856",
    },
    (42, "sld", "predict"): {
        "predict/flagged.txt": "a57ce0e9186678f9",
        "predict/hist_len.csv": "69d89012451457e6",
        "predict/hist_ratio_letters.csv": "0d5f8dd71ed0b487",
        "predict/hist_ratio_numbers.csv": "9682c999bb69a101",
        "predict/hist_ratio_uniq_letters.csv": "7b27d09e661b5dc1",
        "predict/hist_ratio_uniq_numbers.csv": "421e0963a2cd14d7",
        "predict/hist_uniq_chars.csv": "b2255e34e062c9f8",
        "predict/hist_uniq_letters.csv": "53e88a63185d1bd2",
        "predict/hist_uniq_numbers.csv": "f8fe7ee0811fbf5b",
        "predict/predictions.csv": "41ebf83f31a3923e",
    },
    (42, "sld", "train"): {
        "model.dsmodel": "3a10ad3661608bf8",
    },
    (20201224, "full", "predict"): {
        "predict/flagged.txt": "1be6812332d745ed",
        "predict/hist_len.csv": "23d99f0e9001c119",
        "predict/hist_ratio_letters.csv": "78817b458880308e",
        "predict/hist_ratio_numbers.csv": "62bf5bfba893e497",
        "predict/hist_ratio_uniq_letters.csv": "57f6e83f4b68a1e3",
        "predict/hist_ratio_uniq_numbers.csv": "820ab3b1be34a9d2",
        "predict/hist_uniq_chars.csv": "777f8e9e2cc64261",
        "predict/hist_uniq_letters.csv": "1e85c9bd09ece8f0",
        "predict/hist_uniq_numbers.csv": "f7b2e23ab6b42a94",
        "predict/predictions.csv": "53d45b4847f01041",
    },
    (20201224, "sld", "predict"): {
        "predict/flagged.txt": "43071f6789f32527",
        "predict/hist_len.csv": "b0792a5f863339dd",
        "predict/hist_ratio_letters.csv": "dc9395315ef755e7",
        "predict/hist_ratio_numbers.csv": "045bf738f4da5b34",
        "predict/hist_ratio_uniq_letters.csv": "3c1f0d933a8017d1",
        "predict/hist_ratio_uniq_numbers.csv": "0f3d0ac95ea248de",
        "predict/hist_uniq_chars.csv": "fe6ad89655d40400",
        "predict/hist_uniq_letters.csv": "fefc727ada1a4189",
        "predict/hist_uniq_numbers.csv": "c56b6b1f10becd84",
        "predict/predictions.csv": "4842be0abe9b9721",
    },
}


@pytest.mark.parametrize("seed, mode, command", sorted(GOLDEN))
def test_digests(digests, seed, mode, command):
    assert digests(seed, mode)[command] == GOLDEN[seed, mode, command]
