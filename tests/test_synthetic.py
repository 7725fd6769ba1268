import csv
import gzip
import hashlib
import string
import time

import numpy as np
import pytest

from domainsift.cli import main
from domainsift.synthetic import (
    DGA_ALPHABET,
    DGA_MAX_LEN,
    DGA_MIN_LEN,
    generate_census,
    generate_dga_domains,
    generate_labeled_corpus,
    generate_legit_domains,
    load_wordlist,
    write_census_file,
    write_labeled_csv,
    write_truth_csv,
)


class TestGenerators:
    def test_legit_shape(self):
        rng = np.random.default_rng(0)
        words = load_wordlist()
        domains = generate_legit_domains(500, rng)
        assert len(domains) == len(set(domains)) == 500
        wordset = set(words)

        def decomposable(d, depth):
            if depth > 3:
                return False
            if d == "" and depth >= 2:
                return True
            return any(
                d.startswith(w) and decomposable(d[len(w):], depth + 1) for w in wordset
            )

        for d in list(domains)[:40]:
            assert decomposable(d, 0), d

    def test_dga_shape(self):
        rng = np.random.default_rng(1)
        domains = generate_dga_domains(500, rng)
        assert len(domains) == len(set(domains)) == 500
        for d in domains:
            assert DGA_MIN_LEN <= len(d) <= DGA_MAX_LEN
            assert set(d) <= set(DGA_ALPHABET)

    def test_dga_excludes(self):
        rng = np.random.default_rng(2)
        first = set(generate_dga_domains(50, rng))
        rng2 = np.random.default_rng(2)
        second = generate_dga_domains(50, rng2, exclude=first)
        assert not (set(second) & first)

    def test_labeled_corpus(self):
        domains, labels = generate_labeled_corpus(n_legit=300, n_dga=200, seed=5)
        assert len(domains) == 500
        assert labels.sum() == 200
        assert len(set(domains)) == 500
        # shuffled: both classes appear early
        assert len(set(labels[:20].tolist())) == 2

    def test_determinism(self):
        a = generate_labeled_corpus(n_legit=100, n_dga=50, seed=9)
        b = generate_labeled_corpus(n_legit=100, n_dga=50, seed=9)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_seed_changes_output(self):
        a = generate_labeled_corpus(n_legit=50, n_dga=20, seed=1)[0]
        b = generate_labeled_corpus(n_legit=50, n_dga=20, seed=2)[0]
        assert a != b


class TestCensus:
    def test_mix_and_truth(self):
        hosts, ips, truth = generate_census(n=1000, dga_fraction=0.1, seed=3)
        assert len(hosts) == len(ips) == truth.size == 1000
        assert truth.sum() == 100
        for host in hosts[:50]:
            assert "." in host  # carries a TLD
        for ip in ips[:50]:
            octets = [int(o) for o in ip.split(".")]
            assert len(octets) == 4
            assert all(0 <= o <= 255 for o in octets)

    def test_truth_aligns_with_shape(self):
        hosts, _, truth = generate_census(n=400, dga_fraction=0.25, seed=8)
        # DGA hosts are random-looking: long label of [a-z0-9]
        for host, label in list(zip(hosts, truth))[:80]:
            sld = host.split(".")[0]
            if label == 1:
                assert DGA_MIN_LEN <= len(sld) <= DGA_MAX_LEN


class TestWriters:
    def test_labeled_csv(self, tmp_path):
        domains, labels = generate_labeled_corpus(n_legit=20, n_dga=10, seed=0)
        path = tmp_path / "labeled.csv"
        write_labeled_csv(path, domains, labels)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["host", "domain", "class"]
        assert len(rows) == 31
        classes = {r[2] for r in rows[1:]}
        assert classes == {"legit", "dga"}

    def test_census_plain_and_gzip(self, tmp_path):
        hosts, ips, _ = generate_census(n=30, seed=0)
        plain = tmp_path / "census.tsv"
        zipped = tmp_path / "census.tsv.gz"
        write_census_file(plain, hosts, ips)
        write_census_file(zipped, hosts, ips)
        with open(plain) as fh:
            plain_lines = fh.read().splitlines()
        with gzip.open(zipped, "rt") as fh:
            gz_lines = fh.read().splitlines()
        assert plain_lines == gz_lines
        host, ip = plain_lines[0].split("\t")
        assert "." in host and ip.count(".") == 3

    def test_truth_csv(self, tmp_path):
        hosts, _, truth = generate_census(n=25, seed=0)
        path = tmp_path / "truth.csv"
        write_truth_csv(path, hosts, truth)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["host", "label"]
        assert sum(int(r[1]) for r in rows[1:]) == int(truth.sum())


def sha16(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class TestGenerateGolden:
    """A seed's corpora are byte-stable: digests of labeled.csv, census.tsv
    and census_truth.csv (sha256, first 16 hex digits)."""

    @pytest.mark.parametrize("argv, digests", [
        (["--seed", "7", "--n-legit", "300", "--n-dga", "200", "--census-n", "400"],
         ("fc9a86f33465bd0b", "26a372e554fa0754", "282479129f065951")),
        (["--seed", "42", "--census-n", "10000"],
         ("1053b731727ecfc0", "19b57288f34ce70d", "34ff125303b3fc38")),
        (["--seed", "3", "--n-legit", "50", "--n-dga", "40", "--census-n", "0"],
         ("13437c3d1f04acaa", "e3b0c44298fc1c14", "a83e271391885d18")),
        (["--seed", "5", "--n-legit", "30", "--n-dga", "20", "--census-n", "300",
          "--dga-fraction", "0"],
         ("ada4bb68900aa87b", "f799a8ba7eed4650", "a61f4a3717bdda46")),
        (["--seed", "5", "--n-legit", "30", "--n-dga", "20", "--census-n", "300",
          "--dga-fraction", "1"],
         ("ada4bb68900aa87b", "1acae2da666d8a31", "65d4301de5c813d8")),
    ])
    def test_digests(self, tmp_path, argv, digests):
        assert main(["generate", "--out", str(tmp_path), *argv]) == 0
        names = ("labeled.csv", "census.tsv", "census_truth.csv")
        assert tuple(sha16(tmp_path / name) for name in names) == digests

    def test_gzip_is_reproducible(self, tmp_path, monkeypatch):
        argv = ["generate", "--seed", "7", "--n-legit", "300", "--n-dga", "200",
                "--census-n", "400", "--gzip"]
        for clock in (1e9, 2e9):  # gzip headers default to the current time
            monkeypatch.setattr(time, "time", lambda: clock)
            assert main([*argv, "--out", str(tmp_path / str(int(clock)))]) == 0
        first, second = (tmp_path / d / "census.tsv.gz" for d in ("1000000000", "2000000000"))
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes()[4:8] == bytes(4)  # header mtime field
        assert hashlib.sha256(gzip.decompress(first.read_bytes())).hexdigest()[:16] == (
            "26a372e554fa0754"
        )


class TestWriterRoundTrip:
    ODD = ["a,b", 'q"uote', "new\nline", "cr\rlf", "crlf\r\n", "\r", '"', " sp ", "", "plain"]

    def read(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    def test_labeled_csv_reads_back(self, tmp_path):
        labels = [i % 2 for i in range(len(self.ODD))]
        write_labeled_csv(tmp_path / "l.csv", self.ODD, labels)
        assert self.read(tmp_path / "l.csv")[1:] == [
            [f"www.{d}.com", d, "dga" if y else "legit"] for d, y in zip(self.ODD, labels)
        ]

    def test_truth_csv_reads_back(self, tmp_path):
        truth = np.arange(len(self.ODD)) % 2
        write_truth_csv(tmp_path / "t.csv", self.ODD, truth)
        assert self.read(tmp_path / "t.csv")[1:] == [
            [h, str(y)] for h, y in zip(self.ODD, truth.tolist())
        ]


class TestWordlist:
    def test_loaded_words_are_clean(self):
        words = load_wordlist()
        assert len(words) == len(set(words))
        allowed = set(string.ascii_lowercase + string.digits)
        for w in words:
            assert w and set(w) <= allowed

    def test_vocabulary_mixes_plain_words_and_digit_tokens(self):
        # legit-like corpora need digit-bearing names too, so the vocabulary
        # carries numeric brandable tokens alongside plain words
        words = load_wordlist()
        with_digits = [w for w in words if any(c.isdigit() for c in w)]
        assert with_digits
        assert len(with_digits) < len(words) / 2
