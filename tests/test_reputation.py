import gzip
import io
import os
import re
import subprocess
import sys

import pytest

import domainsift
from domainsift.corpus import DomainTable, ParseError
from domainsift.reputation import read_badlist, sample, write_reputation_csv


def _rows(badlist, domains):
    buf = io.StringIO()
    write_reputation_csv(buf, domains, [d in badlist for d in domains])
    return [line.split(",") for line in buf.getvalue().splitlines()[1:]]


class TestClassifyScore:
    def test_absent_score_is_unknown_not_benign(self):
        [(domain, score, verdict, _)] = _rows(frozenset(), ["good.com"])
        assert (domain, score, verdict) == ("good.com", "", "unknown")


class TestLocalListProvider:
    def test_listed_scores_zero(self):
        rows = _rows(frozenset({"evil.com"}), ["evil.com", "good.com"])
        assert [score for _, score, _, _ in rows] == ["0", ""]

    def test_check_verdicts(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("evil.com\n")
        rows = _rows(read_badlist(p), ["evil.com", "good.com"])
        assert [(verdict, score) for _, score, verdict, _ in rows] == [
            ("suspicious", "0"), ("unknown", "")]


class TestReadBadlist:
    def test_from_file(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("# known bad\nevil.com\n\nworse.net  # seen 2020\n")
        assert read_badlist(p) == {"evil.com", "worse.net"}

    def test_names_are_lowercased_and_stripped(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("  Evil.COM \r\n")
        assert read_badlist(p) == {"evil.com"}

    def test_leading_bom_is_dropped(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"\xef\xbb\xbfevil.com\nworse.net\n")
        assert read_badlist(p) == {"evil.com", "worse.net"}

    def test_gzip_is_read(self, tmp_path):
        p = tmp_path / "bad.txt.gz"
        p.write_bytes(gzip.compress(b"evil.com\n"))
        assert read_badlist(p) == {"evil.com"}

    def test_non_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"evil.com\n\xff\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: not UTF-8 text: byte 0xff")):
            read_badlist(p)


class TestSampling:
    def test_deterministic(self):
        domains = [f"d{i}.com" for i in range(50)]
        a = sample(domains, 10, 7)
        assert a == sample(domains, 10, 7)
        assert len(set(a)) == 10

    def test_preserves_input_order(self):
        domains = [f"d{i:02d}.com" for i in range(30)]
        indexes = [domains.index(d) for d in sample(domains, 10, 3)]
        assert indexes == sorted(indexes)

    def test_accepts_records(self):
        table = DomainTable(["www.evil.com", "ok.com"], ["evil", "ok"])
        assert set(sample(table.domain_part, 2, 0)) == {"evil", "ok"}

    def test_oversample_rejected(self):
        with pytest.raises(ValueError):
            sample(["a.com"], 2, 0)


class TestCsv:
    def test_format(self):
        buf = io.StringIO()
        write_reputation_csv(buf, ["evil.com", "ok.com"], [True, False])
        assert buf.getvalue().splitlines() == [
            "domain,score,verdict,provider",
            "evil.com,0,suspicious,local-list",
            "ok.com,,unknown,local-list",
        ]


def test_cli_import_leaves_out_the_http_stack():
    # a fresh interpreter, so no module another test imported is counted
    src = os.path.dirname(os.path.dirname(domainsift.__file__))
    code = "import sys, domainsift.cli; print('urllib.request' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "False"
