import io
import os
import subprocess
import sys

import pytest

import domainsift
from domainsift.corpus import DomainTable
from domainsift.reputation import (
    SUSPICION_THRESHOLD,
    VERDICT_BENIGN,
    VERDICT_SUSPICIOUS,
    VERDICT_UNKNOWN,
    LocalListProvider,
    check,
    classify_score,
    sample_and_check,
    write_reputation_csv,
)


class TestClassifyScore:
    def test_boundary(self):
        assert SUSPICION_THRESHOLD == 50
        assert classify_score(49) == VERDICT_SUSPICIOUS
        assert classify_score(50) == VERDICT_BENIGN

    def test_extremes(self):
        assert classify_score(0) == VERDICT_SUSPICIOUS
        assert classify_score(100) == VERDICT_BENIGN

    def test_absent_score_is_unknown_not_benign(self):
        assert classify_score(None) == VERDICT_UNKNOWN


class TestLocalListProvider:
    def test_listed_scores_zero(self):
        provider = LocalListProvider({"evil.com"})
        assert provider.lookup("evil.com") == 0
        assert provider.lookup("good.com") is None

    def test_from_file(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("# known bad\nevil.com\n\nworse.net\n")
        provider = LocalListProvider.from_file(p)
        assert provider.lookup("evil.com") == 0
        assert provider.lookup("worse.net") == 0
        assert provider.lookup("# known bad") is None

    def test_check_verdicts(self):
        provider = LocalListProvider({"evil.com"})
        listed = check("evil.com", provider)
        assert listed.verdict == VERDICT_SUSPICIOUS and listed.score == 0
        absent = check("good.com", provider)
        assert absent.verdict == VERDICT_UNKNOWN and absent.score is None


class TestSampling:
    def test_deterministic(self):
        provider = LocalListProvider(set())
        domains = [f"d{i}.com" for i in range(50)]
        a = [r.domain for r in sample_and_check(domains, 10, 7, provider)]
        b = [r.domain for r in sample_and_check(domains, 10, 7, provider)]
        assert a == b
        assert len(set(a)) == 10

    def test_preserves_input_order(self):
        provider = LocalListProvider(set())
        domains = [f"d{i:02d}.com" for i in range(30)]
        got = [r.domain for r in sample_and_check(domains, 10, 3, provider)]
        indexes = [domains.index(d) for d in got]
        assert indexes == sorted(indexes)

    def test_accepts_records(self):
        provider = LocalListProvider({"evil"})
        table = DomainTable(["www.evil.com", "ok.com"], ["evil", "ok"])
        results = sample_and_check(table.domain_part, 2, 0, provider)
        assert {r.domain for r in results} == {"evil", "ok"}

    def test_oversample_rejected(self):
        with pytest.raises(ValueError):
            sample_and_check(["a.com"], 2, 0, LocalListProvider(set()))


class TestCsv:
    def test_format(self):
        provider = LocalListProvider({"evil.com"})
        results = [check("evil.com", provider), check("ok.com", provider)]
        buf = io.StringIO()
        write_reputation_csv(buf, results)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "domain,score,verdict,provider"
        assert lines[1] == "evil.com,0,suspicious,local-list"
        assert lines[2].startswith("ok.com,,unknown")


def test_cli_import_leaves_out_the_http_stack():
    # a fresh interpreter, so no module another test imported is counted
    src = os.path.dirname(os.path.dirname(domainsift.__file__))
    code = "import sys, domainsift.cli; print('urllib.request' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "False"
