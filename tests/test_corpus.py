import gzip
import io
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainsift.cli import main
from domainsift.corpus import (
    DomainError,
    DomainRecord,
    DomainTable,
    ParseError,
    dedupe,
    normalize_domain,
    open_corpus_text,
    parse_census_lines,
    parse_domain_lines,
    parse_labeled_csv,
    resolve_mode,
)


class TestNormalizeDomain:
    @pytest.mark.parametrize(
        "raw,mode,expected",
        [
            ("www.mydaily.co.uk", "sld", "mydaily"),
            ("EXAMPLE.COM.", "full", "example.com"),
            ("https://www.paypa1.com", "sld", "paypa1"),
            ("WWW.GOOGLE.COM", "full", "google.com"),
            ("http://example.com/path/page?q=1", "full", "example.com"),
            ("sub.domain.example.org", "sld", "example"),
            ("example.com.au", "sld", "example"),
            ("a.b.co.uk", "sld", "b"),
            ("localhost", "sld", "localhost"),
            ("localhost", "full", "localhost"),
            ("xn--bcher-kva.de", "sld", "xn--bcher-kva"),
            ("a_b.example.com", "full", "a_b.example.com"),
            ("bücher.de", "sld", "bücher"),
        ],
    )
    def test_examples(self, raw, mode, expected):
        assert normalize_domain(raw, mode=mode) == expected

    def test_mode_aliases(self):
        assert normalize_domain("a.b.com", mode="full_name") == "a.b.com"
        assert normalize_domain("a.b.com", mode="second_level_label") == "b"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            normalize_domain("a.com", mode="tld")

    @pytest.mark.parametrize("raw", ["", "   ", "...", "https://"])
    def test_degenerate(self, raw):
        with pytest.raises(DomainError, match="degenerate"):
            normalize_domain(raw, mode="sld")

    def test_whitespace_inside_is_malformed(self):
        with pytest.raises(DomainError, match="malformed"):
            normalize_domain("ex ample.com", mode="sld")

    @pytest.mark.parametrize(
        "raw", ["x,y.com", 'a"b.com', "a;b.com", "host:8080", "ab\x1c.com", "a b.com"]
    )
    def test_non_host_characters_are_malformed(self, raw):
        for mode in ("full", "sld"):
            with pytest.raises(DomainError, match="cannot be in a host name"):
                normalize_domain(raw, mode=mode)

    def test_strips_single_www_only(self):
        assert normalize_domain("www.www.example.com", mode="full") == "www.example.com"

    def test_name_longer_than_253_refused(self):
        name = "a" * 249 + ".com"
        assert normalize_domain(name, mode="full") == name
        # the limit applies after the scheme, path, "www." and trailing dot go
        assert normalize_domain(f"https://www.{name}./index.html", mode="full") == name
        assert normalize_domain("é" * 253, mode="sld") == "é" * 253
        for mode in ("full", "sld"):
            with pytest.raises(DomainError, match="254 characters long, more than the 253"):
                normalize_domain("b" + name, mode=mode)


class TestParseLabeledCsv:
    CSV = "host,domain,class\nwww.google.com,google.com,legit\nup.mykings.pw,mykings.pw,DGA\n"

    def test_basic(self):
        records, stats = parse_labeled_csv(io.StringIO(self.CSV), mode="sld")
        assert [r.domain_part for r in records] == ["google", "mykings"]
        assert [r.label for r in records] == [0, 1]
        assert records.raw_host == ["www.google.com", "up.mykings.pw"]
        assert stats.total_rows == 2
        assert records.label.dtype == np.int64 and records.label.tolist() == [0, 1]

    def test_class_case_insensitive(self):
        csv = "host,domain,class\na.com,a.com,LEGIT\nb.com,b.com,DgA\n"
        records, _ = parse_labeled_csv(io.StringIO(csv), mode="full")
        assert [r.label for r in records] == [0, 1]

    def test_unknown_class_skipped_and_counted(self):
        csv = "host,domain,class\na.com,a.com,legit\nb.com,b.com,weird\n"
        records, stats = parse_labeled_csv(io.StringIO(csv), mode="full")
        assert len(records) == 1
        assert stats.skipped_rows == 1
        assert stats.errors

    def test_missing_column_fatal(self):
        with pytest.raises(ParseError, match="class"):
            parse_labeled_csv(io.StringIO("host,domain\na.com,a.com\n"))

    def test_empty_stream_fatal(self):
        with pytest.raises(ParseError):
            parse_labeled_csv(io.StringIO(""))

    def test_header_case_insensitive(self):
        csv = "Host,Domain,Class\na.com,a.com,legit\n"
        records, _ = parse_labeled_csv(io.StringIO(csv), mode="full")
        assert records.domain_part == ["a.com"]

    def test_malformed_domain_rows_skipped(self):
        csv = "host,domain,class\n...,...,legit\nb.com,b.com,dga\n"
        records, stats = parse_labeled_csv(io.StringIO(csv), mode="full")
        assert [r.domain_part for r in records] == ["b.com"]
        assert stats.skipped_rows == 1

    def test_max_rows_counts_skipped_rows_and_stops_reading(self):
        rows = ["host,domain,class", "a.com,a.com,legit", "", "b.com,b.com,weird",
                "c.com,c.com,dga", "d.com,d.com,dga", "e.com,e.com,dga"]

        def stream():
            yield from (line + "\n" for line in rows)
            raise AssertionError("read to the end of the stream")

        records, stats = parse_labeled_csv(stream(), mode="full", max_rows=3)
        assert [r.domain_part for r in records] == ["a.com", "c.com"]
        assert (stats.total_rows, stats.skipped_rows) == (3, 1)
        records, stats = parse_labeled_csv(io.StringIO("\n".join(rows)), max_rows=0)
        assert len(records) == 0 and stats.total_rows == 0


class TestParseCensusLines:
    LINES = "example.com\t93.184.216.34\nqrvmappzgdrz.net\t10.1.2.3\n"

    def test_basic(self):
        records, stats = parse_census_lines(io.StringIO(self.LINES))
        assert [r.domain_part for r in records] == ["example.com", "qrvmappzgdrz.net"]
        assert all(r.label is None for r in records)
        assert records.raw_host == ["example.com", "qrvmappzgdrz.net"] and records.label is None
        assert stats.total_rows == 2

    def test_bad_ip_skipped(self):
        lines = "a.com\t999.1.1.1\nb.com\t1.2.3.4\nc.com\tnot-an-ip\n"
        records, stats = parse_census_lines(io.StringIO(lines))
        assert [r.domain_part for r in records] == ["b.com"]
        assert stats.skipped_rows == 2

    def test_non_host_characters_skipped(self):
        lines = "x,y.com\t1.2.3.4\nb.com\t1.2.3.4\na<b>.com\t1.2.3.4\n"
        records, stats = parse_census_lines(io.StringIO(lines))
        assert [r.domain_part for r in records] == ["b.com"]
        assert stats.skipped_rows == 2
        assert all("\n" not in e and "cannot be in a host name" in e for e in stats.errors)

    def test_address_digits_are_ascii(self):
        lines = ("a.com\t\u0661.2.3.4\n"  # ARABIC-INDIC DIGIT ONE
                 "b.com\t\uff11.2.3.4\n"  # FULLWIDTH DIGIT ONE
                 "c.com\t001.02.255.0\textra\n"
                 "d.com\t256.1.1.1\n")
        records, stats = parse_census_lines(io.StringIO(lines))
        assert records.domain_part == ["c.com"]
        assert stats.errors == [f"line {i}: not 'domain<TAB>ipv4'" for i in (1, 2, 4)]

    def test_long_name_skipped(self):
        lines = "x" * 300 + ".com\t1.2.3.4\nb.com\t1.2.3.4\n"
        records, stats = parse_census_lines(io.StringIO(lines))
        assert records.domain_part == ["b.com"]
        assert stats.errors == [
            "line 1: malformed domain: 304 characters long, more than the 253 "
            "a host name may have"
        ]

    def test_max_rows(self):
        records, _ = parse_census_lines(io.StringIO(self.LINES), max_rows=1)
        assert len(records) == 1
        records, _ = parse_census_lines(io.StringIO(self.LINES), max_rows=0)
        assert len(records) == 0

    def test_equal_host_and_name_share_one_string(self):
        lines = "example.com\t1.2.3.4\n  Mixed.Com \t1.2.3.4\n"
        table, _ = parse_census_lines(io.StringIO(lines), mode="full")
        assert table.raw_host[0] is table.domain_part[0]
        assert table.raw_host[1] == "Mixed.Com" and table.domain_part[1] == "mixed.com"

    def test_sld_mode(self):
        records, _ = parse_census_lines(io.StringIO("www.shop.example.co.uk\t1.2.3.4\n"),
                                        mode="sld")
        assert records.domain_part == ["example"]


class TestParseDomainLines:
    def test_skips_blank_and_comments(self):
        text = "# top sites\n\ngoogle.com\nexample.net\n"
        records, stats = parse_domain_lines(io.StringIO(text), mode="full")
        assert [r.domain_part for r in records] == ["google.com", "example.net"]
        assert stats.total_rows == 2

    def test_logs_skip_count(self, caplog, capsys, tmp_path):
        # the parser only counts; the CLI reports the count, once
        with caplog.at_level(logging.DEBUG, logger="domainsift"):
            records, stats = parse_domain_lines(io.StringIO("a.com\nx,y.com\n"), mode="full")
        assert records.raw_host == ["a.com"] and stats.skipped_rows == 1
        assert caplog.messages == []
        listing = tmp_path / "domains.txt"
        listing.write_text("a.com\nx,y.com\n")
        assert main(["extract", "--in", str(listing), "--out", str(tmp_path / "f.csv")]) == 0
        counts = [line for line in capsys.readouterr().err.splitlines()
                  if re.search(r"skipped \d|\d skipped", line)]
        assert counts == ["INFO domainsift: parsed 2 rows: 1 unique domains, 1 skipped, "
                          "0 label conflicts"]


class TestDomainTable:
    def test_iterates_records(self):
        table = DomainTable(["www.a.com", "b.com"], ["a", "b"], np.array([1, 0]))
        assert list(table) == [DomainRecord("www.a.com", "a", 1), DomainRecord("b.com", "b", 0)]
        assert all(type(r.label) is int for r in table)
        assert list(DomainTable(["a.com"], ["a"])) == [DomainRecord("a.com", "a")]
        assert len(table) == 2


class TestDedupe:
    def test_keep_first_and_conflicts(self):
        table = DomainTable(["a.com", "a2.com", "b.com", "a3.com", "b2.com"],
                            ["a", "a", "b", "a", "b"], np.array([0, 1, 1, 0, 0]))
        unique, conflicts = dedupe(table)
        assert [r.domain_part for r in unique] == ["a", "b"]
        assert unique.raw_host == ["a.com", "b.com"]
        assert unique.label.tolist() == [0, 1]  # first occurrence wins
        assert conflicts == [("a", 0, 1), ("b", 1, 0)]

    def test_no_labels_no_conflicts(self):
        unique, conflicts = dedupe(DomainTable(["a.com", "a.com"], ["a", "a"]))
        assert len(unique) == 1 and conflicts == []


class TestSuffixAndIO:
    def test_open_corpus_text_gzip(self, tmp_path):
        plain = tmp_path / "a.txt"
        plain.write_text("hello\n")
        zipped = tmp_path / "b.txt.gz"
        with gzip.open(zipped, "wt") as fh:
            fh.write("hello\n")
        with open_corpus_text(plain) as fh:
            assert fh.read() == "hello\n"
        with open_corpus_text(zipped) as fh:
            assert fh.read() == "hello\n"

    def test_resolve_mode(self):
        assert resolve_mode("sld") == resolve_mode("second_level_label")
        assert resolve_mode("full") == resolve_mode("full_name")
        with pytest.raises(ValueError):
            resolve_mode("nope")

    @pytest.mark.parametrize("mode", [["sld"], None, 1, {"sld": 1}],
                             ids=["list", "none", "int", "dict"])
    def test_resolve_mode_non_string(self, mode):
        with pytest.raises(ValueError, match="unknown normalization mode"):
            resolve_mode(mode)


_OLD_IPV4_RE = re.compile(r"^\d{1,3}(?:\.\d{1,3}){3}$")


def census_oracle(stream, max_rows=None, mode="full_name"):
    """The census parser before it matched one pattern per line: a TAB split,
    a digit regex and int() per octet. Adds the one new rule for the address,
    ASCII digits only; the name rules live in normalize_domain, shared by both.
    Returns (raw_host, domain_part, total_rows, skip messages)."""
    hosts, parts, total, errors = [], [], 0, []
    for line in stream:
        if max_rows is not None and total >= max_rows:
            break
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        total += 1
        fields = line.split("\t")
        ip = fields[1].strip() if len(fields) >= 2 else ""
        if (
            not _OLD_IPV4_RE.match(ip)
            or not all(int(octet) <= 255 for octet in ip.split("."))
            or not ip.isascii()
        ):
            errors.append(f"line {total}: not 'domain<TAB>ipv4'")
            continue
        try:
            part = normalize_domain(fields[0], mode=mode)
        except DomainError as exc:
            errors.append(f"line {total}: {exc}")
            continue
        hosts.append(fields[0].strip())
        parts.append(part)
    return hosts, parts, total, errors


_in_range = st.builds(str.zfill, st.builds(str, st.integers(0, 255)), st.integers(1, 3))
_octet = st.one_of(
    _in_range,
    _in_range,
    _in_range,
    _in_range,
    st.builds(str.zfill, st.builds(str, st.integers(0, 999)), st.integers(1, 4)),
    st.sampled_from(["", "x", "\u0661", "\uff11", "-1", "1 2", "0001"]),
)
_host = st.one_of(
    st.sampled_from(["example.com", "www.shop.example.co.uk", " a-b.c_d ", "X.Org"]),
    st.text(st.sampled_from("ab.-_ \r\t\x00\x0b\u00e9,X"), max_size=8),
    st.sampled_from(["a" * 250 + ".com", "a" * 249 + ".com", "www." + "b" * 250]),
)
_noisy_line = st.builds(
    lambda host, sep, pad1, octets, pad2, tail, end: (
        host + sep + pad1 + ".".join(octets) + pad2 + tail + end
    ),
    host=_host,
    sep=st.sampled_from(["\t", "\t", " \t", "\t ", "", "\t\t", ","]),
    pad1=st.sampled_from(["", "", " ", "\r", "\u3000"]),
    octets=st.lists(_octet, min_size=4, max_size=4) | st.lists(_octet, min_size=3, max_size=5),
    pad2=st.sampled_from(["", "", " ", "\r", "\x0b", "\u2003"]),
    tail=st.sampled_from(["", "", "\tfoo", "\t", "\t1.2.3.4", " x", "\r"]),
    end=st.sampled_from(["\n", "\n", "\r\n", "\r", ""]),
)
# a line that holds an address: mostly kept, unless the name is refused
_address_line = st.builds(
    lambda host, octets, tail, end: host + "\t" + ".".join(octets) + tail + end,
    host=_host,
    octets=st.lists(_in_range, min_size=4, max_size=4),
    tail=st.sampled_from(["", "\tfoo", "\t", " ", "\r"]),
    end=st.sampled_from(["\n", "\r\n"]),
)
_blank_line = st.sampled_from(["\n", "  \n", "\r\n", "\t\n", " \t \r\n", "\u3000\n"])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    lines=st.lists(st.one_of(_address_line, _address_line, _noisy_line, _blank_line),
                   max_size=30),
    max_rows=st.none() | st.integers(0, 30),
    mode=st.sampled_from(["full", "sld"]),
)
def test_census_parser_matches_oracle(lines, max_rows, mode):
    text = "".join(lines)
    table, stats = parse_census_lines(io.StringIO(text), max_rows=max_rows, mode=mode)
    hosts, parts, total, errors = census_oracle(io.StringIO(text), max_rows, resolve_mode(mode))
    assert table.raw_host == hosts
    assert table.domain_part == parts
    assert table.label is None
    assert (stats.total_rows, stats.skipped_rows, stats.errors) == (total, len(errors), errors)
