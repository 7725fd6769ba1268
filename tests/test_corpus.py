import gzip
import io
import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainsift import corpus
from domainsift.cli import main
from domainsift.corpus import (
    DomainError,
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

    def test_long_mode_names_refused(self):
        for mode in ("full_name", "second_level_label"):
            with pytest.raises(ValueError, match="unknown normalization mode"):
                normalize_domain("a.b.com", mode=mode)
            for parse in (parse_labeled_csv, parse_census_lines, parse_domain_lines):
                with pytest.raises(ValueError, match="unknown normalization mode"):
                    parse(io.StringIO(""), mode=mode)

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
        assert records.domain_part == ["google", "mykings"]
        assert records.raw_host == ["www.google.com", "up.mykings.pw"]
        assert stats.total_rows == 2
        assert records.label.dtype == np.int64 and records.label.tolist() == [0, 1]

    def test_class_case_insensitive(self):
        csv = "host,domain,class\na.com,a.com,LEGIT\nb.com,b.com,DgA\n"
        records, _ = parse_labeled_csv(io.StringIO(csv), mode="full")
        assert records.label.tolist() == [0, 1]

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

    def test_unreadable_row_is_a_parse_error(self):
        # a stray quote swallows the rest into one field past the csv field limit
        text = "host,domain,class\na.com,a,legit\n" + '"' + "b.com,b,dga\n" * 12_000
        with pytest.raises(ParseError, match=r"^labeled CSV row 3: field larger than field limit"):
            parse_labeled_csv(io.StringIO(text))

    def test_header_case_insensitive(self):
        csv = "Host,Domain,Class\na.com,a.com,legit\n"
        records, _ = parse_labeled_csv(io.StringIO(csv), mode="full")
        assert records.domain_part == ["a.com"]

    def test_malformed_domain_rows_skipped(self):
        csv = "host,domain,class\n...,...,legit\nb.com,b.com,dga\n"
        records, stats = parse_labeled_csv(io.StringIO(csv), mode="full")
        assert records.domain_part == ["b.com"]
        assert stats.skipped_rows == 1

    def test_blank_lines_before_header(self):
        records, stats = parse_labeled_csv(io.StringIO("\n  \n" + self.CSV), mode="sld")
        assert records.domain_part == ["google", "mykings"] and stats.total_rows == 2

    def test_host_with_line_break_skipped(self):
        csv = 'host,domain,class\n"a\rb.com",example.com,legit\n"c\nd.com",cd.com,dga\nb.com,,dga\n'
        records, stats = parse_labeled_csv(io.StringIO(csv, newline=""), mode="full")
        assert records.raw_host == ["b.com"]
        assert stats.errors == ["row 2: host 'a\\rb.com' holds a line break",
                                "row 3: host 'c\\nd.com' holds a line break"]

    def test_max_rows_counts_skipped_rows_and_stops_reading(self):
        rows = ["host,domain,class", "a.com,a.com,legit", "", "b.com,b.com,weird",
                "c.com,c.com,dga", "d.com,d.com,dga", "e.com,e.com,dga"]

        def stream():
            yield from (line + "\n" for line in rows)
            raise AssertionError("read to the end of the stream")

        records, stats = parse_labeled_csv(stream(), mode="full", max_rows=3)
        assert records.domain_part == ["a.com", "c.com"]
        assert (stats.total_rows, stats.skipped_rows) == (3, 1)
        records, stats = parse_labeled_csv(io.StringIO("\n".join(rows)), max_rows=0)
        assert len(records) == 0 and stats.total_rows == 0


class TestParseCensusLines:
    LINES = "example.com\t93.184.216.34\nqrvmappzgdrz.net\t10.1.2.3\n"

    def test_basic(self):
        records, stats = parse_census_lines(io.StringIO(self.LINES))
        assert records.domain_part == ["example.com", "qrvmappzgdrz.net"]
        assert records.raw_host == ["example.com", "qrvmappzgdrz.net"] and records.label is None
        assert stats.total_rows == 2

    def test_bad_ip_skipped(self):
        lines = "a.com\t999.1.1.1\nb.com\t1.2.3.4\nc.com\tnot-an-ip\n"
        records, stats = parse_census_lines(io.StringIO(lines))
        assert records.domain_part == ["b.com"]
        assert stats.skipped_rows == 2

    def test_non_host_characters_skipped(self):
        lines = "x,y.com\t1.2.3.4\nb.com\t1.2.3.4\na<b>.com\t1.2.3.4\n"
        records, stats = parse_census_lines(io.StringIO(lines))
        assert records.domain_part == ["b.com"]
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

    def test_max_rows_truncates_inside_a_clean_block(self, monkeypatch):
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", 64)
        stream = io.StringIO("".join(f"h{i}.com\t1.2.3.4\n" for i in range(1000)))
        table, stats = parse_census_lines(stream, max_rows=3)
        assert table.domain_part == ["h0.com", "h1.com", "h2.com"]
        assert (stats.total_rows, stats.skipped_rows) == (3, 0)
        assert stream.tell() <= 64  # the first block held the cap, so no second was read

    @pytest.mark.parametrize("mode", ["full", "sld"])
    def test_gzip_census_parses_like_plain(self, tmp_path, monkeypatch, mode):
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", 7)
        text = ("\ufeffexample.com\t1.2.3.4\n"
                + "shop.example.co.uk\t10.0.0.1\tx\r\n" * 3
                + "Mixed.Com\t1.2.3.4\n\nbad line\nwww.a.b.com\t 8.8.8.8 \n" * 2
                + "last.org\t9.9.9.9")
        plain = tmp_path / "census.tsv"
        plain.write_bytes(text.encode())
        zipped = tmp_path / "census.tsv.gz"
        zipped.write_bytes(gzip.compress(text.encode()))
        with open_corpus_text(plain) as fh:
            table, stats = parse_census_lines(fh, mode=mode)
        with open_corpus_text(zipped) as fh:
            zipped_table, zipped_stats = parse_census_lines(fh, mode=mode)
        assert zipped_table.raw_host == table.raw_host
        assert zipped_table.domain_part == table.domain_part
        assert zipped_stats == stats
        assert table.raw_host[:2] == ["example.com", "shop.example.co.uk"]  # no BOM
        assert (stats.total_rows, stats.skipped_rows) == (11, 2)


class TestParseDomainLines:
    def test_skips_blank_and_comments(self):
        text = "# top sites\n\ngoogle.com\nexample.net\n"
        records, stats = parse_domain_lines(io.StringIO(text), mode="full")
        assert records.domain_part == ["google.com", "example.net"]
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
    def test_len_is_row_count(self):
        assert len(DomainTable(["www.a.com", "b.com"], ["a", "b"], np.array([1, 0]))) == 2
        assert len(DomainTable(["a.com"], ["a"])) == 1
        assert len(DomainTable([], [])) == 0


class TestDedupe:
    def test_keep_first_and_conflicts(self):
        table = DomainTable(["a.com", "a2.com", "b.com", "a3.com", "b2.com"],
                            ["a", "a", "b", "a", "b"], np.array([0, 1, 1, 0, 0]))
        unique, conflicts = dedupe(table)
        assert unique.domain_part == ["a", "b"]
        assert unique.raw_host == ["a.com", "b.com"]
        assert unique.label.tolist() == [0, 1]  # first occurrence wins
        assert conflicts == [("a", 0, 1), ("b", 1, 0)]

    def test_no_labels_no_conflicts(self):
        unique, conflicts = dedupe(DomainTable(["a.com", "a.com"], ["a", "a"]))
        assert len(unique) == 1 and conflicts == []

    def test_no_duplicates_gives_back_the_same_table(self):
        table = DomainTable(["a.com", "b.com", "c.com"], ["a", "b", "c"], np.array([0, 1, 0]))
        unique, conflicts = dedupe(table)
        assert unique is table and conflicts == []
        empty = DomainTable([], [])
        assert dedupe(empty)[0] is empty

    @pytest.mark.parametrize("parts", [["a", "b", "a", "c", "b", "a"], ["a", "b", "c"]])
    def test_equal_hashes_of_distinct_names(self, parts):
        """Names whose hashes collide take the dict path, which tells them apart by value."""

        class Colliding(str):
            def __hash__(self):
                return 7

        hosts = [f"{part}{i}.com" for i, part in enumerate(parts)]
        labels = np.arange(len(parts)) % 2
        want, want_conflicts = dedupe(DomainTable(hosts, parts, labels))
        got, conflicts = dedupe(DomainTable(hosts, [Colliding(p) for p in parts], labels))
        assert got.domain_part == want.domain_part == sorted(set(parts), key=parts.index)
        assert got.raw_host == want.raw_host  # the first row of each name wins
        assert got.label.tolist() == want.label.tolist()
        assert conflicts == want_conflicts


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

    def test_open_corpus_text_drops_bom(self, tmp_path):
        data = "\ufeffhost,class\n\ufeffa.com,legit\n".encode()
        plain = tmp_path / "a.csv"
        plain.write_bytes(data)
        zipped = tmp_path / "a.csv.gz"
        zipped.write_bytes(gzip.compress(data))
        for path in (plain, zipped):
            with open_corpus_text(path) as fh:
                assert fh.read() == "host,class\n\ufeffa.com,legit\n"  # only a leading one

    def test_resolve_mode(self):
        assert resolve_mode("sld") == "sld"
        assert resolve_mode("full") == "full"
        for mode in ("nope", "full_name", "second_level_label"):
            with pytest.raises(ValueError):
                resolve_mode(mode)

    @pytest.mark.parametrize("mode", [["sld"], None, 1, {"sld": 1}],
                             ids=["list", "none", "int", "dict"])
    def test_resolve_mode_non_string(self, mode):
        with pytest.raises(ValueError, match="unknown normalization mode"):
            resolve_mode(mode)


_OLD_IPV4_RE = re.compile(r"^\d{1,3}(?:\.\d{1,3}){3}$")


def census_oracle(stream, max_rows=None, mode="full"):
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
# lines at the edge of the clean-line pattern: names it must refuse only just,
# line separators other than "\n", and a 253- and a 254-character name
_clean_looking_host = st.sampled_from([
    "example.com", "a-b_c.d-e", "x", "7", "www", "wwwx.com", "www.example.com",
    "shop.example.co.uk", "a.b.c.d.com.au", "Example.com", "EXAMPLE.COM", "a..b", "a.b.",
    ".a.b", "-a.b", "c." * 126 + "c", "c." * 126 + "cc", "b" * 253, "b" * 254,
    "a\x00b.com", "a\x85b.com", "a\u2028b.com", "a\x0cb.com", "a\x1cb.com", "\u0131.com",
])
_clean_looking_line = st.builds(
    lambda host, pad1, octets, pad2, tail: host + "\t" + pad1 + ".".join(octets) + pad2 + tail,
    host=_clean_looking_host,
    pad1=st.sampled_from(["", "", " ", "  "]),
    octets=st.lists(_in_range, min_size=4, max_size=4),
    pad2=st.sampled_from(["", "", " "]),
    tail=st.sampled_from(["", "", "\tfoo", "\t", "\t\x85x", "\t\u2028", "\t\x00",
                          "\x85", "\u2028", "\x0c", "\x1c", "\x00"]),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    lines=st.lists(
        st.one_of(_address_line, _address_line, _noisy_line, _blank_line,
                  _clean_looking_line.map(lambda line: line + "\n"),
                  _clean_looking_line.map(lambda line: line + "\n")),
        max_size=30,
    ),
    last=st.sampled_from([""]) | _clean_looking_line,  # a last line without a newline
    max_rows=st.none() | st.integers(0, 30),
    mode=st.sampled_from(["full", "sld"]),
    block=st.integers(1, 64),
)
def test_census_parser_matches_oracle(lines, last, max_rows, mode, block):
    text = "".join(lines) + last
    with mock.patch.object(corpus, "_BLOCK_CHARS", block):  # blocks that split lines
        table, stats = parse_census_lines(io.StringIO(text), max_rows=max_rows, mode=mode)
    hosts, parts, total, errors = census_oracle(io.StringIO(text), max_rows, mode)
    assert table.raw_host == hosts
    assert table.domain_part == parts
    assert table.label is None
    assert (stats.total_rows, stats.skipped_rows, stats.errors) == (total, len(errors), errors)
