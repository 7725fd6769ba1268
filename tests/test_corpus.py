import gzip
import io

import pytest

from domainsift.corpus import (
    CorpusSource,
    DomainError,
    DomainRecord,
    ParseError,
    dedupe,
    load_suffix_file,
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

    def test_extra_suffixes(self):
        got = normalize_domain("shop.example.internal.test", mode="sld",
                               extra_suffixes={"internal.test"})
        assert got == "example"

    def test_strips_single_www_only(self):
        assert normalize_domain("www.www.example.com", mode="full") == "www.example.com"


class TestParseLabeledCsv:
    CSV = "host,domain,class\nwww.google.com,google.com,legit\nup.mykings.pw,mykings.pw,DGA\n"

    def test_basic(self):
        records, stats = parse_labeled_csv(io.StringIO(self.CSV), mode="sld")
        assert [r.domain_part for r in records] == ["google", "mykings"]
        assert [r.label for r in records] == [0, 1]
        assert all(r.source is CorpusSource.LABELED for r in records)
        assert stats.total_rows == 2
        assert stats.label_counts == {0: 1, 1: 1}

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
        assert records[0].domain_part == "a.com"

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
        assert records == [] and stats.total_rows == 0


class TestParseCensusLines:
    LINES = "example.com\t93.184.216.34\nqrvmappzgdrz.net\t10.1.2.3\n"

    def test_basic(self):
        records, stats = parse_census_lines(io.StringIO(self.LINES))
        assert [r.domain_part for r in records] == ["example.com", "qrvmappzgdrz.net"]
        assert all(r.label is None for r in records)
        assert all(r.source is CorpusSource.CENSUS for r in records)
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

    def test_max_rows(self):
        records, _ = parse_census_lines(io.StringIO(self.LINES), max_rows=1)
        assert len(records) == 1
        records, _ = parse_census_lines(io.StringIO(self.LINES), max_rows=0)
        assert records == []

    def test_sld_mode(self):
        records, _ = parse_census_lines(io.StringIO("www.shop.example.co.uk\t1.2.3.4\n"),
                                        mode="sld")
        assert records[0].domain_part == "example"


class TestParseDomainLines:
    def test_skips_blank_and_comments(self):
        text = "# top sites\n\ngoogle.com\nexample.net\n"
        records, stats = parse_domain_lines(io.StringIO(text), mode="full")
        assert [r.domain_part for r in records] == ["google.com", "example.net"]
        assert stats.total_rows == 2


class TestDedupe:
    def test_keep_first_and_conflicts(self):
        records = [
            DomainRecord("a.com", "a", label=0),
            DomainRecord("a2.com", "a", label=1),
            DomainRecord("b.com", "b", label=1),
            DomainRecord("a3.com", "a", label=0),
        ]
        unique, conflicts = dedupe(records)
        assert [r.domain_part for r in unique] == ["a", "b"]
        assert unique[0].label == 0  # first occurrence wins
        assert len(conflicts) == 1
        assert conflicts[0][0] == "a"

    def test_no_labels_no_conflicts(self):
        records = [DomainRecord("a.com", "a"), DomainRecord("a.com", "a")]
        unique, conflicts = dedupe(records)
        assert len(unique) == 1 and conflicts == []


class TestSuffixAndIO:
    def test_suffix_file_comments(self, tmp_path):
        p = tmp_path / "suffixes.txt"
        p.write_text("# comment\nco.uk\n\nexample.test\n")
        suffixes = load_suffix_file(p)
        assert "co.uk" in suffixes and "example.test" in suffixes
        assert not any(s.startswith("#") for s in suffixes)

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
