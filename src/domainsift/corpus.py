"""Corpus ingestion: parse, normalize, and deduplicate domain name corpora.

Two corpus shapes are supported: a labeled CSV with host/domain/class columns
(class is "legit" or "dga") and an unlabeled census export with one
"domain<TAB>ipv4" record per line. Parsing is single-pass streaming; malformed
rows are skipped and counted rather than aborting million-row files.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

log = logging.getLogger(__name__)

NORMALIZE_MODES = ("full_name", "second_level_label")

# CLI-friendly aliases accepted anywhere a mode is taken.
_MODE_ALIASES = {
    "full": "full_name",
    "full_name": "full_name",
    "sld": "second_level_label",
    "second_level_label": "second_level_label",
}

_SCHEMES = ("http://", "https://")
_IPV4_RE = re.compile(r"^\d{1,3}(?:\.\d{1,3}){3}$")
# Unicode whitespace (the set str.isspace accepts), and every ASCII character
# other than a letter, digit, "-", "_" or "."; other non-ASCII characters pass
# as literal IDN
_BAD_HOST_CHAR_RE = re.compile(r"\s|[^\w.\-\x80-\U0010ffff]")


def _is_ipv4(text):
    if not _IPV4_RE.match(text):
        return False
    return all(int(octet) <= 255 for octet in text.split("."))

# class column spellings accepted by the labeled-CSV parser (case-insensitive)
CLASS_LABELS = {"dga": 1, "legit": 0}


class ParseError(ValueError):
    """Fatal corpus-level parse failure (bad header, unreadable stream)."""


class DomainError(ValueError):
    """A single domain string could not be normalized."""


class CorpusSource(str, Enum):
    LABELED = "labeled_corpus"
    CENSUS = "census_corpus"
    ADHOC = "adhoc"


@dataclass(frozen=True, slots=True)
class DomainRecord:
    """One normalized domain with optional ground-truth class.

    ``domain_part`` is the normalized substring features are computed from:
    non-empty, lowercase, no scheme, no leading "www." label, no trailing
    dot, and no whitespace or ASCII character other than a letter, digit,
    "-", "_" or ".". ``label`` is 1 for DGA, 0 for legitimate, None when
    unknown.
    """

    raw_host: str
    domain_part: str
    label: int | None = None
    source: CorpusSource = CorpusSource.ADHOC


@dataclass(slots=True)
class CorpusStats:
    total_rows: int = 0
    unique_domains: int = 0
    label_counts: dict = field(default_factory=dict)
    skipped_rows: int = 0
    errors: list = field(default_factory=list)

    _MAX_ERROR_SAMPLES = 50

    def record_error(self, message):
        self.skipped_rows += 1
        if len(self.errors) < self._MAX_ERROR_SAMPLES:
            self.errors.append(message)


def resolve_mode(mode):
    try:
        return _MODE_ALIASES[mode]
    except (KeyError, TypeError):  # TypeError: an unhashable mode, such as a list
        raise ValueError(
            f"unknown normalization mode {mode!r}; expected one of "
            f"{sorted(set(_MODE_ALIASES))}"
        ) from None


_BUILTIN_SUFFIXES = None


def builtin_suffixes():
    """The bundled multi-part public-suffix list (e.g. "co.uk")."""
    global _BUILTIN_SUFFIXES
    if _BUILTIN_SUFFIXES is None:
        text = (
            resources.files("domainsift.data")
            .joinpath("multipart_suffixes.txt")
            .read_text(encoding="utf-8")
        )
        _BUILTIN_SUFFIXES = _parse_suffix_lines(text.splitlines())
    return _BUILTIN_SUFFIXES


def _parse_suffix_lines(lines):
    suffixes = set()
    for line in lines:
        entry = line.split("#", 1)[0].strip().lower()
        if entry:
            suffixes.add(entry.strip("."))
    return frozenset(suffixes)


def load_suffix_file(path):
    """Read a user suffix file (one suffix per line, "#" comments)."""
    with open(path, encoding="utf-8") as fh:
        return _parse_suffix_lines(fh)


def normalize_domain(raw, mode="second_level_label", extra_suffixes=None):
    """Normalize a raw host string to the substring used for features.

    Lowercases, strips a URL scheme, a leading "www." label and a trailing
    dot. ``full_name`` keeps every remaining label; ``second_level_label``
    returns the label immediately left of the public suffix, with multi-part
    suffixes (e.g. "co.uk") matched against the built-in list plus
    ``extra_suffixes``. Names are treated as literal strings; no punycode
    decoding is attempted.
    """
    mode = resolve_mode(mode)
    s = raw.strip().lower()
    if not s:
        raise DomainError("degenerate domain: empty after normalization")
    for scheme in _SCHEMES:
        if s.startswith(scheme):
            s = s[len(scheme):]
            break
    s = s.split("/", 1)[0]
    if s.startswith("www."):
        s = s[4:]
    s = s.rstrip(".")
    if not s:
        raise DomainError(f"degenerate domain: {raw!r} empty after normalization")
    bad = _BAD_HOST_CHAR_RE.search(s)
    if bad:
        raise DomainError(
            f"malformed domain: {raw!r} contains {bad.group()!r}, "
            "which cannot be in a host name"
        )

    if mode == "full_name":
        return s

    labels = s.split(".")
    if "" in labels:
        raise DomainError(f"malformed domain: {raw!r} has an empty label")
    if len(labels) == 1:
        return labels[0]
    suffixes = builtin_suffixes()
    if extra_suffixes:
        suffixes = suffixes | frozenset(x.strip(".").lower() for x in extra_suffixes)
    # longest multi-part suffix wins, provided a label remains to its left
    for depth in range(min(len(labels) - 1, 3), 1, -1):
        candidate = ".".join(labels[-depth:])
        if candidate in suffixes:
            return labels[-depth - 1]
    return labels[-2]


def _make_record(raw_host, domain_value, label, source, mode, extra_suffixes):
    domain_part = normalize_domain(domain_value, mode=mode, extra_suffixes=extra_suffixes)
    return DomainRecord(raw_host=raw_host, domain_part=domain_part, label=label, source=source)


def _finalize_stats(stats, records):
    seen = {}
    for rec in records:
        if rec.domain_part not in seen:
            seen[rec.domain_part] = rec.label
    stats.unique_domains = len(seen)
    counts = Counter(label for label in seen.values() if label is not None)
    stats.label_counts = {cls: counts[cls] for cls in sorted(counts)}
    return stats


def parse_labeled_csv(stream, schema=None, mode="second_level_label", extra_suffixes=None,
                      max_rows=None):
    """Parse a labeled corpus CSV into records plus corpus statistics.

    The stream must carry a header row naming the host, domain and class
    columns (remappable through ``schema``). Class strings are matched
    case-insensitively against "dga" (1) and "legit" (0); rows with an
    unknown class or an unnormalizable domain are skipped and counted.
    A missing required column is fatal. At most ``max_rows`` data rows are
    consumed, skipped ones included (None reads everything).
    """
    mode = resolve_mode(mode)
    schema = {"host": "host", "domain": "domain", "class": "class", **(schema or {})}
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("labeled CSV is empty: no header row") from None
    index = {name.strip().lower(): i for i, name in enumerate(header)}
    columns = {}
    for key, column_name in schema.items():
        if column_name.lower() not in index:
            raise ParseError(
                f"labeled CSV is missing required column {column_name!r} "
                f"(header: {header!r})"
            )
        columns[key] = index[column_name.lower()]

    records = []
    stats = CorpusStats()
    for row_no, row in enumerate(reader, start=2):
        if max_rows is not None and stats.total_rows >= max_rows:
            break
        if not row or all(not cell.strip() for cell in row):
            continue
        stats.total_rows += 1
        try:
            host = row[columns["host"]].strip()
            domain = row[columns["domain"]].strip()
            cls = row[columns["class"]].strip().lower()
        except IndexError:
            stats.record_error(f"row {row_no}: expected {len(header)} columns, got {len(row)}")
            continue
        if cls not in CLASS_LABELS:
            stats.record_error(f"row {row_no}: unknown class {cls!r}")
            continue
        try:
            record = _make_record(
                raw_host=host,
                domain_value=domain or host,
                label=CLASS_LABELS[cls],
                source=CorpusSource.LABELED,
                mode=mode,
                extra_suffixes=extra_suffixes,
            )
        except DomainError as exc:
            stats.record_error(f"row {row_no}: {exc}")
            continue
        records.append(record)
    if stats.skipped_rows:
        log.warning("labeled corpus: skipped %d of %d rows", stats.skipped_rows, stats.total_rows)
    return records, _finalize_stats(stats, records)


def parse_census_lines(stream, max_rows=None, mode="full_name", extra_suffixes=None):
    """Parse census-export lines ("domain<TAB>ipv4") into unlabeled records.

    At most ``max_rows`` data lines are consumed (None reads everything).
    Malformed lines are skipped and counted.
    """
    mode = resolve_mode(mode)
    records = []
    stats = CorpusStats()
    for line in stream:
        if max_rows is not None and stats.total_rows >= max_rows:
            break
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        stats.total_rows += 1
        parts = line.split("\t")
        if len(parts) < 2 or not _is_ipv4(parts[1].strip()):
            stats.record_error(f"line {stats.total_rows}: not 'domain<TAB>ipv4'")
            continue
        try:
            record = _make_record(
                raw_host=parts[0].strip(),
                domain_value=parts[0],
                label=None,
                source=CorpusSource.CENSUS,
                mode=mode,
                extra_suffixes=extra_suffixes,
            )
        except DomainError as exc:
            stats.record_error(f"line {stats.total_rows}: {exc}")
            continue
        records.append(record)
    if stats.skipped_rows:
        log.warning("census corpus: skipped %d of %d lines", stats.skipped_rows, stats.total_rows)
    return records, _finalize_stats(stats, records)


def parse_domain_lines(stream, mode="second_level_label", max_rows=None, extra_suffixes=None):
    """Parse a bare list of domains (one per line) into unlabeled records."""
    mode = resolve_mode(mode)
    records = []
    stats = CorpusStats()
    for line in stream:
        if max_rows is not None and stats.total_rows >= max_rows:
            break
        raw = line.strip()
        if not raw or raw.startswith("#"):
            continue
        stats.total_rows += 1
        try:
            record = _make_record(
                raw_host=raw,
                domain_value=raw,
                label=None,
                source=CorpusSource.ADHOC,
                mode=mode,
                extra_suffixes=extra_suffixes,
            )
        except DomainError as exc:
            stats.record_error(f"line {stats.total_rows}: {exc}")
            continue
        records.append(record)
    return records, _finalize_stats(stats, records)


def dedupe(records):
    """Keep the first occurrence of each domain_part, preserving input order.

    Returns ``(unique_records, conflicts)`` where conflicts lists
    ``(domain_part, kept_label, dropped_label)`` for duplicates whose labels
    disagree. The first label always wins.
    """
    seen = {}
    unique = []
    conflicts = []
    for rec in records:
        kept = seen.get(rec.domain_part)
        if kept is None:
            seen[rec.domain_part] = rec
            unique.append(rec)
        elif (
            kept.label is not None
            and rec.label is not None
            and kept.label != rec.label
        ):
            conflicts.append((rec.domain_part, kept.label, rec.label))
    if conflicts:
        log.warning(
            "dedupe: %d label conflicts (first occurrence kept), e.g. %r",
            len(conflicts),
            conflicts[0],
        )
    return unique, conflicts


def open_corpus_text(path):
    """Open a corpus file as text, transparently handling gzip."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, encoding="utf-8")
