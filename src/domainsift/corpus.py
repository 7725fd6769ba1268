"""Corpus ingestion: parse, normalize, and deduplicate domain name corpora.

Three corpus shapes are supported: a labeled CSV whose header names the
host, domain and class columns (class is "legit" or "dga"), an unlabeled
census export with one "domain<TAB>ipv4" record per line, and a bare list of
domains, one per line. Second-level labels are found against the bundled
multi-part suffix list. Parsing is single-pass streaming; malformed rows are
skipped and counted rather than aborting million-row files. Parsers return a
:class:`DomainTable`, the kept rows as columns.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

log = logging.getLogger(__name__)

# CLI-friendly aliases accepted anywhere a mode is taken.
_MODE_ALIASES = {
    "full": "full_name",
    "full_name": "full_name",
    "sld": "second_level_label",
    "second_level_label": "second_level_label",
}

_SCHEMES = ("http://", "https://")
# RFC 1035's limit on a name's length, trailing dot excluded
MAX_NAME_LENGTH = 253
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|[01]?[0-9]?[0-9])"  # ASCII digits, 0-255
# host, TAB, an IPv4 address with optional non-TAB whitespace around it, then
# optional further TAB-separated fields
_CENSUS_LINE_RE = re.compile(
    rf"([^\t]*)\t[^\S\t]*{_OCTET}(?:\.{_OCTET}){{3}}[^\S\t]*(?:\t.*)?", re.DOTALL
)
# Unicode whitespace (the set str.isspace accepts), and every ASCII character
# other than a letter, digit, "-", "_" or "."; other non-ASCII characters pass
# as literal IDN
_BAD_HOST_CHAR_RE = re.compile(r"\s|[^\w.\-\x80-\U0010ffff]")

# class column spellings accepted by the labeled-CSV parser (case-insensitive)
CLASS_LABELS = {"dga": 1, "legit": 0}


class ParseError(ValueError):
    """Fatal corpus-level parse failure (bad header, unreadable stream)."""


class DomainError(ValueError):
    """A single domain string could not be normalized."""


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


@dataclass(slots=True, eq=False)
class DomainTable:
    """Corpus rows as aligned columns, one entry per row.

    ``raw_host`` and ``domain_part`` are lists of str with the meaning of the
    :class:`DomainRecord` fields; ``label`` is an int64 array (1 DGA,
    0 legitimate), or None for an unlabeled corpus.
    """

    raw_host: list
    domain_part: list
    label: np.ndarray | None = None

    def __len__(self):
        return len(self.domain_part)

    def __iter__(self):
        """One DomainRecord per row, built on demand."""
        labels = [None] * len(self) if self.label is None else self.label.tolist()
        return map(DomainRecord, self.raw_host, self.domain_part, labels)


@dataclass(slots=True)
class CorpusStats:
    total_rows: int = 0
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
        entries = (line.split("#", 1)[0].strip().lower() for line in text.splitlines())
        _BUILTIN_SUFFIXES = frozenset(e.strip(".") for e in entries if e)
    return _BUILTIN_SUFFIXES


def normalize_domain(raw, mode="second_level_label"):
    """Normalize a raw host string to the substring used for features.

    Lowercases, strips a URL scheme, a leading "www." label and a trailing
    dot. ``full_name`` keeps every remaining label; ``second_level_label``
    returns the label immediately left of the public suffix, with multi-part
    suffixes (e.g. "co.uk") matched against the bundled list. Names are
    treated as literal strings; no punycode decoding is attempted.
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
    if len(s) > MAX_NAME_LENGTH:
        raise DomainError(
            f"malformed domain: {len(s)} characters long, more than the "
            f"{MAX_NAME_LENGTH} a host name may have"
        )
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
    # longest multi-part suffix wins, provided a label remains to its left
    for depth in range(min(len(labels) - 1, 3), 1, -1):
        candidate = ".".join(labels[-depth:])
        if candidate in suffixes:
            return labels[-depth - 1]
    return labels[-2]


def parse_labeled_csv(stream, mode="second_level_label", max_rows=None):
    """Parse a labeled corpus CSV into a DomainTable plus corpus statistics.

    The stream must carry a header row naming the host, domain and class
    columns, in any order and letter case. Class strings are matched
    case-insensitively against "dga" (1) and "legit" (0); rows with an
    unknown class or an unnormalizable domain are skipped and counted.
    A missing required column is fatal. At most ``max_rows`` data rows are
    consumed, skipped ones included (None reads everything).
    """
    mode = resolve_mode(mode)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("labeled CSV is empty: no header row") from None
    index = {name.strip().lower(): i for i, name in enumerate(header)}
    columns = {}
    for name in ("host", "domain", "class"):
        if name not in index:
            raise ParseError(
                f"labeled CSV is missing required column {name!r} (header: {header!r})"
            )
        columns[name] = index[name]

    hosts, parts, labels = [], [], []
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
            parts.append(normalize_domain(domain or host, mode))
        except DomainError as exc:
            stats.record_error(f"row {row_no}: {exc}")
            continue
        hosts.append(host)
        labels.append(CLASS_LABELS[cls])
    return DomainTable(hosts, parts, np.array(labels, dtype=np.int64)), stats


def parse_census_lines(stream, max_rows=None, mode="full_name"):
    """Parse census-export lines ("domain<TAB>ipv4") into an unlabeled DomainTable.

    The address is four dot-separated octets of 1 to 3 ASCII digits, each at
    most 255; further TAB-separated fields are ignored. At most ``max_rows``
    data lines are consumed (None reads everything). Malformed lines are
    skipped and counted.
    """
    mode = resolve_mode(mode)
    match = _CENSUS_LINE_RE.fullmatch
    hosts, parts = [], []
    stats = CorpusStats()
    for line in stream:
        if max_rows is not None and stats.total_rows >= max_rows:
            break
        m = match(line)
        if m is None:
            if line.strip():
                stats.total_rows += 1
                stats.record_error(f"line {stats.total_rows}: not 'domain<TAB>ipv4'")
            continue
        stats.total_rows += 1
        host = m.group(1)
        try:
            part = normalize_domain(host, mode)
        except DomainError as exc:
            stats.record_error(f"line {stats.total_rows}: {exc}")
            continue
        host = host.strip()
        hosts.append(part if part == host else host)  # one string for both when equal
        parts.append(part)
    return DomainTable(hosts, parts), stats


def parse_domain_lines(stream, mode="second_level_label", max_rows=None):
    """Parse a bare list of domains (one per line) into an unlabeled DomainTable."""
    mode = resolve_mode(mode)
    hosts, parts = [], []
    stats = CorpusStats()
    for line in stream:
        if max_rows is not None and stats.total_rows >= max_rows:
            break
        raw = line.strip()
        if not raw or raw.startswith("#"):
            continue
        stats.total_rows += 1
        try:
            parts.append(normalize_domain(raw, mode))
        except DomainError as exc:
            stats.record_error(f"line {stats.total_rows}: {exc}")
            continue
        hosts.append(raw)
    return DomainTable(hosts, parts), stats


def dedupe(table):
    """Keep the first row of each domain_part, preserving input order.

    Returns ``(unique_table, conflicts)`` where conflicts lists
    ``(domain_part, kept_label, dropped_label)`` for duplicates whose labels
    disagree, in input order. The first label always wins.
    """
    parts = table.domain_part
    if len(set(parts)) == len(parts):
        return table, []
    # walking backwards, the last index stored for a name is its first row
    first = dict(zip(reversed(parts), range(len(parts) - 1, -1, -1)))
    keep = sorted(first.values())
    conflicts = []
    if table.label is not None:
        labels = table.label.tolist()
        conflicts = [
            (part, labels[first[part]], label)
            for part, label in zip(parts, labels)
            if label != labels[first[part]]
        ]
        if conflicts:
            log.warning(
                "dedupe: %d label conflicts (first occurrence kept), e.g. %r",
                len(conflicts),
                conflicts[0],
            )
    unique = DomainTable(
        [table.raw_host[i] for i in keep],
        [parts[i] for i in keep],
        None if table.label is None else table.label[keep],
    )
    return unique, conflicts


def open_corpus_text(path):
    """Open a corpus file as text, transparently handling gzip."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, encoding="utf-8")
