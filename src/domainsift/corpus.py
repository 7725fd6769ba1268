"""Corpus ingestion: parse, normalize, and deduplicate domain name corpora.

Three corpus shapes are supported: a labeled CSV whose header names the
host, domain and class columns (class is "legit" or "dga"), an unlabeled
census export with one "domain<TAB>ipv4" record per line, and a bare list of
domains, one per line. Second-level labels are found against the bundled
multi-part suffix list. Malformed rows are skipped and counted rather than
aborting million-row files. Parsers return a :class:`DomainTable`, the kept
rows as columns.

A census is read in text blocks of whole lines, so a large file is never held
in memory at once. One pattern finds the lines that normalization would keep
unchanged. When it matches every line of a block, one search gives the
block's rows; otherwise the block is read line by line, in input order, and
only the lines the pattern does not match go through the full per-line
parser.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

log = logging.getLogger(__name__)

# the normalization modes: "full" keeps every label of a name, "sld" the
# second-level label
MODES = ("full", "sld")

_SCHEMES = ("http://", "https://")
# RFC 1035's limit on a name's length, trailing dot excluded
MAX_NAME_LENGTH = 253
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|[01]?[0-9]?[0-9])"  # ASCII digits, 0-255
# host, TAB, an IPv4 address with optional non-TAB whitespace around it, then
# optional further TAB-separated fields
_CENSUS_LINE_RE = re.compile(
    rf"([^\t]*)\t[^\S\t]*{_OCTET}(?:\.{_OCTET}){{3}}[^\S\t]*(?:\t.*)?", re.DOTALL
)
# a census line that parses to its own host, unchanged: 1-253 characters of
# lowercase [a-z0-9_-] labels joined by single dots, not starting "www.", a TAB,
# the address with optional spaces around it, then optional further fields; no
# character class crosses a newline, so each line matches at most once
_CLEAN_CENSUS_LINE_RE = re.compile(
    rf"^(?!www\.)(?=[a-z0-9_.-]{{1,{MAX_NAME_LENGTH}}}\t)([a-z0-9_-]+(?:\.[a-z0-9_-]+)*)"
    rf"\t *{_OCTET}(?:\.{_OCTET}){{3}} *(?:\t[^\n]*)?$",
    re.M,
)
# characters read from a census stream at a time, before the cut at a line end
_BLOCK_CHARS = 1 << 18
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


@dataclass(slots=True, eq=False)
class DomainTable:
    """Corpus rows as aligned columns, one entry per row.

    ``raw_host`` is the host as the corpus gave it. ``domain_part`` is the
    normalized substring features are computed from: non-empty, lowercase,
    no scheme, no leading "www." label, no trailing dot, and no whitespace or
    ASCII character other than a letter, digit, "-", "_" or ".". Both are
    lists of str. ``label`` is an int64 array (1 DGA, 0 legitimate), or None
    for an unlabeled corpus.
    """

    raw_host: list
    domain_part: list
    label: np.ndarray | None = None

    def __len__(self):
        return len(self.domain_part)


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
    """``mode`` if it is one of :data:`MODES`, else ValueError."""
    if mode not in MODES:
        raise ValueError(f"unknown normalization mode {mode!r}; expected one of {list(MODES)}")
    return mode


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


def normalize_domain(raw, mode="sld"):
    """Normalize a raw host string to the substring used for features.

    Lowercases, strips a URL scheme, a leading "www." label and a trailing
    dot. ``full`` keeps every remaining label; ``sld`` returns the label
    immediately left of the public suffix, with multi-part suffixes (e.g.
    "co.uk") matched against the bundled list. Names are treated as literal
    strings; no punycode decoding is attempted.
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

    if mode == "full":
        return s

    labels = s.split(".")
    if "" in labels:
        raise DomainError(f"malformed domain: {raw!r} has an empty label")
    return _second_level_label(labels)


def _second_level_label(labels):
    """The label left of a name's public suffix, from its non-empty labels."""
    if len(labels) == 1:
        return labels[0]
    suffixes = builtin_suffixes()
    # longest multi-part suffix wins, provided a label remains to its left
    for depth in range(min(len(labels) - 1, 3), 1, -1):
        candidate = ".".join(labels[-depth:])
        if candidate in suffixes:
            return labels[-depth - 1]
    return labels[-2]


def parse_labeled_csv(stream, mode="sld", max_rows=None):
    """Parse a labeled corpus CSV into a DomainTable plus corpus statistics.

    The first non-blank row must be a header naming the host, domain and
    class columns, in any order and letter case. Class strings are matched
    case-insensitively against "dga" (1) and "legit" (0); rows with an
    unknown class, a host holding a line break or an unnormalizable domain
    are skipped and counted.
    A missing required column is fatal. At most ``max_rows`` data rows are
    consumed, skipped ones included (None reads everything).
    """
    mode = resolve_mode(mode)
    rows = csv_rows(stream, "labeled CSV")
    header = next((row for _, row in rows if any(cell.strip() for cell in row)), None)
    if header is None:
        raise ParseError("labeled CSV is empty: no header row")
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
    for row_no, row in rows:
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
        if "\n" in host or "\r" in host:  # it would split its line in the outputs
            stats.record_error(f"row {row_no}: host {host!r} holds a line break")
            continue
        try:
            parts.append(normalize_domain(domain or host, mode))
        except DomainError as exc:
            stats.record_error(f"row {row_no}: {exc}")
            continue
        hosts.append(host)
        labels.append(CLASS_LABELS[cls])
    return DomainTable(hosts, parts, np.array(labels, dtype=np.int64)), stats


def csv_rows(stream, what):
    """The rows of CSV text ``stream`` as ``(row number, cells)``, the first row
    numbered 1; a row the csv module cannot read (an over-long field, often from
    a stray quote) raises :class:`ParseError` naming ``what`` and the row."""
    row_no = 0
    try:
        for row_no, row in enumerate(csv.reader(stream), start=1):
            yield row_no, row
    except csv.Error as exc:
        raise ParseError(f"{what} row {row_no + 1}: {exc}") from None


def _line_blocks(stream):
    """The stream's text in blocks of about ``_BLOCK_CHARS`` characters, each
    cut after its last newline; only the final block may end without one."""
    pending = []
    while chunk := stream.read(_BLOCK_CHARS):
        cut = chunk.rfind("\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        yield "".join(pending)
        pending = [chunk[cut:]]
    if tail := "".join(pending):
        yield tail


def parse_census_lines(stream, max_rows=None, mode="full"):
    """Parse census-export lines ("domain<TAB>ipv4") into an unlabeled DomainTable.

    The address is four dot-separated octets of 1 to 3 ASCII digits, each at
    most 255; further TAB-separated fields are ignored. Only "\\n" ends a
    line. At most ``max_rows`` data lines are consumed (None reads
    everything). Malformed lines are skipped and counted.
    """
    mode = resolve_mode(mode)
    match = _CENSUS_LINE_RE.fullmatch
    clean_match = _CLEAN_CENSUS_LINE_RE.match
    hosts, parts = [], []
    stats = CorpusStats()
    for block in _line_blocks(stream):
        clean = _CLEAN_CENSUS_LINE_RE.findall(block)
        if len(clean) == block.count("\n") + (not block.endswith("\n")):
            if max_rows is not None:
                del clean[max_rows - stats.total_rows:]
            stats.total_rows += len(clean)
            hosts += clean
            if mode == "full":
                parts += clean
            else:
                parts += [_second_level_label(host.split(".")) for host in clean]
        else:
            for line in block.split("\n"):
                if max_rows is not None and stats.total_rows >= max_rows:
                    break
                m = clean_match(line)
                if m is not None:
                    host = m.group(1)
                    stats.total_rows += 1
                    hosts.append(host)
                    parts.append(
                        host if mode == "full" else _second_level_label(host.split("."))
                    )
                    continue
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
        if max_rows is not None and stats.total_rows >= max_rows:
            break
    return DomainTable(hosts, parts), stats


def parse_domain_lines(stream, mode="sld", max_rows=None):
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
    # equal names hash equal, so sorted hashes without two equal neighbours
    # prove every name distinct, without building a set of the names
    hashes = np.fromiter(map(hash, parts), dtype=np.int64, count=len(parts))
    hashes.sort()
    if not np.any(hashes[1:] == hashes[:-1]):
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


@contextmanager
def open_corpus_text(path):
    """Open a corpus file as text, transparently handling gzip.

    The path is opened once, and the gzip magic is peeked from that handle's
    buffer, so a pipe or a process substitution reads like a regular file. A
    leading UTF-8 byte-order mark is dropped. Corrupt or truncated gzip data,
    and bytes that are not UTF-8, raise :class:`ParseError` naming the path,
    whether they are met on opening or while the caller reads.
    """
    with open(path, "rb") as raw:
        try:
            binary = gzip.GzipFile(fileobj=raw) if raw.peek(2)[:2] == b"\x1f\x8b" else raw
            with io.TextIOWrapper(binary, encoding="utf-8-sig") as fh:
                yield fh
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ParseError(f"{path}: corrupt gzip data: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
            ) from None
