"""Lexical feature extraction for domain names.

Eight counting features are computed from each normalized domain string:
four totals (length, distinct characters, distinct letters, distinct digits)
and four ratios. Letter/digit counts are taken over string length, distinct
letter/digit counts over the distinct-character count. Letters are strictly
a-z and digits strictly 0-9; any other character (dot, hyphen, underscore)
contributes to length and distinct-character counts only.
"""

from __future__ import annotations

import csv

import numpy as np

from .base import DistinctRows, check_matrix
from .corpus import DomainTable

FEATURE_NAMES = (
    "len",
    "uniq_chars",
    "uniq_letters",
    "uniq_numbers",
    "ratio_letters",
    "ratio_numbers",
    "ratio_uniq_letters",
    "ratio_uniq_numbers",
)

N_FEATURES = len(FEATURE_NAMES)

_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")


def domain_features(domain):
    """Feature vector for one domain string as a float64 array of length 8."""
    if not isinstance(domain, str):
        raise TypeError(f"domain must be str, got {type(domain).__name__}")
    if not domain:
        raise ValueError("cannot extract features from an empty domain")
    n = len(domain)
    n_letters = 0
    n_digits = 0
    for ch in domain:
        if ch in _LETTERS:
            n_letters += 1
        elif ch in _DIGITS:
            n_digits += 1
    distinct = set(domain)
    u_chars = len(distinct)
    u_letters = len(distinct & _LETTERS)
    u_digits = len(distinct & _DIGITS)
    return np.array(
        [
            n,
            u_chars,
            u_letters,
            u_digits,
            n_letters / n,
            n_digits / n,
            u_letters / u_chars,
            u_digits / u_chars,
        ],
        dtype=np.float64,
    )


def extract_features(table_or_domains):
    """Feature matrix for a DomainTable or plain strings, plus labels.

    Returns ``(X, y)``: ``X`` has one row per input row in the order of
    :data:`FEATURE_NAMES`, equal to :func:`domain_features` of each domain;
    it is gathered from :func:`distinct_features`, whose limits it shares.
    ``y`` is a table's label vector, or None for plain strings.
    """
    if isinstance(table_or_domains, str):
        raise TypeError("domains must be a sequence of strings, not a single str")
    if isinstance(table_or_domains, DomainTable):
        domains, y = table_or_domains.domain_part, table_or_domains.label
    else:
        domains, y = list(table_or_domains), None
    distinct = distinct_features(domains)
    return distinct.rows[distinct.inverse], (y if len(domains) else None)


# cells (rows x longest domain) of the code-point matrix built per block of
# rows. It bounds the transient memory of feature extraction: at this size the
# block arrays stay below a run's peak memory, and larger blocks are no faster
FEATURE_BLOCK_CELLS = 1 << 16
# padding value of the code-point matrix: above every code point (U+10FFFF),
# so that it sorts after every character of the domain
_PAD = 0x110000
# bits of each of the six counts in a distinct_features key: 6 x 10 bits fit
# an int64, and the longest name that can be keyed has 2**10 - 1 characters
_KEY_BITS = 10


def distinct_features(domains):
    """The distinct feature rows of ``domains``, a sequence of names, as
    :class:`~domainsift.base.DistinctRows`: rows in lexicographic order, each
    the :func:`domain_features` of the names that map to it.

    Each name's six counts (:func:`_count_block`) are packed into one int64
    key, 10 bits each and length first, so the key order is the lexicographic
    order of the feature rows; only the distinct keys become float rows. A
    name of more than 1023 characters cannot be keyed and raises ValueError.
    """
    if isinstance(domains, str):
        raise TypeError("domains must be a sequence of strings, not a single str")
    key = np.empty(len(domains), dtype=np.int64)
    for block, counts in _count_blocks(domains):
        long = np.flatnonzero(counts[0] >> _KEY_BITS)
        if long.size:
            i = block.start + int(long[0])
            raise ValueError(f"row {i}: a name of {len(domains[i])} characters is too "
                             f"long to key; at most {(1 << _KEY_BITS) - 1}")
        packed = counts[0]
        for count in counts[1:]:
            packed = packed << _KEY_BITS | count
        key[block] = packed
    # np.unique(key, return_inverse=True) keeps several more n-sized temporaries;
    # asking for the counts takes its sort path, which never imports numpy.ma
    keys, counts = np.unique(key, return_counts=True)
    inverse = np.searchsorted(keys, key)
    shifts = range(_KEY_BITS * 5, -1, -_KEY_BITS)
    rows = np.empty((keys.size, N_FEATURES), dtype=np.float64)
    _fill_features(rows, *(keys >> shift & ((1 << _KEY_BITS) - 1) for shift in shifts))
    return DistinctRows(rows, inverse, counts)


def _count_blocks(domains):
    """``(block, counts)`` for each block of ``domains``: a slice of the rows and
    :func:`_count_block` of their names."""
    lengths = _domain_lengths(domains)
    if not len(domains):
        return
    step = max(1, FEATURE_BLOCK_CELLS // int(lengths.max()))
    for start in range(0, len(domains), step):
        block = slice(start, start + step)
        yield block, _count_block(domains[block], lengths[block])


def _domain_lengths(domains):
    """Each domain's length; for the first one that is not a non-empty str,
    raises domain_features' error prefixed with the row number."""
    if set(map(type, domains)) <= {str}:
        lengths = np.fromiter(map(len, domains), dtype=np.int64, count=len(domains))
        if lengths.all():
            return lengths
    for i, domain in enumerate(domains):
        if not isinstance(domain, str) or not domain:
            try:
                domain_features(domain)
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"row {i}: {exc}") from None
    return np.fromiter(map(len, domains), dtype=np.int64, count=len(domains))


def _count_block(domains, lengths):
    """The six integer counts of ``domains``, whose lengths are ``lengths``, one
    array each: length, distinct characters, distinct letters, distinct digits,
    letters and digits."""
    # UTF-32 holds one code point per cell; a NUL inside a domain stays a
    # character because the padding is told apart by length, not by value
    codes = np.array(domains, dtype=str).view(np.uint32).reshape(len(domains), -1)
    codes[np.arange(codes.shape[1]) >= lengths[:, None]] = _PAD
    codes.sort(axis=1)
    # a cell starts a run of equal characters: each distinct character once
    first = np.empty(codes.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(codes[:, 1:], codes[:, :-1], out=first[:, 1:])
    first &= codes != _PAD
    letter = (codes >= ord("a")) & (codes <= ord("z"))
    digit = (codes >= ord("0")) & (codes <= ord("9"))
    return (
        lengths,
        np.count_nonzero(first, axis=1),
        np.count_nonzero(first & letter, axis=1),
        np.count_nonzero(first & digit, axis=1),
        np.count_nonzero(letter, axis=1),
        np.count_nonzero(digit, axis=1),
    )


def _fill_features(out, n, u_chars, u_letters, u_digits, letters, digits):
    """Fill ``out`` with the features of the names whose counts are given."""
    out[:, 0] = n
    out[:, 1] = u_chars
    out[:, 2] = u_letters
    out[:, 3] = u_digits
    out[:, 4] = letters / n
    out[:, 5] = digits / n
    out[:, 6] = u_letters / u_chars
    out[:, 7] = u_digits / u_chars


def write_feature_csv(stream, X, y=None):
    """Write a feature matrix (optionally with labels) in the exchange format.

    Header is the canonical feature order plus "label" when y is given.
    The four count columns stay integral-looking ("12" not "12.0"); the four
    ratio columns always carry 6 decimal places.
    """
    X = check_matrix(X, n_features=N_FEATURES)
    names = list(FEATURE_NAMES)
    if y is not None:
        y = np.asarray(y)
        if y.shape != (X.shape[0],):
            raise ValueError(
                f"label vector has shape {y.shape}, expected ({X.shape[0]},)"
            )
        names.append("label")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(names)
    for i in range(X.shape[0]):
        row = [_format_value(v, j) for j, v in enumerate(X[i])]
        if y is not None:
            row.append(str(int(y[i])))
        writer.writerow(row)


# first 4 columns are counts, last 4 ratios
_N_COUNT_COLUMNS = 4


def _format_value(v, column):
    v = float(v)
    if column < _N_COUNT_COLUMNS and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6f}"

