"""Spot-verification of flagged domains against a local bad-list.

A listed domain is suspicious. Any other domain is unknown rather than
benign: a bad-list says nothing about the names it leaves out.
"""

from __future__ import annotations

import csv

import numpy as np

from .corpus import open_corpus_text


def read_badlist(path):
    """The lowercased names of a bad-list file: one per line, "#" starts a comment."""
    with open_corpus_text(path) as fh:
        names = (line.split("#", 1)[0].strip().lower() for line in fh)
        return frozenset(name for name in names if name)


def sample(domains, n, seed):
    """A seeded uniform sample, without replacement, of ``n`` of ``domains``,
    kept in input order."""
    if n > len(domains):
        raise ValueError(f"cannot sample {n} of {len(domains)} flagged domains")
    rng = np.random.default_rng(seed)
    return [domains[i] for i in np.sort(rng.choice(len(domains), size=n, replace=False))]


def write_reputation_csv(stream, domains, listed):
    """One row per domain: score 0 and ``suspicious`` where ``listed`` is true,
    else no score and ``unknown``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["domain", "score", "verdict", "provider"])
    for domain, is_listed in zip(domains, listed):
        if is_listed:
            writer.writerow([domain, 0, "suspicious", "local-list"])
        else:
            writer.writerow([domain, "", "unknown", "local-list"])
