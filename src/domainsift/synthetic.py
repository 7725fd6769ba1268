"""Synthetic corpus generation for self-contained experiments.

Legitimate-style domains are concatenations of 2-3 words from a bundled
wordlist; DGA-style domains are uniform random [a-z0-9] strings of length
12-25, mirroring the class ratio and character profile of real corpora.
Everything is seeded and produces unique domains, so generated corpora are
reproducible and dedupe-stable.
"""

from __future__ import annotations

import csv
import gzip
from importlib import resources

import numpy as np

DGA_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
DGA_MIN_LEN = 12
DGA_MAX_LEN = 25

DEFAULT_N_LEGIT = 20_000
DEFAULT_N_DGA = 13_000

TLDS = (".com", ".net", ".org", ".info", ".biz")

_WORDS = None


def load_wordlist():
    """The bundled lowercase word list (deduplicated, file order)."""
    global _WORDS
    if _WORDS is None:
        text = (
            resources.files("domainsift.data")
            .joinpath("wordlist.txt")
            .read_text(encoding="utf-8")
        )
        seen = {}
        for line in text.splitlines():
            word = line.strip()
            if word and not word.startswith("#"):
                seen.setdefault(word, None)
        _WORDS = tuple(seen)
    return _WORDS


def generate_legit_domains(n, rng):
    """n unique word-concatenation domains (2-3 words each)."""
    words = load_wordlist()
    out = []
    seen = set()
    while len(out) < n:
        count = int(rng.integers(2, 4))
        picks = rng.integers(0, len(words), size=count)
        domain = "".join(words[i] for i in picks)
        if domain not in seen:
            seen.add(domain)
            out.append(domain)
    return out


def generate_dga_domains(n, rng, exclude=()):
    """n unique uniform-random [a-z0-9] domains, lengths 12-25."""
    out = []
    seen = set(exclude)
    while len(out) < n:
        length = int(rng.integers(DGA_MIN_LEN, DGA_MAX_LEN + 1))
        chars = rng.integers(0, len(DGA_ALPHABET), size=length)
        domain = "".join(DGA_ALPHABET[i] for i in chars)
        if domain not in seen:
            seen.add(domain)
            out.append(domain)
    return out


def generate_labeled_corpus(n_legit=DEFAULT_N_LEGIT, n_dga=DEFAULT_N_DGA, seed=0):
    """Shuffled labeled corpus: (domains, labels) with 1 marking DGA."""
    rng = np.random.default_rng(seed)
    legit = generate_legit_domains(n_legit, rng)
    dga = generate_dga_domains(n_dga, rng, exclude=legit)
    domains = legit + dga
    labels = np.concatenate(
        [np.zeros(n_legit, dtype=np.int64), np.ones(n_dga, dtype=np.int64)]
    )
    order = rng.permutation(len(domains))
    return [domains[i] for i in order], labels[order]


def generate_census(n=30_000, dga_fraction=0.1, seed=0):
    """Census-style unlabeled mix with planted ground truth.

    Returns ``(hosts, ips, truth)`` where hosts carry a TLD (census exports
    keep it), ips are synthetic dotted quads, and truth marks the planted
    DGA rows with 1.
    """
    if not 0.0 <= dga_fraction <= 1.0:
        raise ValueError(f"dga_fraction must be in [0, 1], got {dga_fraction}")
    rng = np.random.default_rng(seed)
    n_dga = int(np.floor(n * dga_fraction + 0.5))
    n_legit = n - n_dga
    legit = generate_legit_domains(n_legit, rng)
    dga = generate_dga_domains(n_dga, rng, exclude=legit)
    names = legit + dga
    truth = np.concatenate(
        [np.zeros(n_legit, dtype=np.int64), np.ones(n_dga, dtype=np.int64)]
    )
    hosts = [name + TLDS[int(rng.integers(len(TLDS)))] for name in names]
    octets = rng.integers(1, 255, size=(n, 4))
    ips = [".".join(str(v) for v in row) for row in octets]
    order = rng.permutation(n)
    return [hosts[i] for i in order], [ips[i] for i in order], truth[order]


def write_labeled_csv(path, domains, labels):
    """Labeled corpus file in host,domain,class form ("www.<domain>.com")."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["host", "domain", "class"])
        for domain, label in zip(domains, labels):
            writer.writerow([f"www.{domain}.com", domain, "dga" if label else "legit"])


def write_census_file(path, hosts, ips):
    """Census export lines "host<TAB>ip"; gzip-compressed for .gz paths."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as fh:
        for host, ip in zip(hosts, ips):
            fh.write(f"{host}\t{ip}\n")


def write_truth_csv(path, hosts, truth):
    """Planted ground truth for a generated census: host,label rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["host", "label"])
        for host, label in zip(hosts, truth):
            writer.writerow([host, int(label)])
