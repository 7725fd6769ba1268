"""Synthetic corpus generation for self-contained experiments.

Legitimate-style domains are concatenations of 2-3 words from a bundled
wordlist; DGA-style domains are uniform random [a-z0-9] strings of length
12-25, mirroring the class ratio and character profile of real corpora.
Everything is seeded and produces unique domains, so generated corpora are
reproducible and dedupe-stable. The generators import ``draws`` only when
they run (its docstring says why).
"""

from __future__ import annotations

import csv
import gzip
from importlib import resources
from itertools import groupby

import numpy as np

DGA_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
DGA_MIN_LEN = 12
DGA_MAX_LEN = 25

DEFAULT_N_LEGIT = 20_000
DEFAULT_N_DGA = 13_000

TLDS = (".com", ".net", ".org", ".info", ".biz")
_OCTETS = tuple(str(v) for v in range(256))

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
    from .draws import BoundedDraws

    draws = BoundedDraws(rng)
    out = draws.names(n, (2, 3), load_wordlist(), set())
    draws.close()
    return out


def generate_dga_domains(n, rng, exclude=()):
    """n unique uniform-random [a-z0-9] domains, lengths 12-25."""
    from .draws import BoundedDraws

    draws = BoundedDraws(rng)
    out = draws.names(n, range(DGA_MIN_LEN, DGA_MAX_LEN + 1), DGA_ALPHABET, set(exclude))
    draws.close()
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
    return [domains[i] for i in order.tolist()], labels[order]


def generate_census(n=30_000, dga_fraction=0.1, seed=0):
    """Census-style unlabeled mix with planted ground truth.

    Returns ``(hosts, ips, truth)`` where hosts carry a TLD (census exports
    keep it), ips are synthetic dotted quads, and truth marks the planted
    DGA rows with 1.
    """
    from .draws import BoundedDraws

    if not 0.0 <= dga_fraction <= 1.0:
        raise ValueError(f"dga_fraction must be in [0, 1], got {dga_fraction}")
    rng = np.random.default_rng(seed)
    n_dga = int(np.floor(n * dga_fraction + 0.5))
    n_legit = n - n_dga
    legit = generate_legit_domains(n_legit, rng)
    dga = generate_dga_domains(n_dga, rng, exclude=legit)
    truth = np.concatenate(
        [np.zeros(n_legit, dtype=np.int64), np.ones(n_dga, dtype=np.int64)]
    )
    draws = BoundedDraws(rng)
    hosts = [name + TLDS[t] for name, t in zip(legit + dga, draws.below(len(TLDS), n))]
    draws.close()
    octets = rng.integers(1, 255, size=(n, 4))
    ips = [f"{_OCTETS[a]}.{_OCTETS[b]}.{_OCTETS[c]}.{_OCTETS[d]}"
           for a, b, c, d in octets.tolist()]
    order = rng.permutation(n)
    index = order.tolist()
    return [hosts[i] for i in index], [ips[i] for i in index], truth[order]


def _write_csv(path, header, rows):
    r"""CSV file with "\n" line ends. A row whose first field holds a "\r" is
    quoted in full: minimal quoting leaves a bare "\r", where a reader would
    end the row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        minimal = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        minimal.writerow(header)
        for bare_cr, group in groupby(rows, key=lambda row: "\r" in row[0]):
            (quoted if bare_cr else minimal).writerows(group)


def write_labeled_csv(path, domains, labels):
    """Labeled corpus file in host,domain,class form ("www.<domain>.com")."""
    _write_csv(
        path,
        ["host", "domain", "class"],
        ((f"www.{domain}.com", domain, "dga" if label else "legit")
         for domain, label in zip(domains, labels)),
    )


def write_census_file(path, hosts, ips):
    """Census export lines "host<TAB>ip"; gzip-compressed for .gz paths.

    The gzip header carries no timestamp, so a census gives the same bytes
    on every run.
    """
    data = "".join([f"{host}\t{ip}\n" for host, ip in zip(hosts, ips)]).encode("utf-8")
    if str(path).endswith(".gz"):
        data = gzip.compress(data, mtime=0)
    with open(path, "wb") as fh:
        fh.write(data)


def write_truth_csv(path, hosts, truth):
    """Planted ground truth for a generated census: host,label rows."""
    _write_csv(path, ["host", "label"], zip(hosts, map(int, truth)))
