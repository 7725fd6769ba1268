"""Spot-verification of flagged domains against a local bad-list.

Scores run 0-100; anything below 50 is treated as suspicious. A listed
domain scores 0; any other domain has no score, so its verdict is unknown
rather than benign.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

SUSPICION_THRESHOLD = 50

VERDICT_SUSPICIOUS = "suspicious"
VERDICT_BENIGN = "benign"
VERDICT_UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class ReputationResult:
    domain: str
    score: int | None  # None when the domain is not listed
    verdict: str
    provider: str


def classify_score(score):
    """Verdict for a 0-100 reputation score; scores below 50 are suspicious."""
    if score is None:
        return VERDICT_UNKNOWN
    return VERDICT_SUSPICIOUS if score < SUSPICION_THRESHOLD else VERDICT_BENIGN


class LocalListProvider:
    """Bad-list membership: listed domains score 0, everything else is unknown."""

    provider_id = "local-list"

    def __init__(self, bad_domains):
        self.bad_domains = frozenset(d.strip().lower() for d in bad_domains if d.strip())

    @classmethod
    def from_file(cls, path):
        """One domain per line; "#" starts a comment."""
        with open(path, encoding="utf-8") as fh:
            return cls(line.split("#", 1)[0] for line in fh)

    def lookup(self, domain):
        return 0 if domain.strip().lower() in self.bad_domains else None


def check(domain, provider):
    """One domain against a :class:`LocalListProvider`."""
    score = provider.lookup(domain)
    return ReputationResult(
        domain=domain,
        score=score,
        verdict=classify_score(score),
        provider=provider.provider_id,
    )


def sample_and_check(flagged, n, seed, provider):
    """Check a seeded uniform sample (without replacement) of a sequence of
    flagged domain strings. Results keep the input order of the sampled entries.
    """
    if n > len(flagged):
        raise ValueError(f"cannot sample {n} of {len(flagged)} flagged domains")
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(len(flagged), size=n, replace=False))
    return [check(flagged[i], provider) for i in picked]


def write_reputation_csv(stream, results):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["domain", "score", "verdict", "provider"])
    for r in results:
        writer.writerow([r.domain, "" if r.score is None else r.score, r.verdict, r.provider])
