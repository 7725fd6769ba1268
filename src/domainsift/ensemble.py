"""Majority-vote ensemble over the five base classifiers.

All members train on the identical corpus; a shared standardizer is fitted
once and applied only to the distance/margin members (knn, logreg, svm).
Exactly five members keep the vote odd, so a majority always exists. The
positive label wins with 3 or more of the 5 votes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .base import (
    ParamsMixin,
    check_both_classes,
    check_is_fitted,
    check_matrix,
    check_X_y,
    corpus_fingerprint,
    distinct_rows,
)
from .learners import (
    C45Tree,
    GaussianNaiveBayes,
    KNNClassifier,
    LogisticRegressionGD,
    PegasosSVM,
)
from .preprocessing import Standardizer

MEMBER_KINDS = ("c45", "knn", "logreg", "nb", "svm")
SCALED_KINDS = frozenset({"knn", "logreg", "svm"})

ENSEMBLE_VERSION = 1


class Member(NamedTuple):
    name: str
    estimator: object
    uses_standardizer: bool


def default_members(seed=0, member_params=None):
    """The canonical five members, optionally with per-kind parameter overrides.

    ``member_params`` maps a member kind to a dict of constructor overrides,
    e.g. ``{"knn": {"k": 7}}``. The svm inherits ``seed`` unless overridden.
    """
    overrides = dict(member_params or {})
    unknown = set(overrides) - set(MEMBER_KINDS)
    if unknown:
        raise ValueError(f"unknown member kinds in overrides: {sorted(unknown)}")
    estimators = {
        "c45": C45Tree(**overrides.get("c45", {})),
        "knn": KNNClassifier(**overrides.get("knn", {})),
        "logreg": LogisticRegressionGD(**overrides.get("logreg", {})),
        "nb": GaussianNaiveBayes(**overrides.get("nb", {})),
        "svm": PegasosSVM(**{"seed": seed, **overrides.get("svm", {})}),
    }
    return [
        Member(name=kind, estimator=estimators[kind], uses_standardizer=kind in SCALED_KINDS)
        for kind in MEMBER_KINDS
    ]


def check_members(members):
    """Exactly five members with unique names keep the vote odd and addressable."""
    if len(members) != 5:
        raise ValueError(f"ensemble needs exactly 5 members, got {len(members)}")
    names = [m.name for m in members]
    if len(set(names)) != 5:
        raise ValueError(f"member names must be unique, got {names}")


def majority(votes):
    """1 where more than half of a row's member votes are 1 (3 of 5), else 0."""
    return (2 * votes.sum(axis=1) > votes.shape[1]).astype(np.int64)


class MajorityVoteEnsemble(ParamsMixin):
    """Five classifiers voting; 3 or more positive votes predict DGA.

    By default the members are the canonical five (c45, knn, logreg, nb,
    svm). A custom ``members`` list of Member tuples (or (name, estimator)
    pairs) may be injected, mainly to test the vote rule in isolation; each
    member's ``uses_standardizer`` flag decides whether it sees standardized
    or raw inputs, defaulting to the ``SCALED_KINDS`` convention for pairs.
    """

    FITTED_FIELDS = (
        ("version_", "count", ()),
        ("fingerprint_", "json", ()),
        ("standardizer_", "standardizer", ()),
        ("members_", "members", ()),
    )

    def __init__(self, seed=0, member_params=None, members=None):
        self.seed = seed
        self.member_params = member_params
        self.members = members

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        check_both_classes(y)
        if self.members is not None:
            named = [
                entry if isinstance(entry, Member)
                else Member(entry[0], entry[1], entry[0] in SCALED_KINDS)
                for entry in self.members
            ]
        else:
            named = default_members(self.seed, self.member_params)
        check_members(named)

        scaler = Standardizer().fit(X)
        Xs = scaler.transform(X)
        fitted = []
        for name, estimator, scaled in named:
            try:
                estimator.fit(Xs if scaled else X, y)
            except Exception as exc:
                raise RuntimeError(f"training ensemble member {name!r} failed: {exc}") from exc
            fitted.append(Member(name=name, estimator=estimator, uses_standardizer=scaled))
        self.standardizer_ = scaler
        self.members_ = fitted
        self.fingerprint_ = corpus_fingerprint(X, y)
        self.n_features_in_ = X.shape[1]
        self.version_ = ENSEMBLE_VERSION
        return self

    def _check_state(self):
        """The rules on members that fit enforces, plus the version, on a loaded state."""
        if self.version_ != ENSEMBLE_VERSION:
            raise ValueError(f"ensemble version {self.version_} is not {ENSEMBLE_VERSION}")
        check_members(self.members_)

    def vote_matrix(self, X):
        """Per-member 0/1 predictions, one column per member in member order.

        A member's prediction depends on its input row alone, so each distinct
        row is scored once and the votes are mapped back to every copy of it.
        """
        check_is_fitted(self, "members_")
        X = check_matrix(X, n_features=self.n_features_in_)
        U, inverse, _ = distinct_rows(X)
        Us = self.standardizer_.transform(U)
        votes = np.empty((U.shape[0], len(self.members_)), dtype=np.int64)
        for col, member in enumerate(self.members_):
            votes[:, col] = member.estimator.predict(Us if member.uses_standardizer else U)
        return votes[inverse]

    def predict(self, X):
        return majority(self.vote_matrix(X))

    def predict_with_votes(self, X):
        """Labels plus the vote breakdown: (labels, votes, member_names)."""
        votes = self.vote_matrix(X)
        return majority(votes), votes, self.member_names()

    def member_names(self):
        check_is_fitted(self, "members_")
        return [m.name for m in self.members_]

    def member_predict(self, name, X):
        """Prediction of a single member: its column of :meth:`vote_matrix`."""
        names = self.member_names()
        if name not in names:
            raise KeyError(f"no ensemble member named {name!r}")
        return self.vote_matrix(X)[:, names.index(name)]
