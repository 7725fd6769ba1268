"""Majority-vote ensemble over the five base classifiers.

All members train on the identical corpus; a shared standardizer is fitted
once and applied only to the distance/margin members (knn, logreg, svm):
a member sees standardized input exactly when its name is in
``SCALED_KINDS``. Exactly five members keep the vote odd, so a majority
always exists. The positive label wins with 3 or more of the 5 votes.
"""

from __future__ import annotations

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


def default_members(seed=0, member_params=None):
    """The canonical five ``(kind, estimator)`` pairs in ``MEMBER_KINDS`` order,
    optionally with per-kind parameter overrides.

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
    return list(estimators.items())


def check_members(members):
    """Exactly five members with unique names keep the vote odd and addressable."""
    if len(members) != 5:
        raise ValueError(f"ensemble needs exactly 5 members, got {len(members)}")
    names = [name for name, _ in members]
    if len(set(names)) != 5:
        raise ValueError(f"member names must be unique, got {names}")


def majority(votes):
    """1 where more than half of a row's member votes are 1 (3 of 5), else 0."""
    return (2 * votes.sum(axis=1) > votes.shape[1]).astype(np.int64)


class MajorityVoteEnsemble(ParamsMixin):
    """Five classifiers voting; 3 or more positive votes predict DGA.

    By default the members are the canonical five (c45, knn, logreg, nb,
    svm). A custom ``members`` list of (name, estimator) pairs may be
    injected, mainly to test the vote rule in isolation; a member sees
    standardized inputs when its name is in ``SCALED_KINDS``. Only the
    canonical five can be saved.
    """

    FITTED_FIELDS = (
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
        if self.members is None:
            members = default_members(self.seed, self.member_params)
        else:
            members = [(name, estimator) for name, estimator in self.members]
        check_members(members)

        scaler = Standardizer().fit(X)
        Xs = scaler.transform(X)
        for name, estimator in members:
            try:
                estimator.fit(Xs if name in SCALED_KINDS else X, y)
            except Exception as exc:
                raise RuntimeError(f"training ensemble member {name!r} failed: {exc}") from exc
        self.standardizer_ = scaler
        self.members_ = members
        self.fingerprint_ = corpus_fingerprint(X, y)
        self.n_features_in_ = X.shape[1]
        return self

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
        for col, (name, estimator) in enumerate(self.members_):
            votes[:, col] = estimator.predict(Us if name in SCALED_KINDS else U)
        return votes[inverse]

    def predict(self, X):
        return majority(self.vote_matrix(X))

    def predict_with_votes(self, X):
        """Labels plus the vote breakdown: (labels, votes, member_names)."""
        votes = self.vote_matrix(X)
        return majority(votes), votes, self.member_names()

    def member_names(self):
        check_is_fitted(self, "members_")
        return [name for name, _ in self.members_]

    def member_predict(self, name, X):
        """Prediction of a single member: its column of :meth:`vote_matrix`."""
        names = self.member_names()
        if name not in names:
            raise KeyError(f"no ensemble member named {name!r}")
        return self.vote_matrix(X)[:, names.index(name)]
