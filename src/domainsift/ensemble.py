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


def majority(votes):
    """1 where more than half of a row's member votes are 1 (3 of 5), else 0."""
    return (2 * votes.sum(axis=1) > votes.shape[1]).astype(np.int64)


class MajorityVoteEnsemble(ParamsMixin):
    """Five classifiers voting; 3 or more positive votes predict DGA.

    The members are the canonical five (c45, knn, logreg, nb, svm) at
    their default hyperparameters; ``seed`` seeds the svm. A member sees
    standardized inputs when its name is in ``SCALED_KINDS``.
    """

    FITTED_FIELDS = (
        ("standardizer_", "standardizer", ()),
        ("members_", "members", ()),
    )

    def __init__(self, seed=0):
        self.seed = seed

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        check_both_classes(y)
        members = [
            ("c45", C45Tree()),
            ("knn", KNNClassifier()),
            ("logreg", LogisticRegressionGD()),
            ("nb", GaussianNaiveBayes()),
            ("svm", PegasosSVM(seed=self.seed)),
        ]
        scaler = Standardizer().fit(X)
        Xs = scaler.transform(X)
        for name, estimator in members:
            try:
                estimator.fit(Xs if name in SCALED_KINDS else X, y)
            except Exception as exc:
                raise RuntimeError(f"training ensemble member {name!r} failed: {exc}") from exc
        self.standardizer_ = scaler
        self.members_ = members
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
        return majority(votes), votes, [name for name, _ in self.members_]
