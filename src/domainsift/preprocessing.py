"""Feature scaling shared by the distance- and margin-based learners."""

from __future__ import annotations

import numpy as np

from .base import check_is_fitted, check_matrix

# lower bound on the per-column scale; keeps constant columns at exactly 0
STD_FLOOR = 1e-9


class Standardizer:
    """Column-wise z-scoring with the population standard deviation.

    The scale of each column is floored at ``STD_FLOOR``, so a constant
    column maps to exactly 0 (its deviations are exactly zero) instead of
    dividing by zero. Fitted attributes: ``mean_``, ``scale_``,
    ``n_features_in_``.
    """

    FITTED_FIELDS = (("mean_", "float", ("d",)), ("scale_", "positive", ("d",)))

    def fit(self, X, y=None):
        # the column sums run in value order, so the row order cannot move their last bits
        X = np.sort(check_matrix(X), axis=0)
        self.mean_ = X.mean(axis=0)
        self.scale_ = np.maximum(X.std(axis=0), STD_FLOOR)
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X):
        check_is_fitted(self, "mean_")
        X = check_matrix(X, n_features=self.n_features_in_)
        return (X - self.mean_) / self.scale_
