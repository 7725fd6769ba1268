"""Shared estimator plumbing: input validation, distinct rows."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when predict/transform is called on an unfitted estimator."""


def check_is_fitted(estimator, attribute):
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first"
        )


def check_matrix(X, n_features=None):
    """Coerce to a finite 2-D float64 array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got {X.ndim} dimensions")
    if X.shape[0] == 0:
        raise ValueError("X is empty")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(f"X has {X.shape[1]} features, expected {n_features}")
    return X


def check_labels(y, n_samples=None, name="y"):
    """Coerce to a 1-D int array of 0/1 labels."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional")
    if n_samples is not None and y.shape[0] != n_samples:
        raise ValueError(f"{name} has {y.shape[0]} entries, expected {n_samples}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0/1 labels, got {np.unique(y)!r}")
    return y.astype(np.int64)


def check_X_y(X, y, n_features=None):
    X = check_matrix(X, n_features=n_features)
    y = check_labels(y, n_samples=X.shape[0])
    return X, y


def check_both_classes(y):
    if not (np.any(y == 0) and np.any(y == 1)):
        raise ValueError(f"y must contain both classes; got only class {int(y[0])}")


class DistinctRows(NamedTuple):
    """A matrix as its distinct rows: row i of the matrix is ``rows[inverse[i]]``."""

    rows: np.ndarray  # m x d, lexicographic order
    inverse: np.ndarray  # n row numbers into rows
    counts: np.ndarray  # m copies per distinct row


def distinct_rows(X):
    """``np.unique(X, axis=0, return_inverse=True, return_counts=True)``, faster.

    Sorts the row numbers with one ``np.lexsort`` over the columns, first
    column first, and starts a new distinct row wherever two neighbours in
    that order differ in some column.
    """
    X = np.asarray(X)
    n = X.shape[0]
    order = np.lexsort(X.T[::-1])
    starts = np.zeros(n, dtype=bool)
    starts[:1] = True
    for column in X.T:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    first = order[starts]
    return DistinctRows(X[first], inverse, np.diff(np.flatnonzero(starts), append=n))
