"""K-means clustering of feature matrices in raw (unscaled) units.

Lloyd iterations with k-means++ seeding, run on the distinct rows, each
weighted by its count of rows. Cluster indices are canonicalized after
fitting by sorting centroids on the first feature column (domain length),
so cluster 0 is always the short-domain cluster and results are comparable
across runs.
"""

from __future__ import annotations

import csv

import numpy as np

from .base import DistinctRows, check_is_fitted, check_matrix, distinct_rows
from .features import FEATURE_NAMES
from .analytics import Histogram, default_binning, histogram_pdf

MAX_ITER = 300  # most centroid update passes
TOL = 1e-4  # relative centroid displacement at which the passes stop


def _pairwise_sq(X, C):
    """Squared distance of each row of X to each centroid, from the differences."""
    return np.column_stack([np.sum((X - c) ** 2, axis=1) for c in C])


def _assign(rows, centroids):
    """Each row's nearest centroid (ties to the lower index) and squared distance to it."""
    d2 = _pairwise_sq(rows, centroids)
    return np.argmin(d2, axis=1), np.min(d2, axis=1)


class KMeans:
    """Lloyd's k-means with seeded k-means++ initialization.

    Convergence: the largest relative centroid displacement
    ``|new - old| / (1 + |old|)`` drops below ``TOL``, or ``MAX_ITER`` update
    passes run. An emptied cluster is re-seeded with the distinct row
    farthest from its assigned centroid.

    Fitted attributes: ``centroids_`` (k x d, raw units), ``labels_``,
    ``sizes_``, ``inertia_``, ``inertia_path_`` (one value per assignment
    pass, non-increasing), ``n_iter_``.
    """

    FITTED_FIELDS = (
        ("centroids_", "float", ("k", "d")),
        ("sizes_", "count", ("k",)),
        ("inertia_", "float", ()),
        ("inertia_path_", "float", ("passes",)),
        ("n_iter_", "count", ()),
    )

    def __init__(self, k=2, seed=0):
        self.k = k
        self.seed = seed

    def fit(self, X):
        """Fit on a matrix X, or on its :func:`~domainsift.base.distinct_rows`.

        Every pass and draw runs over the distinct rows, each weighted by its
        count of rows, in their canonical order, so the order of the rows
        cannot move a bit of the fit. There must be at least k distinct rows,
        or some cluster can never be filled.
        """
        if not isinstance(X, DistinctRows):
            X = distinct_rows(check_matrix(X))
        rows, inverse, counts = X
        rows = check_matrix(rows)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if rows.shape[0] < self.k:
            raise ValueError(
                f"need at least k={self.k} distinct feature vectors, got {rows.shape[0]}"
                f" among {inverse.size} rows"
            )

        centroids = self._init_kmeanspp(rows, counts, np.random.default_rng(self.seed))
        path = []
        n_iter = 0
        for _ in range(MAX_ITER):
            labels, own = _assign(rows, centroids)
            path.append(float((own * counts).sum()))
            n_iter += 1

            sizes = np.bincount(labels, weights=counts, minlength=self.k)
            new = np.column_stack([
                np.bincount(labels, weights=column * counts, minlength=self.k)
                / np.maximum(sizes, 1)
                for column in rows.T
            ])
            empties = np.flatnonzero(sizes == 0)
            if empties.size:
                new[empties] = rows[np.argsort(-own, kind="stable")[: empties.size]]

            shift = np.sqrt(np.sum((new - centroids) ** 2, axis=1))
            scale = 1.0 + np.sqrt(np.sum(centroids**2, axis=1))
            centroids = new
            if empties.size == 0 and float(np.max(shift / scale)) < TOL:
                break

        labels, own = _assign(rows, centroids)
        path.append(float((own * counts).sum()))

        order = np.lexsort([centroids[:, j] for j in range(rows.shape[1] - 1, -1, -1)])
        rank = np.empty(self.k, dtype=np.int64)
        rank[order] = np.arange(self.k)
        labels = rank[labels]
        self.centroids_ = centroids[order]
        self.labels_ = labels[inverse]
        self.sizes_ = np.bincount(labels, weights=counts, minlength=self.k).astype(np.int64)
        self.inertia_ = path[-1]
        self.inertia_path_ = np.asarray(path)
        self.n_iter_ = n_iter
        self.n_features_in_ = rows.shape[1]
        return self

    def _init_kmeanspp(self, rows, counts, rng):
        """k-means++ over the distinct rows: the first centroid drawn with probability
        proportional to a row's count, each next one to its count times its squared
        distance to the nearest centroid drawn so far (to its count alone once those
        distances underflow to 0)."""
        centroids = np.empty((self.k, rows.shape[1]))
        near = np.full(rows.shape[0], np.inf)
        weights = counts
        for j in range(self.k):
            centroids[j] = rows[rng.choice(rows.shape[0], p=weights / weights.sum())]
            near = np.minimum(near, np.sum((rows - centroids[j]) ** 2, axis=1))
            weights = counts * near if near.any() else counts
        return centroids

    def predict(self, X):
        """Nearest-centroid assignment; distance ties go to the lower index."""
        check_is_fitted(self, "centroids_")
        X = check_matrix(X, n_features=self.n_features_in_)
        return np.argmin(_pairwise_sq(X, self.centroids_), axis=1)


def write_centroids_csv(stream, model):
    """Centroid table, one feature per row and one cluster per column."""
    check_is_fitted(model, "centroids_")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["feature"] + [f"cluster_{c + 1}" for c in range(len(model.centroids_))])
    for name, column in zip(FEATURE_NAMES, model.centroids_.T):
        writer.writerow([name] + [f"{value:.6f}" for value in column])
    writer.writerow(["size"] + [str(int(s)) for s in model.sizes_])


def cluster_feature_histogram(distinct, labels, feature_index):
    """Density histogram of one feature, one curve per cluster, shared bins.

    ``distinct`` is the :func:`~domainsift.features.distinct_features` of the
    clustered names and ``labels`` the cluster of each of its distinct rows;
    each distinct value is binned once, weighted by the rows that hold it.
    """
    name = FEATURE_NAMES[feature_index]
    column = distinct.rows[:, feature_index]
    binning = default_binning(column)
    densities = {}
    for c in np.flatnonzero(np.bincount(labels)).tolist():
        mine = labels == c
        part = histogram_pdf(
            column[mine], binning=binning, feature_name=name, weights=distinct.counts[mine]
        )
        densities[c] = part.densities[None]
    return Histogram(feature_name=name, binning=binning, densities=densities)
