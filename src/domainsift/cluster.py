"""K-means clustering of feature matrices in raw (unscaled) units.

Lloyd iterations with k-means++ seeding. Cluster indices are canonicalized
after fitting by sorting centroids on the first feature column (domain
length), so cluster 0 is always the short-domain cluster and results are
comparable across runs.
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
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * (X @ C.T)
        + np.sum(C * C, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _assign(rows, inverse, centroids):
    """Each row's nearest centroid and squared distance to it, found per distinct row."""
    d2 = _pairwise_sq(rows, centroids)
    near = np.argmin(d2, axis=1)
    return near[inverse], d2[np.arange(rows.shape[0]), near][inverse]


class KMeans:
    """Lloyd's k-means with seeded k-means++ initialization.

    Convergence: the largest relative centroid displacement
    ``|new - old| / (1 + |old|)`` drops below ``TOL``, or ``MAX_ITER`` update
    passes run. An emptied cluster is re-seeded with the point farthest from
    its assigned centroid.

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

        Distances and assignments run once per distinct row. The sums whose
        rounding depends on row order (centroid coordinates, inertia, the
        k-means++ draw) still run over every row in order, so every fitted
        attribute is bit-identical to assigning each row on its own. There
        must be at least k distinct rows, or some cluster can never be filled.
        """
        if not isinstance(X, DistinctRows):
            X = distinct_rows(check_matrix(X))
        rows, inverse, _ = X
        rows = check_matrix(rows)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if rows.shape[0] < self.k:
            raise ValueError(
                f"need at least k={self.k} distinct feature vectors, got {rows.shape[0]}"
                f" among {inverse.size} rows"
            )

        rng = np.random.default_rng(self.seed)
        centroids = self._init_kmeanspp(rows, inverse, rng)
        path = []
        n_iter = 0
        for _ in range(MAX_ITER):
            labels, own = _assign(rows, inverse, centroids)
            path.append(float(own.sum()))
            n_iter += 1

            counts = np.bincount(labels, minlength=self.k)
            new = np.empty_like(centroids)
            for col, column in enumerate(rows.T):
                sums = np.bincount(labels, weights=column[inverse], minlength=self.k)
                new[:, col] = sums / np.maximum(counts, 1)
            empties = np.nonzero(counts == 0)[0]
            if empties.size:
                farthest = np.argsort(-own)
                for slot, j in enumerate(empties):
                    new[j] = rows[inverse[farthest[slot]]]

            shift = np.sqrt(np.sum((new - centroids) ** 2, axis=1))
            scale = 1.0 + np.sqrt(np.sum(centroids**2, axis=1))
            centroids = new
            if empties.size == 0 and float(np.max(shift / scale)) < TOL:
                break

        labels, own = _assign(rows, inverse, centroids)
        path.append(float(own.sum()))

        order = np.lexsort([centroids[:, j] for j in range(rows.shape[1] - 1, -1, -1)])
        rank = np.empty(self.k, dtype=np.int64)
        rank[order] = np.arange(self.k)
        self.centroids_ = centroids[order]
        self.labels_ = rank[labels]
        self.sizes_ = np.bincount(self.labels_, minlength=self.k)
        self.inertia_ = path[-1]
        self.inertia_path_ = np.asarray(path)
        self.n_iter_ = n_iter
        self.n_features_in_ = rows.shape[1]
        return self

    def _init_kmeanspp(self, rows, inverse, rng):
        n = inverse.size
        centroids = np.empty((self.k, rows.shape[1]))
        centroids[0] = rows[inverse[rng.integers(n)]]
        if self.k == 1:
            return centroids
        near = np.sum((rows - centroids[0]) ** 2, axis=1)
        for j in range(1, self.k):
            d2 = near[inverse]
            total = float(d2.sum())
            if total <= 0.0:
                idx = int(rng.integers(n))  # all remaining mass on duplicates
            else:
                idx = int(rng.choice(n, p=d2 / total))
            centroids[j] = rows[inverse[idx]]
            near = np.minimum(near, np.sum((rows - centroids[j]) ** 2, axis=1))
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
    for c in np.unique(labels).tolist():
        mine = labels == c
        part = histogram_pdf(
            column[mine], binning=binning, feature_name=name, weights=distinct.counts[mine]
        )
        densities[c] = part.densities[None]
    return Histogram(feature_name=name, binning=binning, densities=densities)
