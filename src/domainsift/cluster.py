"""K-means clustering of feature matrices in raw (unscaled) units.

Lloyd iterations with k-means++ seeding. Cluster indices are canonicalized
after fitting by sorting centroids on the first feature column (domain
length), so cluster 0 is always the short-domain cluster and results are
comparable across runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .base import ParamsMixin, check_is_fitted, check_matrix
from .features import FEATURE_NAMES
from .analytics import Histogram, default_binning, histogram_pdf


def _pairwise_sq(X, C):
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * (X @ C.T)
        + np.sum(C * C, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


class KMeans(ParamsMixin):
    """Lloyd's k-means with k-means++ initialization and seeded restarts.

    Convergence: the largest relative centroid displacement
    ``|new - old| / (1 + |old|)`` drops below ``tol``, or ``max_iter`` update
    passes run. An emptied cluster is re-seeded with the point farthest from
    its assigned centroid. With ``n_restarts > 1`` the run with the lowest
    final inertia wins (restart r uses seed + r).

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

    def __init__(self, k=2, seed=0, max_iter=300, tol=1e-4, n_restarts=1):
        self.k = k
        self.seed = seed
        self.max_iter = max_iter
        self.tol = tol
        self.n_restarts = n_restarts

    def fit(self, X):
        X = check_matrix(X)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if X.shape[0] < self.k:
            raise ValueError(f"need at least k={self.k} points, got {X.shape[0]}")
        if self.n_restarts < 1:
            raise ValueError(f"n_restarts must be >= 1, got {self.n_restarts}")

        best = None
        for r in range(self.n_restarts):
            run = self._run(X, self.seed + r)
            if best is None or run["inertia"] < best["inertia"]:
                best = run

        order = np.lexsort([best["centroids"][:, j] for j in range(X.shape[1] - 1, -1, -1)])
        rank = np.empty(self.k, dtype=np.int64)
        rank[order] = np.arange(self.k)
        self.centroids_ = best["centroids"][order]
        self.labels_ = rank[best["labels"]]
        self.sizes_ = np.bincount(self.labels_, minlength=self.k)
        self.inertia_ = best["inertia"]
        self.inertia_path_ = np.asarray(best["path"])
        self.n_iter_ = best["n_iter"]
        self.n_features_in_ = X.shape[1]
        return self

    def _run(self, X, seed):
        n, d = X.shape
        rng = np.random.default_rng(seed)
        centroids = self._init_kmeanspp(X, rng)
        path = []
        n_iter = 0
        for _ in range(self.max_iter):
            d2 = _pairwise_sq(X, centroids)
            labels = np.argmin(d2, axis=1)
            path.append(float(d2[np.arange(n), labels].sum()))
            n_iter += 1

            counts = np.bincount(labels, minlength=self.k)
            new = np.empty_like(centroids)
            for col in range(d):
                sums = np.bincount(labels, weights=X[:, col], minlength=self.k)
                new[:, col] = sums / np.maximum(counts, 1)
            empties = np.nonzero(counts == 0)[0]
            if empties.size:
                own = d2[np.arange(n), labels]
                farthest = np.argsort(-own)
                for slot, j in enumerate(empties):
                    new[j] = X[farthest[slot]]

            shift = np.sqrt(np.sum((new - centroids) ** 2, axis=1))
            scale = 1.0 + np.sqrt(np.sum(centroids**2, axis=1))
            centroids = new
            if empties.size == 0 and float(np.max(shift / scale)) < self.tol:
                break

        d2 = _pairwise_sq(X, centroids)
        labels = np.argmin(d2, axis=1)
        path.append(float(d2[np.arange(n), labels].sum()))
        return {
            "centroids": centroids,
            "labels": labels,
            "inertia": path[-1],
            "path": path,
            "n_iter": n_iter,
        }

    def _init_kmeanspp(self, X, rng):
        n = X.shape[0]
        centroids = np.empty((self.k, X.shape[1]))
        centroids[0] = X[rng.integers(n)]
        if self.k == 1:
            return centroids
        d2 = np.sum((X - centroids[0]) ** 2, axis=1)
        for j in range(1, self.k):
            total = float(d2.sum())
            if total <= 0.0:
                idx = int(rng.integers(n))  # all remaining mass on duplicates
            else:
                idx = int(rng.choice(n, p=d2 / total))
            centroids[j] = X[idx]
            d2 = np.minimum(d2, np.sum((X - centroids[j]) ** 2, axis=1))
        return centroids

    def predict(self, X):
        """Nearest-centroid assignment; distance ties go to the lower index."""
        check_is_fitted(self, "centroids_")
        X = check_matrix(X, n_features=self.n_features_in_)
        return np.argmin(_pairwise_sq(X, self.centroids_), axis=1)

    def fit_predict(self, X):
        return self.fit(X).labels_


@dataclass(frozen=True, slots=True)
class ClusterReport:
    sizes: np.ndarray
    means: np.ndarray  # k x d per-cluster feature means, raw units
    inertia: float


def cluster_report(model, X):
    """Re-assign X and report per-cluster sizes and raw-unit feature means."""
    X = check_matrix(X, n_features=model.n_features_in_)
    labels = model.predict(X)
    k = model.centroids_.shape[0]
    sizes = np.bincount(labels, minlength=k)
    means = np.zeros_like(model.centroids_)
    for c in range(k):
        if sizes[c]:
            means[c] = X[labels == c].mean(axis=0)
    d2 = _pairwise_sq(X, model.centroids_)
    inertia = float(d2[np.arange(X.shape[0]), labels].sum())
    return ClusterReport(sizes=sizes, means=means, inertia=inertia)


def write_centroids_csv(stream, model, names=FEATURE_NAMES):
    """Centroid table, one feature per row and one cluster per column."""
    check_is_fitted(model, "centroids_")
    k = model.centroids_.shape[0]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["feature"] + [f"cluster_{c + 1}" for c in range(k)])
    for j, name in enumerate(names[: model.centroids_.shape[1]]):
        writer.writerow([name] + [f"{model.centroids_[c, j]:.6f}" for c in range(k)])
    writer.writerow(["size"] + [str(int(s)) for s in model.sizes_])


def cluster_feature_histogram(model, X, feature_index, names=FEATURE_NAMES):
    """Density histogram of one feature, one curve per cluster, shared bins."""
    X = check_matrix(X, n_features=model.n_features_in_)
    labels = model.predict(X)
    column = X[:, feature_index]
    binning = default_binning(column)
    densities = {}
    for c in range(model.centroids_.shape[0]):
        values = column[labels == c]
        if values.size == 0:
            continue
        part = histogram_pdf(values, binning=binning, feature_name=names[feature_index])
        densities[c] = part.densities[None]
    return Histogram(feature_name=names[feature_index], binning=binning, densities=densities)
