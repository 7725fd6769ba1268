import io

import numpy as np
import pytest

from domainsift.base import NotFittedError
from domainsift.cluster import (
    KMeans,
    cluster_feature_histogram,
    cluster_report,
    write_centroids_csv,
)

from conftest import roundtrip


class TestKMeans:
    def test_two_obvious_groups(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        model = KMeans(k=2, seed=0).fit(X)
        np.testing.assert_allclose(sorted(model.centroids_.ravel()), [0.05, 10.05])
        assert sorted(model.sizes_.tolist()) == [2, 2]

    def test_canonical_order_by_first_column(self, rng):
        X = np.vstack([
            rng.normal(loc=(20.0, 0.0), size=(40, 2)),
            rng.normal(loc=(5.0, 3.0), size=(40, 2)),
        ])
        model = KMeans(k=2, seed=1).fit(X)
        assert model.centroids_[0, 0] < model.centroids_[1, 0]

    def test_labels_match_canonical_centroids(self):
        X = np.array([[10.0], [0.0], [10.1], [0.1]])
        model = KMeans(k=2, seed=4).fit(X)
        assert model.labels_.tolist() == [1, 0, 1, 0]

    def test_predict_matches_fit_labels(self, rng):
        X = rng.normal(size=(120, 3))
        model = KMeans(k=3, seed=0).fit(X)
        np.testing.assert_array_equal(model.predict(X), model.labels_)

    def test_inertia_path_non_increasing(self, rng):
        for trial in range(20):
            n = int(rng.integers(10, 80))
            d = int(rng.integers(1, 6))
            k = int(rng.integers(2, min(6, n)))
            X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
            model = KMeans(k=k, seed=trial).fit(X)
            path = model.inertia_path_
            assert all(a >= b - 1e-9 for a, b in zip(path, path[1:])), trial
            assert model.inertia_ == pytest.approx(path[-1])

    def test_seed_determinism(self, rng):
        X = rng.normal(size=(60, 4))
        a = KMeans(k=3, seed=7).fit(X)
        b = KMeans(k=3, seed=7).fit(X)
        np.testing.assert_array_equal(a.centroids_, b.centroids_)
        np.testing.assert_array_equal(a.labels_, b.labels_)

    def test_restarts_never_worse(self, rng):
        X = rng.normal(size=(80, 2))
        single = KMeans(k=4, seed=11, n_restarts=1).fit(X)
        multi = KMeans(k=4, seed=11, n_restarts=8).fit(X)
        assert multi.inertia_ <= single.inertia_ + 1e-9

    def test_k_exceeds_points_rejected(self):
        with pytest.raises(ValueError):
            KMeans(k=5).fit(np.zeros((3, 2)))

    def test_duplicate_points_fill_all_clusters(self):
        # more clusters than distinct points forces empty-cluster handling
        X = np.array([[0.0], [0.0], [0.0], [9.0], [9.0]])
        model = KMeans(k=2, seed=0).fit(X)
        assert model.sizes_.min() >= 1
        assert model.sizes_.sum() == 5

    def test_single_cluster(self, rng):
        X = rng.normal(size=(30, 2))
        model = KMeans(k=1, seed=0).fit(X)
        np.testing.assert_allclose(model.centroids_[0], X.mean(axis=0), atol=1e-9)

    def test_inertia_is_sum_of_squares(self):
        X = np.array([[0.0], [2.0], [10.0], [12.0]])
        model = KMeans(k=2, seed=0).fit(X)
        # each cluster: two points 1 away from their mean -> 4 * 1^2
        assert model.inertia_ == pytest.approx(4.0)

    def test_state_roundtrip(self, rng, tmp_path):
        X = rng.normal(size=(50, 3))
        model = KMeans(k=2, seed=3).fit(X)
        clone = roundtrip(model, tmp_path)
        np.testing.assert_array_equal(model.predict(X), clone.predict(X))
        np.testing.assert_array_equal(model.centroids_, clone.centroids_)

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            KMeans().predict(np.zeros((1, 2)))

    def test_convergence_before_max_iter(self, rng):
        X = rng.normal(size=(100, 2))
        model = KMeans(k=2, seed=0, max_iter=300).fit(X)
        assert model.n_iter_ < 300


class TestClusterReporting:
    def test_report_shapes(self, rng):
        X = rng.normal(size=(40, 3))
        model = KMeans(k=2, seed=0).fit(X)
        report = cluster_report(model, X)
        assert report.sizes.sum() == 40
        assert report.means.shape == (2, 3)
        assert report.inertia == pytest.approx(model.inertia_)

    def test_centroids_csv(self, rng):
        X = np.abs(rng.normal(size=(30, 8))) + np.arange(8)
        model = KMeans(k=2, seed=0).fit(X)
        buf = io.StringIO()
        write_centroids_csv(buf, model)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "feature,cluster_1,cluster_2"
        assert lines[1].startswith("len,")
        assert lines[-1].startswith("size,")
        sizes = [int(v) for v in lines[-1].split(",")[1:]]
        assert sum(sizes) == 30

    def test_cluster_histogram_keys(self, rng):
        X = rng.normal(size=(60, 2)) + np.array([[0.0, 0.0]])
        model = KMeans(k=2, seed=0).fit(X)
        hist = cluster_feature_histogram(model, X, 0, names=("a", "b"))
        assert set(hist.densities) <= {0, 1}
        assert hist.feature_name == "a"
