import io

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from domainsift import cluster
from domainsift.analytics import Histogram, default_binning, histogram_pdf
from domainsift.base import NotFittedError, distinct_rows
from domainsift.cluster import (
    KMeans,
    _pairwise_sq,
    cluster_feature_histogram,
    write_centroids_csv,
)
from domainsift.features import FEATURE_NAMES

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

    def test_k_exceeds_points_rejected(self):
        with pytest.raises(ValueError):
            KMeans(k=5).fit(np.zeros((3, 2)))

    def test_k_exceeds_distinct_rows_rejected(self):
        # k clusters need k distinct seeds; with fewer one cluster stays empty forever
        X = np.array([[0.0], [0.0], [9.0], [0.0], [9.0]])
        with pytest.raises(ValueError, match="k=3 distinct feature vectors, got 2 among 5 rows"):
            KMeans(k=3).fit(X)

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
        model = KMeans(k=2, seed=0).fit(X)
        assert model.n_iter_ < cluster.MAX_ITER


class TestClusterReporting:
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
        X = rng.normal(size=(60, 8))
        distinct = distinct_rows(X)
        model = KMeans(k=2, seed=0).fit(distinct)
        labels = model.predict(distinct.rows)
        hist = cluster_feature_histogram(distinct, labels, 1)
        assert set(hist.densities) <= {0, 1}
        assert hist.feature_name == "uniq_chars"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_histograms_match_all_rows(self, data):
        X = data.draw(_duplicated_matrices(), label="X")
        k = data.draw(st.integers(1, min(4, len(distinct_rows(X).rows))), label="k")
        model = KMeans(k=k, seed=0).fit(X)
        distinct = distinct_rows(X)
        labels = model.predict(distinct.rows)
        for j in range(X.shape[1]):
            got = cluster_feature_histogram(distinct, labels, j)
            assert got == _histogram_reference(model, X, j)


# ---------------------------------------------------------------------------
# k-means done row by row, which the weighted fit on distinct rows must match


def _fit_reference(model, X):
    """``KMeans.fit`` done one row at a time: k-means++ draws a row of X, taken in
    lexicographic order, with probability proportional to its squared distance;
    Lloyd's passes assign and sum every row on its own. ``reseeds`` counts the
    emptied clusters re-seeded."""
    n, d = X.shape
    rng = np.random.default_rng(model.seed)
    rows = X[np.lexsort(X.T[::-1])]
    centroids = np.empty((model.k, d))
    near = np.full(n, np.inf)
    weights = np.ones(n)
    for j in range(model.k):
        centroids[j] = rows[rng.choice(n, p=weights / weights.sum())]
        near = np.minimum(near, np.sum((rows - centroids[j]) ** 2, axis=1))
        weights = near if near.any() else np.ones(n)

    path = []
    n_iter = reseeds = 0
    for _ in range(cluster.MAX_ITER):
        d2 = _pairwise_sq(X, centroids)
        labels = np.argmin(d2, axis=1)
        own = d2[np.arange(n), labels]
        path.append(float(own.sum()))
        n_iter += 1

        counts = np.bincount(labels, minlength=model.k)
        new = np.empty_like(centroids)
        for col in range(d):
            sums = np.bincount(labels, weights=X[:, col], minlength=model.k)
            new[:, col] = sums / np.maximum(counts, 1)
        empties = np.nonzero(counts == 0)[0]
        if empties.size:
            reseeds += empties.size
            # farthest first, equal distances in lexicographic order, each distinct row once
            by_distance = X[np.lexsort([*X.T[::-1], -own])]
            _, first = np.unique(by_distance, axis=0, return_index=True)
            new[empties] = by_distance[np.sort(first)[: empties.size]]

        shift = np.sqrt(np.sum((new - centroids) ** 2, axis=1))
        scale = 1.0 + np.sqrt(np.sum(centroids**2, axis=1))
        centroids = new
        if empties.size == 0 and float(np.max(shift / scale)) < cluster.TOL:
            break

    d2 = _pairwise_sq(X, centroids)
    labels = np.argmin(d2, axis=1)
    path.append(float(d2[np.arange(n), labels].sum()))

    order = np.lexsort([centroids[:, j] for j in range(d - 1, -1, -1)])
    rank = np.empty(model.k, dtype=np.int64)
    rank[order] = np.arange(model.k)
    labels = rank[labels]
    return {
        "centroids_": centroids[order],
        "labels_": labels,
        "sizes_": np.bincount(labels, minlength=model.k),
        "inertia_path_": np.asarray(path),
        "n_iter_": n_iter,
        "reseeds": reseeds,
    }


def _histogram_reference(model, X, feature_index):
    """Per-cluster histograms of one full column, every row assigned on its own."""
    labels = model.predict(X)
    column = X[:, feature_index]
    binning = default_binning(column)
    densities = {}
    for c in range(model.centroids_.shape[0]):
        values = column[labels == c]
        if values.size:
            part = histogram_pdf(values, binning=binning,
                                 feature_name=FEATURE_NAMES[feature_index])
            densities[c] = part.densities[None]
    return Histogram(feature_name=FEATURE_NAMES[feature_index], binning=binning,
                     densities=densities)


@st.composite
def _duplicated_matrices(draw):
    """Few distinct rows, each repeated, in shuffled order."""
    d = draw(st.integers(1, 4))
    cells = st.sampled_from([0.0, 1.0, 2.5, -3.0, 7.0, 40.0, 0.125])
    pool = draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=80))
    return np.array([pool[i] for i in picks], dtype=np.float64)


def _assert_matches_reference(model, X):
    """The fit agrees with :func:`_fit_reference` up to the rounding of its weighted
    sums; returns the reference."""
    want = _fit_reference(model, X)
    np.testing.assert_allclose(model.centroids_, want["centroids_"], rtol=1e-12)
    np.testing.assert_allclose(model.inertia_path_, want["inertia_path_"], rtol=1e-12)
    assert model.inertia_ == model.inertia_path_[-1]
    for name in ("labels_", "sizes_", "n_iter_"):
        np.testing.assert_array_equal(getattr(model, name), want[name], err_msg=name)
    return want


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestDistinctRowFit:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_all_rows_fit(self, data):
        X = data.draw(_duplicated_matrices(), label="X")
        k = data.draw(st.integers(1, min(5, len(distinct_rows(X).rows))), label="k")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        model = KMeans(k=k, seed=seed).fit(X)
        _assert_matches_reference(model, X)
        again = KMeans(k=k, seed=seed).fit(distinct_rows(X))
        for name in ("centroids_", "labels_", "sizes_", "inertia_path_", "n_iter_"):
            assert _same_bits(getattr(again, name), getattr(model, name)), name

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_row_order_and_copies_do_not_move_the_fit(self, data):
        X = data.draw(_duplicated_matrices(), label="X")
        k = data.draw(st.integers(1, min(5, len(distinct_rows(X).rows))), label="k")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        perm = np.array(data.draw(st.permutations(range(len(X))), label="perm"))
        model = KMeans(k=k, seed=seed).fit(X)
        shuffled = KMeans(k=k, seed=seed).fit(X[perm])
        for name in ("centroids_", "sizes_", "inertia_path_", "n_iter_"):
            assert _same_bits(getattr(shuffled, name), getattr(model, name)), name
        np.testing.assert_array_equal(shuffled.labels_, model.labels_[perm])
        doubled = KMeans(k=k, seed=seed).fit(np.vstack([X, X]))
        assert _same_bits(doubled.centroids_, model.centroids_)
        assert doubled.n_iter_ == model.n_iter_
        assert _same_bits(doubled.sizes_, 2 * model.sizes_)
        assert _same_bits(doubled.inertia_path_, 2 * model.inertia_path_)

    def test_emptied_cluster_reseed(self):
        # at this seed an update moves a centroid away from every row: it empties and is re-seeded
        X = np.array([[2.0, 9.0], [1.0, 1.0], [8.0, 3.0], [8.0, 3.0],
                      [5.0, 9.0], [7.0, 2.0], [5.0, 9.0], [8.0, 1.0]])
        model = KMeans(k=3, seed=214).fit(X)
        assert _assert_matches_reference(model, X)["reseeds"] > 0

    def test_no_distance_mass_left(self):
        # distinct rows whose squared distances underflow to 0: the k-means++
        # draw finds no distance mass left and draws by the counts alone
        X = np.array([[0.0], [1e-200], [2e-200]])[np.arange(12) % 3]
        model = KMeans(k=3, seed=5).fit(X)
        _assert_matches_reference(model, X)

    def test_random_rows_with_copies(self, rng):
        base = rng.normal(size=(40, 8)) * rng.uniform(0.1, 30.0, size=8)
        X = base[rng.integers(0, 40, size=500)]
        model = KMeans(k=3, seed=11).fit(X)
        _assert_matches_reference(model, X)
