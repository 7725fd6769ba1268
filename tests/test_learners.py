import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainsift import learners
from domainsift.base import NotFittedError
from domainsift.learners import (
    C45Tree,
    GaussianNaiveBayes,
    KNNClassifier,
    LogisticRegressionGD,
    PegasosSVM,
    pessimistic_extra_errors,
)

from conftest import roundtrip, saved_bytes

SEP_X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
SEP_Y = np.array([0, 0, 1, 1])

ALL_LEARNERS = [
    C45Tree,
    KNNClassifier,
    LogisticRegressionGD,
    GaussianNaiveBayes,
    PegasosSVM,
]


@pytest.mark.parametrize("cls", ALL_LEARNERS)
class TestCommonBehavior:
    def test_separable_fixture(self, cls):
        kwargs = {"k": 3} if cls is KNNClassifier else {}
        model = cls(**kwargs).fit(SEP_X, SEP_Y)
        assert (model.predict(SEP_X) == SEP_Y).all()

    def test_blobs(self, cls, blobs):
        X, y = blobs
        model = cls().fit(X, y)
        assert (model.predict(X) == y).mean() >= 0.95

    def test_predict_before_fit(self, cls):
        with pytest.raises(NotFittedError):
            cls().predict(np.zeros((1, 2)))

    def test_feature_mismatch(self, cls, blobs):
        X, y = blobs
        model = cls().fit(X, y)
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, X.shape[1] + 1)))

    def test_rejects_non_finite(self, cls, blobs):
        X, y = blobs
        model = cls().fit(X, y)
        bad = np.zeros((1, X.shape[1]))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            model.predict(bad)

    def test_state_roundtrip(self, cls, blobs, tmp_path):
        X, y = blobs
        model = cls().fit(X, y)
        clone = roundtrip(model, tmp_path)
        np.testing.assert_array_equal(model.predict(X), clone.predict(X))

    def test_empty_data(self, cls):
        with pytest.raises(ValueError):
            cls().fit(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))


class TestPessimisticErrors:
    # frozen against an independent transcription of the classic C4.5 bound
    @pytest.mark.parametrize(
        "n,e,expected",
        [
            (1, 0, 0.75),
            (2, 0, 1.0),
            (5, 0, 1.2107085837),
            (2, 1, 0.7914930432),
            (4, 2, 1.0698714948),
            (10, 3, 1.5623690876),
            (100, 10, 2.7496114512),
            (7, 6, 0.7984304473),
        ],
    )
    def test_frozen_values(self, n, e, expected):
        assert pessimistic_extra_errors(n, e, 0.25) == pytest.approx(expected, abs=1e-9)

    def test_all_errors(self):
        assert pessimistic_extra_errors(4, 4, 0.25) == 0.0

    def test_monotone_in_confidence(self):
        # lower cf = more pessimistic = more extra errors
        assert pessimistic_extra_errors(10, 2, 0.1) > pessimistic_extra_errors(10, 2, 0.4)


def two_walk_prune(node, cf):
    """Reference pruning: prune the children, then walk the pruned subtree
    again for its pessimistic estimate (quadratic in the depth)."""
    if node.is_leaf:
        return
    two_walk_prune(node.left, cf)
    two_walk_prune(node.right, cf)
    as_leaf = node.n_errors + pessimistic_extra_errors(node.n_samples, node.n_errors, cf)
    if as_leaf <= subtree_estimate(node, cf) + 1e-9:
        node.feature = node.threshold = node.left = node.right = None


def subtree_estimate(node, cf):
    if node.is_leaf:
        return node.n_errors + pessimistic_extra_errors(node.n_samples, node.n_errors, cf)
    return subtree_estimate(node.left, cf) + subtree_estimate(node.right, cf)


def node_fields(node):
    """Every stored field of the tree at ``node``, nested."""
    if node.is_leaf:
        return (node.prediction, node.n_samples, node.n_errors)
    return (node.prediction, node.n_samples, node.n_errors, node.feature, node.threshold,
            node_fields(node.left), node_fields(node.right))


class TestC45Tree:
    def test_single_threshold_split(self):
        X = np.array([[1.0], [2.0], [8.0], [9.0]])
        y = np.array([0, 0, 1, 1])
        tree = C45Tree().fit(X, y)
        assert tree.depth_ == 1 and tree.n_nodes_ == 3
        assert tree.tree_.threshold == pytest.approx(5.0)
        assert (tree.predict(X) == y).all()

    def test_constant_labels(self):
        X = np.arange(8.0).reshape(-1, 1)
        tree = C45Tree().fit(X, np.ones(8, dtype=np.int64))
        assert tree.depth_ == 0
        assert (tree.predict(X) == 1).all()

    def test_xor(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = C45Tree().fit(X, y)
        assert tree.depth_ == 2
        assert (tree.predict(X) == y).all()

    def test_single_sample(self):
        tree = C45Tree().fit(np.array([[3.0]]), np.array([1]))
        assert tree.predict(np.array([[0.0], [100.0]])).tolist() == [1, 1]

    def test_majority_tie_is_class_zero(self):
        # duplicate points, one of each class: unsplittable, tie -> 0
        X = np.array([[1.0], [1.0]])
        tree = C45Tree().fit(X, np.array([0, 1]))
        assert tree.predict(X).tolist() == [0, 0]

    def test_max_depth_cap(self, rng):
        X = rng.normal(size=(200, 4))
        y = rng.integers(0, 2, size=200)
        y[:2] = [0, 1]
        tree = C45Tree(max_depth=3, prune=False).fit(X, y)
        assert tree.depth_ <= 3

    def test_min_leaf_respected_on_large_nodes(self, rng):
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=300) > 0).astype(np.int64)
        tree = C45Tree(min_leaf=20, prune=False).fit(X, y)

        def check(node, n):
            if node.is_leaf:
                # relaxation only kicks in below 2*min_leaf
                assert node.n_samples >= min(20, max(1, n // 2))
                return
            check(node.left, node.n_samples)
            check(node.right, node.n_samples)

        check(tree.tree_, 300)

    def test_pruning_shrinks_noisy_tree(self, rng):
        X = rng.normal(size=(300, 4))
        y = rng.integers(0, 2, size=300)  # pure noise
        y[:2] = [0, 1]
        full = C45Tree(prune=False).fit(X, y)
        pruned = C45Tree(prune=True).fit(X, y)
        assert pruned.n_nodes_ <= full.n_nodes_

    def test_pruning_keeps_real_structure(self):
        X = np.array([[1.0], [2.0], [8.0], [9.0]] * 10)
        y = np.array([0, 0, 1, 1] * 10)
        tree = C45Tree(prune=True).fit(X, y)
        assert tree.depth_ >= 1
        assert (tree.predict(X) == y).all()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            C45Tree(min_leaf=0).fit(SEP_X, SEP_Y)
        with pytest.raises(ValueError):
            C45Tree(cf=0.9).fit(SEP_X, SEP_Y)

    def test_deterministic(self, blobs, tmp_path):
        X, y = blobs
        a = C45Tree().fit(X, y)
        b = C45Tree().fit(X, y)
        assert saved_bytes(a, tmp_path / "a.dsmodel") == saved_bytes(b, tmp_path / "b.dsmodel")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_prune_matches_two_walk_reference(self, data):
        n = data.draw(st.integers(1, 80), label="n")
        d = data.draw(st.integers(1, 3), label="d")
        cells = st.integers(0, 6).map(float)
        X = np.array(data.draw(st.lists(st.lists(cells, min_size=d, max_size=d),
                                        min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        params = {"min_leaf": data.draw(st.integers(1, 4), label="min_leaf"),
                  "cf": data.draw(st.floats(0.01, 0.49), label="cf")}
        full = C45Tree(prune=False, **params).fit(X, y)
        expected = copy.deepcopy(full.tree_)
        two_walk_prune(expected, params["cf"])
        pruned = C45Tree(prune=True, **params).fit(X, y)
        assert node_fields(pruned.tree_) == node_fields(expected)


class TestKNN:
    def test_equidistant_votes(self):
        # three training points all at distance 1 from the origin query
        X = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1, 1, 0])
        model = KNNClassifier(k=3).fit(X, y)
        assert model.predict(np.array([[0.0, 0.0]]))[0] == 1

    def test_k1_self_classification(self, blobs):
        X, y = blobs
        model = KNNClassifier(k=1).fit(X, y)
        assert (model.predict(X) == y).all()

    def test_k_equals_n_is_majority(self):
        X = np.arange(5.0).reshape(-1, 1)
        y = np.array([0, 0, 0, 1, 1])
        model = KNNClassifier(k=5).fit(X, y)
        assert (model.predict(X) == 0).all()

    def test_k_too_large_suggests_smaller(self):
        with pytest.raises(ValueError, match="smaller k"):
            KNNClassifier(k=10).fit(SEP_X, SEP_Y)

    def test_distance_tie_prefers_lower_index(self):
        # four identical points; k=3 must take indices 0,1,2 -> labels 0,0,1 -> 0
        X = np.zeros((4, 2))
        y = np.array([0, 0, 1, 1])
        model = KNNClassifier(k=3).fit(X, y)
        assert model.predict(np.zeros((1, 2)))[0] == 0

    def test_chunked_matches_unchunked(self, blobs, monkeypatch):
        X, y = blobs
        a = KNNClassifier(k=5).fit(X, y).predict(X)
        # blocks of 7 query rows instead of one block for all 120
        monkeypatch.setattr(learners, "KNN_BLOCK_CELLS", 7 * X.shape[0])
        b = KNNClassifier(k=5).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_even_k_tie_falls_to_zero(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([0, 1])
        model = KNNClassifier(k=2).fit(X, y)
        assert model.predict(np.array([[1.0]]))[0] == 0

    def test_stores_distinct_rows(self):
        X = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        y = np.array([1, 0, 0, 1, 0])
        model = KNNClassifier(k=3).fit(X, y)
        np.testing.assert_array_equal(model.X_, [[0.0, 0.0], [1.0, 2.0]])
        np.testing.assert_array_equal(model.X_[model.row_], X)
        np.testing.assert_array_equal(model.y_, y)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_all_rows_oracle(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        d = data.draw(st.integers(1, 3), label="d")
        # few values per cell, so rows repeat, often with conflicting labels
        cells = st.integers(-2, 2).map(float)
        X = np.array(data.draw(st.lists(st.lists(cells, min_size=d, max_size=d),
                                        min_size=n, max_size=n), label="X"))
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        order = np.array(data.draw(st.permutations(range(n)), label="order"))
        k = data.draw(st.integers(1, min(9, n)), label="k")
        model = KNNClassifier(k=k).fit(X[order], y[order])
        if data.draw(st.booleans(), label="edited"):
            # what a hand-edited file may hold: stored row 0 duplicated and used by
            # some of its training rows, plus a stored row no training row uses
            m = model.X_.shape[0]
            model.X_ = np.vstack([model.X_, model.X_[:1], np.full((1, d), 7.0)])
            moved = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            model.row_ = np.where(moved & (model.row_ == 0), m, model.row_)
        queries = np.vstack([X, np.array(data.draw(st.lists(
            st.lists(cells, min_size=d, max_size=d), min_size=1, max_size=10), label="Q"))])
        np.testing.assert_array_equal(
            model.predict(queries),
            _knn_reference(model.X_[model.row_], model.y_, k, queries),
        )


def _knn_reference(X_train, y_train, k, X):
    """The vote over every training row, scored one by one, that
    KNNClassifier.predict must reproduce from its distinct rows."""
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * (X @ X_train.T)
        + np.sum(X_train * X_train, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    out = np.empty(X.shape[0], dtype=np.int64)
    for i, row in enumerate(d2):
        kth = np.partition(row, k - 1)[k - 1] if k < row.size else row.max()
        closer = row < kth
        at_kth = row == kth
        # fill remaining slots with the lowest-index points at the k-th distance
        take = at_kth & (np.cumsum(at_kth) <= k - int(closer.sum()))
        out[i] = 1 if 2 * int(y_train[closer | take].sum()) > k else 0
    return out


def _logreg_reference(X, y, lr=0.1, epochs=500, l2=1e-4, tol=1e-6):
    """Gradient descent over every row, the loop LogisticRegressionGD.fit
    must reproduce: ``(coef, intercept, n_iter)``."""
    w = np.zeros(X.shape[1])
    b = 0.0
    n_iter = 0
    for _ in range(epochs):
        residual = learners._sigmoid(X @ w + b) - y
        grad_w = X.T @ residual / y.size + l2 * w
        grad_b = float(residual.mean())
        if math.sqrt(float(grad_w @ grad_w) + grad_b * grad_b) < tol:
            break
        w -= lr * grad_w
        b -= lr * grad_b
        n_iter += 1
    return w, b, n_iter


def _pegasos_reference(X, y, lam=1e-4, epochs=50, seed=0):
    """The per-step Pegasos loop, scaling w at every step, that
    PegasosSVM.fit must reproduce: ``(coef, intercept, n_iter)``."""
    n, d = X.shape
    y_pm = 2.0 * y - 1.0
    w = np.zeros(d + 1)  # trailing slot is the bias weight
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = y_pm[i] * (X[i] @ w[:-1] + w[-1])
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w[:-1] += eta * y_pm[i] * X[i]
                w[-1] += eta * y_pm[i]
    return w[:-1], float(w[-1]), t


class TestLogisticRegression:
    def test_separable(self):
        model = LogisticRegressionGD().fit(SEP_X, SEP_Y)
        assert (model.predict(SEP_X) == SEP_Y).all()

    def test_symmetric_bias_near_zero(self):
        model = LogisticRegressionGD().fit(SEP_X, SEP_Y)
        assert abs(model.intercept_) < 1e-3

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(5):
            n, d = int(rng.integers(5, 25)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n)
            model = LogisticRegressionGD()
            w = rng.normal(size=d)
            b = float(rng.normal())
            # uniform rows (the mean), then the non-uniform shares fit passes
            for share in (None, rng.dirichlet(np.ones(n))):
                grad_w, grad_b = model.gradient(X, y, w, b, share)
                h = 1e-6
                for i in range(d):
                    wp, wm = w.copy(), w.copy()
                    wp[i] += h
                    wm[i] -= h
                    fd = model.loss(X, y, wp, b, share) - model.loss(X, y, wm, b, share)
                    assert grad_w[i] == pytest.approx(fd / (2 * h), abs=1e-5)
                fd_b = model.loss(X, y, w, b + h, share) - model.loss(X, y, w, b - h, share)
                assert grad_b == pytest.approx(fd_b / (2 * h), abs=1e-5)

    @pytest.mark.parametrize("data", ["blobs", "repeated"])
    def test_matches_full_row_descent(self, blobs, data):
        if data == "blobs":
            X, y = blobs
        else:
            g = np.random.default_rng(7)
            X = g.integers(0, 3, size=(400, 3)).astype(np.float64)
            y = (X.sum(axis=1) + g.integers(0, 2, size=400) > 3).astype(np.int64)
        model = LogisticRegressionGD().fit(X, y)
        coef, intercept, n_iter = _logreg_reference(X, y)
        np.testing.assert_allclose(model.coef_, coef, rtol=0, atol=1e-12)
        assert model.intercept_ == pytest.approx(intercept, rel=0, abs=1e-12)
        assert model.n_iter_ == n_iter

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_row_order_and_multiplicity_ignored(self, data):
        n = data.draw(st.integers(2, 30))
        d = data.draw(st.integers(1, 4))
        X = np.array(
            data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                               min_size=n, max_size=n)),
            dtype=np.float64,
        )
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        y[:2] = [0, 1]
        order = np.array(data.draw(st.permutations(range(n))))
        base = LogisticRegressionGD(epochs=50).fit(X, y)
        for X2, y2 in ((X[order], y[order]), (np.repeat(X, 2, axis=0), np.repeat(y, 2))):
            other = LogisticRegressionGD(epochs=50).fit(X2, y2)
            assert other.coef_.tobytes() == base.coef_.tobytes()
            assert other.intercept_ == base.intercept_

    def test_loss_curve_decreases(self, blobs):
        X, y = blobs
        model = LogisticRegressionGD().fit(X, y)
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            LogisticRegressionGD().fit(SEP_X, np.zeros(4, dtype=np.int64))

    def test_probabilities_in_range(self, blobs):
        X, y = blobs
        p = LogisticRegressionGD().fit(X, y).predict_proba(X)
        assert p.shape == (X.shape[0],)
        assert ((p >= 0) & (p <= 1)).all()

    def test_deterministic(self, blobs):
        X, y = blobs
        a = LogisticRegressionGD().fit(X, y)
        b = LogisticRegressionGD().fit(X, y)
        np.testing.assert_array_equal(a.coef_, b.coef_)
        assert a.intercept_ == b.intercept_


class TestGaussianNB:
    def test_separable(self, blobs):
        X, y = blobs
        model = GaussianNaiveBayes().fit(X, y)
        assert (model.predict(X) == y).mean() >= 0.99

    def test_hand_log_density(self):
        # 1-D, class 0 = {0, 2}, class 1 = {10, 14}
        X = np.array([[0.0], [2.0], [10.0], [14.0]])
        y = np.array([0, 0, 1, 1])
        model = GaussianNaiveBayes().fit(X, y)
        overall_var = X.var()
        eps = 1e-9 * overall_var
        query = np.array([[3.0]])
        jll = model.joint_log_likelihood(query)
        for cls, (mu, var) in enumerate([(1.0, 1.0 + eps), (12.0, 4.0 + eps)]):
            want = (
                math.log(0.5)
                - 0.5 * math.log(2 * math.pi * var)
                - (3.0 - mu) ** 2 / (2 * var)
            )
            assert jll[0, cls] == pytest.approx(want, abs=1e-9)

    def test_identical_stats_predicts_prior(self):
        X = np.array([[0.0], [1.0]] * 3)
        y = np.array([0, 0, 1, 1, 0, 0])
        model = GaussianNaiveBayes().fit(X, y)
        assert (model.predict(np.array([[0.3], [0.9], [5.0]])) == 0).all()

    def test_constant_feature_survives(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 10.0], [1.0, 11.0]])
        y = np.array([0, 0, 1, 1])
        model = GaussianNaiveBayes().fit(X, y)
        assert (model.predict(X) == y).all()

    def test_tie_prefers_zero(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([0, 1])
        model = GaussianNaiveBayes().fit(X, y)
        assert model.predict(np.array([[0.0]]))[0] == 0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            GaussianNaiveBayes().fit(SEP_X, np.ones(4, dtype=np.int64))

    def test_proba_agrees_with_predictions(self, blobs):
        X, y = blobs
        model = GaussianNaiveBayes().fit(X, y)
        p = model.predict_proba(X)
        assert p.shape == (X.shape[0],)
        assert ((p >= 0) & (p <= 1)).all()
        np.testing.assert_array_equal(model.predict(X), (p > 0.5).astype(np.int64))


class TestPegasosSVM:
    def test_separable(self):
        model = PegasosSVM().fit(SEP_X, SEP_Y)
        assert (model.predict(SEP_X) == SEP_Y).all()

    def test_label_flip_flips_outputs(self):
        a = PegasosSVM(seed=3).fit(SEP_X, SEP_Y).predict(SEP_X)
        b = PegasosSVM(seed=3).fit(SEP_X, 1 - SEP_Y).predict(SEP_X)
        np.testing.assert_array_equal(b, 1 - a)

    def test_objective_improves_over_zero_weights(self, rng):
        for seed in range(5):
            X = rng.normal(size=(40, 3))
            y = (X @ np.array([1.0, -2.0, 0.5]) > 0).astype(np.int64)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            model = PegasosSVM(seed=seed).fit(X, y)
            # objective at w=0 is exactly 1 (all margins are 0)
            assert model.hinge_objective(X, y) < 1.0

    def test_seed_determinism(self, blobs):
        X, y = blobs
        a = PegasosSVM(seed=9).fit(X, y)
        b = PegasosSVM(seed=9).fit(X, y)
        np.testing.assert_array_equal(a.coef_, b.coef_)
        assert a.intercept_ == b.intercept_

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            PegasosSVM().fit(SEP_X, np.zeros(4, dtype=np.int64))

    @pytest.mark.parametrize(
        "case",
        [
            ("blobs", {}),
            ("blobs", {"epochs": 1, "seed": 4}),
            ("two_rows", {}),
            ("two_rows", {"epochs": 1}),
            ("repeated", {"epochs": 5, "lam": 1e-2}),
        ],
        ids=["blobs", "blobs-1-epoch", "two-rows", "two-rows-1-epoch", "repeated"],
    )
    def test_matches_per_step_loop(self, blobs, case):
        data, params = case
        if data == "blobs":
            X, y = blobs
        elif data == "two_rows":
            # one epoch of two rows: the first step must update from w = 0
            X, y = np.array([[0.5, 2.0], [1.5, -1.0]]), np.array([0, 1])
        else:
            g = np.random.default_rng(3)
            X = g.integers(-2, 3, size=(300, 2)).astype(np.float64)
            y = (X[:, 0] - X[:, 1] + g.normal(size=300) > 0).astype(np.int64)
        model = PegasosSVM(**params).fit(X, y)
        coef, intercept, n_iter = _pegasos_reference(X, y, **params)
        np.testing.assert_allclose(model.coef_, coef, rtol=1e-9)
        assert model.intercept_ == pytest.approx(intercept, rel=1e-9)
        assert model.n_iter_ == n_iter
        ref = (X @ coef + intercept > 0.0).astype(np.int64)
        np.testing.assert_array_equal(model.predict(X), ref)

    def test_sign_zero_is_class_zero(self, blobs):
        X, y = blobs
        model = PegasosSVM().fit(X, y)
        model.coef_ = np.zeros_like(model.coef_)
        model.intercept_ = 0.0
        assert (model.predict(X) == 0).all()
