"""Five from-scratch binary classifiers sharing a fit/predict interface.

All operate on numeric feature matrices and 0/1 labels (1 = DGA). Each is
implemented directly on numpy: a C4.5-style decision tree, k-nearest
neighbours, full-batch logistic regression, Gaussian naive Bayes, and a
linear SVM trained with the Pegasos stochastic subgradient method.

The tree and naive Bayes are scale-free; the distance- and margin-based
learners (knn, logreg, svm) expect standardized inputs, which the ensemble
layer applies for them.
"""

from __future__ import annotations

import math
import numbers
from operator import add, mul
from statistics import NormalDist

import numpy as np

from .base import (
    ParamsMixin,
    check_both_classes,
    check_is_fitted,
    check_matrix,
    check_X_y,
    distinct_rows,
)

_EPS = 1e-12

# cells of the query-by-stored-row distance block kNN holds at once (32 MB of float64)
KNN_BLOCK_CELLS = 4_000_000


def _validate_fit(estimator, X, y, require_both_classes=False):
    X, y = check_X_y(X, y)
    if require_both_classes:
        check_both_classes(y)
    estimator.n_features_in_ = X.shape[1]
    return X, y


def _validate_predict(estimator, X):
    check_is_fitted(estimator, "n_features_in_")
    return check_matrix(X, n_features=estimator.n_features_in_)


# ---------------------------------------------------------------------------
# C4.5-style decision tree


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "prediction", "n_samples", "n_errors")

    def __init__(self, prediction, n_samples, n_errors):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.prediction = prediction
        self.n_samples = n_samples
        self.n_errors = n_errors

    @property
    def is_leaf(self):
        return self.feature is None


def _entropy_from_counts(c0, c1):
    """Shannon entropy (bits) of two-class counts; vectorized, 0*log0 = 0."""
    c0 = np.asarray(c0, dtype=np.float64)
    c1 = np.asarray(c1, dtype=np.float64)
    n = c0 + c1
    out = np.zeros_like(n)
    valid = n > 0
    for c in (c0, c1):
        p = np.zeros_like(n)
        np.divide(c, n, out=p, where=valid)
        term = np.zeros_like(n)
        pos = p > 0
        term[pos] = p[pos] * np.log2(p[pos])
        out -= term
    return out


def pessimistic_extra_errors(n, e, cf):
    """Upper confidence bound on extra errors for a leaf (Wilson-style).

    Given n training samples with e misclassified, returns how many errors
    to add so the total is an upper bound at confidence factor ``cf``. The
    formula matches the classic C4.5 error-based pruning estimate: the
    continuity-corrected normal bound on the binomial error rate, with a
    closed form for the zero-error case.
    """
    n = float(n)
    e = float(e)
    if n <= 0:
        return 0.0
    if e == 0.0:
        return n * (1.0 - cf ** (1.0 / n))
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = NormalDist().inv_cdf(1.0 - cf)
    f = (e + 0.5) / n
    r = (f + z * z / (2.0 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4.0 * n * n))) / (
        1.0 + z * z / n
    )
    return r * n - e


class C45Tree(ParamsMixin):
    """Binary decision tree with gain-ratio splits and pessimistic pruning.

    Numeric thresholds are midpoints between consecutive distinct sorted
    values; the split maximizing gain ratio wins, with ties broken toward
    the lowest feature index and then the lowest threshold. Zero-gain splits
    are permitted (required for parity problems, where no single feature has
    positive gain) and pruning later removes the useless ones. Pruning
    replaces a subtree by a leaf when the leaf's pessimistic error estimate
    at confidence ``cf`` does not exceed the subtree's.

    Each child of a split must hold at least ``min_leaf`` samples; on nodes
    smaller than ``2 * min_leaf`` the requirement relaxes to half the node
    size, so tiny datasets can still be partitioned down to pure leaves.

    Single-class and even single-row training data are legal and produce a
    constant predictor.
    """

    FITTED_FIELDS = (("tree_", "node", ()),)

    def __init__(self, max_depth=25, min_leaf=5, cf=0.25, prune=True):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.cf = cf
        self.prune = prune

    def fit(self, X, y):
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if not 0.0 < self.cf < 0.5:
            raise ValueError(f"cf must be in (0, 0.5), got {self.cf}")
        X, y = _validate_fit(self, X, y)
        self.tree_ = self._build(X, y, depth=0)
        if self.prune:
            self._prune_node(self.tree_)
        return self

    def predict(self, X):
        X = _validate_predict(self, X)
        check_is_fitted(self, "tree_")
        out = np.empty(X.shape[0], dtype=np.int64)
        for i in range(X.shape[0]):
            node = self.tree_
            while not node.is_leaf:
                node = node.left if X[i, node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out

    # -- construction

    def _build(self, X, y, depth):
        counts = np.bincount(y, minlength=2)
        pred = 0 if counts[0] >= counts[1] else 1
        node = _Node(prediction=pred, n_samples=y.size, n_errors=int(y.size - counts[pred]))
        if (
            counts[pred] == y.size
            or y.size < 2
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        split = self._best_split(X, y, max(1, min(self.min_leaf, y.size // 2)))
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X, y, min_leaf):
        n = y.size
        parent = float(_entropy_from_counts(np.sum(y == 0), np.sum(y == 1)))
        best = None  # (ratio, feature, threshold)
        for j in range(X.shape[1]):
            order = np.argsort(X[:, j], kind="stable")
            xs = X[order, j]
            ys = y[order]
            cut = np.nonzero(xs[1:] != xs[:-1])[0]  # split between cut and cut+1
            if cut.size == 0:
                continue
            left_n = cut + 1
            right_n = n - left_n
            usable = (left_n >= min_leaf) & (right_n >= min_leaf)
            if not usable.any():
                continue
            cum_ones = np.cumsum(ys)
            left1 = cum_ones[cut].astype(np.float64)
            left0 = left_n - left1
            right1 = float(cum_ones[-1]) - left1
            right0 = right_n - right1
            child = (
                left_n * _entropy_from_counts(left0, left1)
                + right_n * _entropy_from_counts(right0, right1)
            ) / n
            gain = parent - child
            split_info = _entropy_from_counts(left_n, right_n)
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = np.where(split_info > 0, gain / np.maximum(split_info, _EPS), -1.0)
            ratio = np.where(usable & (gain >= -_EPS), np.maximum(ratio, 0.0), -1.0)
            k = int(np.argmax(ratio))  # first max: lowest threshold wins ties
            if ratio[k] < 0:
                continue
            if best is None or ratio[k] > best[0] + _EPS:
                threshold = float((xs[cut[k]] + xs[cut[k] + 1]) / 2.0)
                best = (float(ratio[k]), j, threshold)
        if best is None:
            return None
        return best[1], best[2]

    # -- pruning

    def _prune_node(self, node):
        """Prune the subtree at ``node`` bottom-up; returns its pessimistic error
        estimate, the sum of the estimates of the leaves it keeps."""
        as_leaf = node.n_errors + pessimistic_extra_errors(node.n_samples, node.n_errors, self.cf)
        if node.is_leaf:
            return as_leaf
        subtree = self._prune_node(node.left) + self._prune_node(node.right)
        if as_leaf > subtree + 1e-9:
            return subtree
        node.feature = None
        node.threshold = None
        node.left = None
        node.right = None
        return as_leaf

    # -- introspection

    n_nodes_ = property(lambda self: self._count_nodes(self.tree_))
    depth_ = property(lambda self: self._depth(self.tree_))

    def _count_nodes(self, node):
        if node.is_leaf:
            return 1
        return 1 + self._count_nodes(node.left) + self._count_nodes(node.right)

    def _depth(self, node):
        if node.is_leaf:
            return 0
        return 1 + max(self._depth(node.left), self._depth(node.right))


# ---------------------------------------------------------------------------
# k-nearest neighbours


class KNNClassifier(ParamsMixin):
    """Majority vote over the k nearest training points (Euclidean).

    Neighbour ties at the k-th distance resolve toward lower training-set
    indices, so predictions are deterministic. A tied vote (possible only
    for even k) falls back to class 0. Expects standardized features.

    The training set is stored as its m distinct rows ``X_`` plus, for each
    of the n training rows in order, its row number ``row_`` and label
    ``y_``: training row i is ``X_[row_[i]]``. A query measures its distance
    to the m distinct rows only; rows strictly closer than the k-th distance
    vote with all their labels, and the free slots go to the lowest training
    indices among the rows at exactly the k-th distance.
    """

    FITTED_FIELDS = (
        ("X_", "float", ("m", "d")),
        ("row_", "count", ("n",)),
        ("y_", "label", ("n",)),
    )

    def __init__(self, k=5):
        self.k = k

    def fit(self, X, y):
        X, y = _validate_fit(self, X, y)
        self._check_k(X.shape[0])
        self.X_, self.row_, _ = distinct_rows(X)
        self.y_ = y
        return self

    def _check_k(self, n_train):
        if not isinstance(self.k, numbers.Integral) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if self.k > n_train:
            raise ValueError(
                f"k={self.k} exceeds the {n_train} training samples; use a smaller k"
            )

    def _check_state(self):
        """The rule on ``k`` that fit enforces, and every row number naming a stored row."""
        self._check_k(self.y_.size)
        m = self.X_.shape[0]
        if (self.row_ >= m).any():
            raise ValueError(f"row: values must be below the {m} stored rows")

    def predict(self, X):
        X = _validate_predict(self, X)
        m = self.X_.shape[0]
        counts = np.bincount(self.row_, minlength=m)
        ones = np.bincount(self.row_, weights=self.y_, minlength=m)
        # a stored row that no training row uses (only an edited file has one) cannot vote
        used = np.flatnonzero(counts)
        counts = counts[used]
        # the training indices of each used stored row, ascending
        groups = np.split(np.argsort(self.row_, kind="stable"), np.cumsum(counts)[:-1])
        stored = self.X_[used], counts, ones[used], groups
        rows = max(1, KNN_BLOCK_CELLS // used.size)
        return np.concatenate([
            self._predict_block(X[i : i + rows], *stored) for i in range(0, X.shape[0], rows)
        ])

    def _predict_block(self, X, X_, counts, ones, groups):
        # squared distances |q|^2 - 2 q.x + |x|^2, computed in place; monotone in distance
        d2 = X @ X_.T
        d2 *= -2.0
        d2 += np.sum(X * X, axis=1)[:, None]
        d2 += np.sum(X_ * X_, axis=1)
        np.maximum(d2, 0.0, out=d2)
        k = self.k
        last = min(k, d2.shape[1]) - 1
        out = np.empty(X.shape[0], dtype=np.int64)
        for i, row in enumerate(d2):
            # each stored row holds at least one training row, so the k nearest ones
            # reach the k-th distance, and every row closer than it is among them
            near = np.argpartition(row, last)[: last + 1]
            near = near[np.argsort(row[near])]
            kth = row[near[np.searchsorted(np.cumsum(counts[near]), k)]]
            closer = near[row[near] < kth]
            free = k - int(counts[closer].sum())
            # fill the free slots with the lowest training indices at the k-th distance
            # (tied is empty only when that distance is NaN, from overflowed inputs)
            tied = [groups[j][:free] for j in np.flatnonzero(row == kth)]
            taken = np.sort(np.concatenate([groups[0][:0], *tied]))[:free]
            votes_for_1 = int(ones[closer].sum()) + int(self.y_[taken].sum())
            out[i] = 1 if 2 * votes_for_1 > k else 0
        return out


# ---------------------------------------------------------------------------
# logistic regression (full-batch gradient descent)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _row_shares(y, share):
    return np.full(y.size, 1.0 / y.size) if share is None else share


class LogisticRegressionGD(ParamsMixin):
    """L2-regularized logistic regression via full-batch gradient descent.

    Minimizes mean cross-entropy plus ``l2/2 * ||w||^2`` (bias excluded from
    the penalty). Deterministic: no sampling, fixed zero initialization.
    Stops early when the full gradient norm drops below ``tol``. Descent
    runs over the distinct (features, label) rows, each weighted by its
    share of the training rows: the mean loss and gradient are sums over
    rows, so this is the same objective, at a fraction of the cost on
    corpora with many repeated feature vectors. Expects standardized
    features.
    """

    FITTED_FIELDS = (("coef_", "float", ("d",)), ("intercept_", "float", ()))

    def __init__(self, lr=0.1, epochs=500, l2=1e-4, tol=1e-6):
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2
        self.tol = tol

    def fit(self, X, y):
        X, y = _validate_fit(self, X, y, require_both_classes=True)
        rows, _, counts = distinct_rows(np.column_stack([X, y]))
        X, y, share = rows[:, :-1], rows[:, -1], counts / y.size
        w = np.zeros(X.shape[1])
        b = 0.0
        losses = []
        self.n_iter_ = 0
        for _ in range(self.epochs):
            losses.append(self.loss(X, y, w, b, share))
            grad_w, grad_b = self.gradient(X, y, w, b, share)
            norm = math.sqrt(float(grad_w @ grad_w) + grad_b * grad_b)
            if norm < self.tol:
                break
            w -= self.lr * grad_w
            b -= self.lr * grad_b
            self.n_iter_ += 1
        self.coef_ = w
        self.intercept_ = float(b)
        self.loss_curve_ = np.asarray(losses)
        return self

    def loss(self, X, y, w, b, share=None):
        """Regularized cross-entropy at arbitrary parameters (w, b).

        ``share`` weights each row's cross-entropy; None means 1/n for every
        row, the mean.
        """
        z = X @ w + b
        # logaddexp keeps the cross-entropy finite for large |z|
        ce = float((np.logaddexp(0.0, z) - y * z) @ _row_shares(y, share))
        return ce + 0.5 * self.l2 * float(w @ w)

    def gradient(self, X, y, w, b, share=None):
        """Analytic gradient of :meth:`loss` at (w, b): ``(grad_w, grad_b)``."""
        residual = (_sigmoid(X @ w + b) - y) * _row_shares(y, share)
        return X.T @ residual + self.l2 * w, float(residual.sum())

    def decision_function(self, X):
        X = _validate_predict(self, X)
        check_is_fitted(self, "coef_")
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X):
        """Probability of the positive class, shape (n,)."""
        return _sigmoid(self.decision_function(X))

    def predict(self, X):
        return (self.decision_function(X) >= 0.0).astype(np.int64)


# ---------------------------------------------------------------------------
# Gaussian naive Bayes


class GaussianNaiveBayes(ParamsMixin):
    """Gaussian naive Bayes on raw (unscaled) features.

    Per-class feature means and population variances, with every variance
    floored by ``var_floor`` times the largest overall feature variance so
    constant columns stay usable.
    """

    FITTED_FIELDS = (
        ("theta_", "float", (2, "d")),
        ("var_", "positive", (2, "d")),
        ("class_prior_", "positive", (2,)),
    )

    def __init__(self, var_floor=1e-9):
        self.var_floor = var_floor

    def fit(self, X, y):
        X, y = _validate_fit(self, X, y, require_both_classes=True)
        eps = self.var_floor * float(X.var(axis=0).max())
        if eps <= 0.0:
            eps = self.var_floor
        self.theta_ = np.empty((2, X.shape[1]))
        self.var_ = np.empty((2, X.shape[1]))
        self.class_prior_ = np.empty(2)
        for cls in (0, 1):
            sub = X[y == cls]
            self.theta_[cls] = sub.mean(axis=0)
            self.var_[cls] = sub.var(axis=0) + eps
            self.class_prior_[cls] = sub.shape[0] / X.shape[0]
        return self

    def joint_log_likelihood(self, X):
        X = _validate_predict(self, X)
        check_is_fitted(self, "theta_")
        jll = np.empty((X.shape[0], 2))
        for cls in (0, 1):
            log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * self.var_[cls]))
            quad = -0.5 * np.sum((X - self.theta_[cls]) ** 2 / self.var_[cls], axis=1)
            jll[:, cls] = math.log(self.class_prior_[cls]) + log_norm + quad
        return jll

    def predict_proba(self, X):
        """Probability of the positive class, shape (n,)."""
        jll = self.joint_log_likelihood(X)
        m = jll.max(axis=1, keepdims=True)
        norm = np.exp(jll - m)
        return norm[:, 1] / norm.sum(axis=1)

    def predict(self, X):
        jll = self.joint_log_likelihood(X)
        return (jll[:, 1] > jll[:, 0]).astype(np.int64)


# ---------------------------------------------------------------------------
# linear SVM (Pegasos)


class PegasosSVM(ParamsMixin):
    """Linear soft-margin SVM trained with the Pegasos subgradient method.

    Pegasos (Shalev-Shwartz, Singer, Srebro and Cotter, ICML 2007; Math.
    Prog. 2011) visits one row per step t with step size 1/(lambda*t), so the
    shrink factor 1 - 1/t = (t-1)/t telescopes into lambda*t*w_t = u_t, the
    running sum of the signed rows r = y_i*[x_i, 1] over the steps whose
    margin fell below one. Training keeps only u, with no vector scaling or
    division per step: step t+1 updates when r.u_t < lambda*t, which is
    r.w_t < 1, and always at the first step, where w_0 = 0.

    The bias rides along as an extra always-on input inside the regularized
    weight vector; a separately updated bias is unstable at the 1/(lambda*t)
    step sizes Pegasos uses. Visit order is reshuffled every epoch from
    ``seed``, so training is reproducible. Expects standardized features.
    """

    FITTED_FIELDS = (("coef_", "float", ("d",)), ("intercept_", "float", ()))

    def __init__(self, lam=1e-4, epochs=50, seed=0):
        self.lam = lam
        self.epochs = epochs
        self.seed = seed

    def fit(self, X, y):
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        X, y = _validate_fit(self, X, y, require_both_classes=True)
        n = X.shape[0]
        # each row signed by its label, with the always-on bias input last
        signed = (2.0 * y - 1.0)[:, None] * np.column_stack([X, np.ones(n)])
        rows, inverse, _ = distinct_rows(signed)
        rows = rows.tolist()
        lam = self.lam
        u = [0.0] * len(rows[0])
        rng = np.random.default_rng(self.seed)
        t = 0  # steps taken so far
        for _ in range(self.epochs):
            for i in inverse[rng.permutation(n)].tolist():
                r = rows[i]
                if t == 0 or sum(map(mul, r, u)) < lam * t:
                    u = list(map(add, u, r))
                t += 1
        w = np.asarray(u) / (lam * max(t, 1))  # u is still 0 when epochs is 0
        self.coef_ = w[:-1]
        self.intercept_ = float(w[-1])
        self.n_iter_ = t
        return self

    def decision_function(self, X):
        X = _validate_predict(self, X)
        check_is_fitted(self, "coef_")
        return X @ self.coef_ + self.intercept_

    def predict(self, X):
        return (self.decision_function(X) > 0.0).astype(np.int64)

    def hinge_objective(self, X, y):
        """Regularized hinge loss of the fitted weights on (X, y)."""
        X, y = check_X_y(X, y, n_features=self.n_features_in_)
        check_is_fitted(self, "coef_")
        y_pm = 2.0 * y - 1.0
        margins = y_pm * (X @ self.coef_ + self.intercept_)
        hinge = np.maximum(0.0, 1.0 - margins).mean()
        return 0.5 * self.lam * float(self.coef_ @ self.coef_) + float(hinge)
