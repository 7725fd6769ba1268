"""Five from-scratch binary classifiers sharing a fit/predict interface.

All operate on numeric feature matrices and 0/1 labels (1 = DGA). Each is
implemented directly on numpy: a C4.5-style decision tree, k-nearest
neighbours, full-batch logistic regression, Gaussian naive Bayes, and a
linear SVM trained with full-batch Pegasos subgradient steps.

The tree and naive Bayes are scale-free; the distance- and margin-based
learners (knn, logreg, svm) expect standardized inputs, which the ensemble
layer applies for them.
"""

from __future__ import annotations

import math

import numpy as np

from .base import (
    check_both_classes,
    check_is_fitted,
    check_matrix,
    check_X_y,
    distinct_rows,
)

_EPS = 1e-12

# cells of the query-by-stored-row distance block kNN holds at once (256 KB of
# float64, so a block stays in cache and its product stays on one BLAS thread)
KNN_BLOCK_CELLS = 32_768

# the learners' hyperparameters, fixed by the method
TREE_MAX_DEPTH = 25  # most edges from the root to a leaf
TREE_MIN_LEAF = 5  # rows each child of a split must hold
TREE_CF = 0.25  # pruning confidence factor, in (0, 0.5)
TREE_Z = 0.6744897501960817  # NormalDist().inv_cdf(1 - TREE_CF), the bound's normal deviate
KNN_K = 5  # neighbours that vote; odd, so a vote cannot tie
LOGREG_LR = 0.1  # gradient-descent step size
LOGREG_EPOCHS = 500  # most full-batch steps
LOGREG_L2 = 1e-4  # weight of the L2 penalty
LOGREG_TOL = 1e-6  # gradient norm at which descent stops
NB_VAR_FLOOR = 1e-9  # variance floor, as a share of the largest feature variance
SVM_LAMBDA = 1e-4  # Pegasos regularization strength
SVM_STEPS = 5_000  # full-batch subgradient steps


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
        self.feature = self.threshold = self.left = self.right = None
        self.prediction, self.n_samples, self.n_errors = prediction, n_samples, n_errors

    @property
    def is_leaf(self):
        return self.feature is None


def _entropy_from_counts(c0, c1):
    """Shannon entropy (bits) of two-class counts; vectorized, 0*log0 = 0."""
    c0, c1 = np.asarray(c0, dtype=np.float64), np.asarray(c1, dtype=np.float64)
    n = c0 + c1
    out = np.zeros_like(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in (c0, c1):
            p = c / n
            out -= np.where(p > 0, p * np.log2(p), 0.0)
    return out


def pessimistic_extra_errors(n, e, z):
    """Upper confidence bound on extra errors for a leaf (Wilson-style).

    Given n training samples with e misclassified, returns how many errors
    to add so the total is an upper bound at the confidence factor whose
    upper-tail normal deviate is ``z`` (cf = P(Z > z)). The formula matches
    the classic C4.5 error-based pruning estimate: the continuity-corrected
    normal bound on the binomial error rate, with a closed form for the
    zero-error case.
    """
    n, e = float(n), float(e)
    if n <= 0:
        return 0.0
    if e == 0.0:
        cf = 0.5 * math.erfc(z / math.sqrt(2.0))
        return n * (1.0 - cf ** (1.0 / n))
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    f = (e + 0.5) / n
    r = f + z * z / (2.0 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4.0 * n * n))
    return r / (1.0 + z * z / n) * n - e


def _best_split(X, y, block, min_leaf):
    """``(feature, threshold, rows left)`` of the best split of the node whose rows,
    sorted by feature j, are ``block[j]``, or None. All cuts that leave ``min_leaf``
    rows a side are scored at once; each feature offers its first cut of highest
    gain ratio, and beats lower features only by more than ``_EPS``."""
    d, n = block.shape
    lo, hi = min_leaf - 1, n - min_leaf  # cut c sends the first c + 1 rows left
    xs = X[block, np.arange(d)[:, None]]
    feature, c = np.nonzero(xs[:, lo + 1 : hi + 1] != xs[:, lo:hi])
    del xs  # the node's largest array; the cumsum takes its place
    c += lo
    ones = np.cumsum(y[block], axis=1, dtype=np.int32)
    total1 = ones[0, -1]
    parent = float(_entropy_from_counts(n - total1, total1))
    left_n, left1 = c + 1, ones[feature, c].astype(np.float64)
    right_n, right1 = n - left_n, float(total1) - left1
    left_h, right_h, split_info = _entropy_from_counts(
        np.stack([left_n - left1, right_n - right1, left_n]), np.stack([left1, right1, right_n]))
    gain = parent - (left_n * left_h + right_n * right_h) / n
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(split_info > 0, gain / np.maximum(split_info, _EPS), -1.0)
    ratio = np.where(gain >= -_EPS, np.maximum(ratio, 0.0), -1.0)
    top = np.full(d, -1.0)
    np.maximum.at(top, feature, ratio)
    best = None
    for j, r in enumerate(top.tolist()):
        if r >= 0 and (best is None or r > top[best] + _EPS):
            best = j
    if best is None:
        return None
    k = c[np.argmax(np.where(feature == best, ratio, -2.0))]  # its lowest cut at the max
    low, high = X[block[best, k : k + 2], best].tolist()
    mid = (low + high) / 2.0  # can round up to high (adjacent floats) or overflow
    return best, mid if low <= mid < high else low, int(k) + 1


def _partition(block, left_rows, mask):
    """Reorder each row of ``block`` stably in place, ``left_rows`` first. ``mask``
    is an all-False row mask, and is left so."""
    mask[left_rows] = True
    left = mask[block]
    mask[left_rows] = False
    d = len(block)
    block[:] = np.hstack((block[left].reshape(d, -1), block[~left].reshape(d, -1)))


class C45Tree:
    """Binary decision tree with gain-ratio splits and pessimistic pruning.

    Numeric thresholds are midpoints between consecutive distinct sorted
    values, or the lower value where the midpoint rounds up to the upper one;
    the split maximizing gain ratio wins, with ties broken toward the lowest
    feature index and then the lowest threshold. Zero-gain splits are
    permitted (required for parity problems, where no single feature has
    positive gain) and pruning later removes the useless ones. Pruning
    replaces a subtree by a leaf when the leaf's pessimistic error estimate
    at confidence ``TREE_CF`` does not exceed the subtree's. No split is
    made below depth ``TREE_MAX_DEPTH``.

    Each child of a split must hold at least ``TREE_MIN_LEAF`` samples; on
    nodes smaller than twice that the requirement relaxes to half the node
    size, so tiny datasets can still be partitioned down to pure leaves.

    Single-class and even single-row training data are legal and produce a
    constant predictor.
    """

    FITTED_FIELDS = (("tree_", "node", ()),)

    def fit(self, X, y):
        X, y = _validate_fit(self, X, y)
        self.tree_ = self._grow(X, y)
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

    def _grow(self, X, y):
        """The unpruned tree of ``(X, y)``, grown from one stable sort of each column
        (SLIQ: Mehta, Agrawal and Rissanen, EDBT 1996)."""
        order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T, dtype=np.int32)
        return self._grow_node(X, y.astype(np.int8), order, np.zeros(y.size, dtype=bool), 0)

    def _grow_node(self, X, y, block, mask, depth):
        """The unpruned subtree of the rows in ``block``, whose row j lists them by
        feature j's value, ties by row number; its split partitions them stably in
        place, left first, so each child's block is a part of it."""
        n = block.shape[1]
        counts = np.bincount(y[block[0]], minlength=2)
        pred = 0 if counts[0] >= counts[1] else 1
        node = _Node(prediction=pred, n_samples=n, n_errors=int(n - counts[pred]))
        if counts[pred] == n or n < 2 or depth >= TREE_MAX_DEPTH:
            return node
        split = _best_split(X, y, block, max(1, min(TREE_MIN_LEAF, n // 2)))
        if split is None:
            return node
        node.feature, node.threshold, n_left = split
        _partition(block, block[node.feature, :n_left], mask)
        node.left = self._grow_node(X, y, block[:, :n_left], mask, depth + 1)
        node.right = self._grow_node(X, y, block[:, n_left:], mask, depth + 1)
        return node

    # -- pruning

    def _prune_node(self, node):
        """Prune the subtree at ``node`` bottom-up; returns its pessimistic error
        estimate, the sum of the estimates of the leaves it keeps."""
        as_leaf = node.n_errors + pessimistic_extra_errors(node.n_samples, node.n_errors, TREE_Z)
        if node.is_leaf:
            return as_leaf
        subtree = self._prune_node(node.left) + self._prune_node(node.right)
        if as_leaf > subtree + 1e-9:
            return subtree
        node.feature = node.threshold = node.left = node.right = None
        return as_leaf

    # -- introspection

    n_nodes_ = property(lambda self: self._count_nodes(self.tree_))

    def _count_nodes(self, node):
        if node.is_leaf:
            return 1
        return 1 + self._count_nodes(node.left) + self._count_nodes(node.right)


# ---------------------------------------------------------------------------
# k-nearest neighbours


class KNNClassifier:
    """Majority vote over the k = ``KNN_K`` nearest training points (Euclidean).

    Neighbour ties at the k-th distance resolve toward lower training-set
    indices, so predictions are deterministic. Expects standardized features.

    The training set is stored as its m distinct rows ``X_`` plus, for each
    of the n training rows in order, its row number ``row_`` and label
    ``y_``: training row i is ``X_[row_[i]]``. A query measures its distance
    to the m distinct rows only; rows strictly closer than the k-th distance
    vote with all their labels, and the free slots go to the lowest training
    indices among the rows at exactly the k-th distance.

    Queries are scored in blocks of ``KNN_BLOCK_CELLS // m`` rows (256 KB of
    distances), each voted with whole-array operations. The per-row rule
    runs only for a query whose k-th distance is held by more than one
    stored row, or is NaN.
    """

    FITTED_FIELDS = (
        ("X_", "float", ("m", "d")),
        ("row_", "count", ("n",)),
        ("y_", "label", ("n",)),
    )

    def fit(self, X, y):
        X, y = _validate_fit(self, X, y)
        _check_k(X.shape[0])
        self.X_, self.row_, _ = distinct_rows(X)
        self.y_ = y
        return self

    def _check_state(self):
        """The rule on ``k`` that fit enforces, and every row number naming a stored row."""
        _check_k(self.y_.size)
        m = self.X_.shape[0]
        if (self.row_ >= m).any():
            raise ValueError(f"row: values must be below the {m} stored rows")

    def predict(self, X):
        X = _validate_predict(self, X)
        m = self.X_.shape[0]
        counts = np.bincount(self.row_, minlength=m)
        # the training indices grouped by stored row, each group ascending from start[j]
        order = np.argsort(self.row_, kind="stable")
        start = np.cumsum(counts) - counts
        # firsts[j, f]: the labels of the f lowest training indices of stored row j, summed
        labels = np.concatenate([[0], np.cumsum(self.y_[order])])
        ends = start[:, None] + np.minimum(np.arange(KNN_K + 1), counts[:, None])
        firsts = labels[ends] - labels[start[:, None]]
        # a stored row that no training row uses (only an edited file has one) cannot vote
        used = np.flatnonzero(counts)
        X_ = self.X_[used]
        stored = X_, np.sum(X_ * X_, axis=1), counts[used], firsts[used], order, start[used]
        rows = max(1, KNN_BLOCK_CELLS // used.size)
        return np.concatenate([
            self._predict_block(X[i : i + rows], *stored) for i in range(0, X.shape[0], rows)
        ])

    def _predict_block(self, X, X_, sq, counts, firsts, order, start):
        # squared distances |q|^2 - 2 q.x + |x|^2, computed in place; monotone in distance
        d2 = X @ X_.T
        d2 *= -2.0
        d2 += np.sum(X * X, axis=1)[:, None]
        d2 += sq
        np.maximum(d2, 0.0, out=d2)
        k = KNN_K
        last = min(k, d2.shape[1]) - 1
        # each stored row holds at least one training row, so the k nearest ones
        # reach the k-th distance, and every row closer than it is among them
        near = np.argpartition(d2, last, axis=1)[:, : last + 1]
        near = np.take_along_axis(near, np.argsort(np.take_along_axis(d2, near, 1), 1), 1)
        held = np.cumsum(counts[near], axis=1)
        # at: the place in near of the stored row that holds the k-th neighbour
        at = (held < k).sum(axis=1)[:, None]
        kth_row = np.take_along_axis(near, at, 1)[:, 0]
        kth = d2[np.arange(d2.shape[0]), kth_row]
        # the rows before it hold fewer than k training rows, so firsts[:, k] is all
        # their labels; they vote with all of them, and the k-th row's lowest training
        # indices fill the free slots
        ones = firsts[near, k]
        closer = np.take_along_axis(held - counts[near], at, 1)[:, 0]
        closer_ones = np.take_along_axis(np.cumsum(ones, axis=1) - ones, at, 1)[:, 0]
        votes_for_1 = closer_ones + firsts[kth_row, k - closer]
        out = (2 * votes_for_1 > k).astype(np.int64)
        # that is the vote only when the k-th row is alone at the k-th distance; a tie
        # there, or a NaN distance from overflowed inputs, takes the full rule
        for i in np.flatnonzero((d2 == kth[:, None]).sum(axis=1) != 1):
            out[i] = self._vote_row(d2[i], counts, firsts[:, k], order, start)
        return out

    def _vote_row(self, row, counts, ones, order, start):
        """One query's vote from its distances ``row`` to the stored rows, with any
        number of stored rows at the k-th distance. ``ones`` is read only for the
        stored rows closer than that distance, which hold fewer than k training rows."""
        k = KNN_K
        last = min(k, row.size) - 1
        near = np.argpartition(row, last)[: last + 1]
        near = near[np.argsort(row[near])]
        kth = row[near[np.searchsorted(np.cumsum(counts[near]), k)]]
        closer = near[row[near] < kth]
        free = k - int(counts[closer].sum())
        # fill the free slots with the lowest training indices at the k-th distance
        # (tied is empty only when that distance is NaN, from overflowed inputs)
        tied = [order[start[j] : start[j] + counts[j]][:free] for j in np.flatnonzero(row == kth)]
        taken = np.sort(np.concatenate([order[:0], *tied]))[:free]
        votes_for_1 = int(ones[closer].sum()) + int(self.y_[taken].sum())
        return 1 if 2 * votes_for_1 > k else 0


def _check_k(n_train):
    if KNN_K > n_train:
        raise ValueError(f"knn needs at least k={KNN_K} training rows, got {n_train}")


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


class LogisticRegressionGD:
    """L2-regularized logistic regression via full-batch gradient descent.

    Minimizes mean cross-entropy plus ``LOGREG_L2/2 * ||w||^2`` (bias
    excluded from the penalty), with at most ``LOGREG_EPOCHS`` steps of size
    ``LOGREG_LR``. Deterministic: no sampling, fixed zero initialization.
    Stops early when the full gradient norm drops below ``LOGREG_TOL``. Descent
    runs over the distinct (features, label) rows, each weighted by its
    share of the training rows: the mean loss and gradient are sums over
    rows, so this is the same objective, at a fraction of the cost on
    corpora with many repeated feature vectors. Expects standardized
    features.
    """

    FITTED_FIELDS = (("coef_", "float", ("d",)), ("intercept_", "float", ()))

    def fit(self, X, y):
        X, y = _validate_fit(self, X, y, require_both_classes=True)
        rows, _, counts = distinct_rows(np.column_stack([X, y]))
        X, y, share = rows[:, :-1], rows[:, -1], counts / y.size
        w = np.zeros(X.shape[1])
        b = 0.0
        self.n_iter_ = 0
        for _ in range(LOGREG_EPOCHS):
            grad_w, grad_b = self.gradient(X, y, w, b, share)
            norm = math.sqrt(float(grad_w @ grad_w) + grad_b * grad_b)
            if norm < LOGREG_TOL:
                break
            w -= LOGREG_LR * grad_w
            b -= LOGREG_LR * grad_b
            self.n_iter_ += 1
        self.coef_ = w
        self.intercept_ = float(b)
        return self

    def loss(self, X, y, w, b, share=None):
        """Regularized cross-entropy at arbitrary parameters (w, b).

        ``share`` weights each row's cross-entropy; None means 1/n for every
        row, the mean.
        """
        z = X @ w + b
        # logaddexp keeps the cross-entropy finite for large |z|
        ce = float((np.logaddexp(0.0, z) - y * z) @ _row_shares(y, share))
        return ce + 0.5 * LOGREG_L2 * float(w @ w)

    def gradient(self, X, y, w, b, share=None):
        """Analytic gradient of :meth:`loss` at (w, b): ``(grad_w, grad_b)``."""
        residual = (_sigmoid(X @ w + b) - y) * _row_shares(y, share)
        return X.T @ residual + LOGREG_L2 * w, float(residual.sum())

    def decision_function(self, X):
        X = _validate_predict(self, X)
        check_is_fitted(self, "coef_")
        return X @ self.coef_ + self.intercept_

    def predict(self, X):
        return (self.decision_function(X) >= 0.0).astype(np.int64)


# ---------------------------------------------------------------------------
# Gaussian naive Bayes


class GaussianNaiveBayes:
    """Gaussian naive Bayes on raw (unscaled) features.

    Per-class feature means and population variances, with every variance
    floored by ``NB_VAR_FLOOR`` times the largest overall feature variance so
    constant columns stay usable.
    """

    FITTED_FIELDS = (
        ("theta_", "float", (2, "d")),
        ("var_", "positive", (2, "d")),
        ("class_prior_", "positive", (2,)),
    )

    def fit(self, X, y):
        X, y = _validate_fit(self, X, y, require_both_classes=True)
        eps = NB_VAR_FLOOR * float(X.var(axis=0).max())
        if eps <= 0.0:
            eps = NB_VAR_FLOOR
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

    def predict(self, X):
        jll = self.joint_log_likelihood(X)
        return (jll[:, 1] > jll[:, 0]).astype(np.int64)


# ---------------------------------------------------------------------------
# linear SVM (Pegasos)


class PegasosSVM:
    """Linear soft-margin SVM trained with full-batch Pegasos.

    Pegasos (Shalev-Shwartz, Singer, Srebro and Cotter, Math. Prog. 2011,
    section 2.3) with every row in every batch: step t shrinks w by
    1 - 1/t and adds 1/(lambda*t) times the mean of the signed rows
    r = y_i*[x_i, 1] whose margin r.w_t fell below one. That telescopes into
    lambda*t*w_t = u_t, the running sum of each step's violator mean, so
    training keeps only u: step t adds the violators of r.u < lambda*(t-1),
    and step 1, where w = 0, adds every row. The mean is a count-weighted sum
    over the distinct signed rows.

    The bias rides along as an extra always-on input inside the regularized
    weight vector; a separately updated bias is unstable at the 1/(lambda*t)
    step sizes Pegasos uses. Training runs ``SVM_STEPS`` steps at lambda =
    ``SVM_LAMBDA``. It draws no random numbers, and its sums are elementwise
    numpy adds in a fixed order, with no BLAS call, so the weights do not
    depend on the row order or the BLAS kernel. Expects standardized features.
    """

    FITTED_FIELDS = (("coef_", "float", ("d",)), ("intercept_", "float", ()))

    def fit(self, X, y):
        X, y = _validate_fit(self, X, y, require_both_classes=True)
        n = X.shape[0]
        # each row signed by its label, with the always-on bias input last
        signed = (2.0 * y - 1.0)[:, None] * np.column_stack([X, np.ones(n)])
        rows, _, counts = distinct_rows(signed)
        weighted = rows * (counts / n)[:, None]
        columns = rows.T.copy()
        lam = SVM_LAMBDA
        u = weighted.sum(axis=0)  # step 1: w = 0, so every row violates
        for t in range(1, SVM_STEPS):
            # rows @ u, a column at a time, so that no BLAS kernel sets its last bits
            margin = columns[0] * u[0]
            for column, weight in zip(columns[1:], u[1:].tolist()):
                margin += column * weight
            u += weighted[margin < lam * t].sum(axis=0)
        w = u / (lam * SVM_STEPS)
        self.coef_ = w[:-1]
        self.intercept_ = float(w[-1])
        self.n_iter_ = SVM_STEPS
        return self

    def decision_function(self, X):
        X = _validate_predict(self, X)
        check_is_fitted(self, "coef_")
        return X @ self.coef_ + self.intercept_

    def predict(self, X):
        return (self.decision_function(X) > 0.0).astype(np.int64)
