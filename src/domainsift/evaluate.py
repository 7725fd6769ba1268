"""Train/test protocol and the four classification metrics.

The positive class is DGA (label 1) throughout: precision and recall count
detections of algorithmically generated domains. The default protocol is a
stratified 70/30 split with seed 42; stratified k-fold cross-validation is
available as an alternative when more stable estimates are wanted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .base import check_both_classes, check_labels, check_matrix


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    """Counts with DGA (1) as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn


def confusion(predictions, truths):
    predictions = check_labels(predictions, name="predictions")
    truths = check_labels(truths, n_samples=predictions.shape[0], name="truths")
    if predictions.size == 0:
        raise ValueError("cannot build a confusion matrix from empty input")
    return ConfusionMatrix(
        tp=int(np.sum((predictions == 1) & (truths == 1))),
        fp=int(np.sum((predictions == 1) & (truths == 0))),
        tn=int(np.sum((predictions == 0) & (truths == 0))),
        fn=int(np.sum((predictions == 0) & (truths == 1))),
    )


@dataclass(frozen=True, slots=True)
class Metrics:
    """Accuracy, precision, recall, f_score in [0,1].

    A metric whose denominator was zero is reported as 0.0 and named in
    ``undefined`` so reports can flag it rather than silently print a zero.
    """

    accuracy: float
    precision: float
    recall: float
    f_score: float
    undefined: tuple = ()


def metrics(cm):
    undefined = []

    def ratio(num, den, name):
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = ratio(cm.tp, cm.tp + cm.fp, "precision")
    recall = ratio(cm.tp, cm.tp + cm.fn, "recall")
    f_score = ratio(2.0 * precision * recall, precision + recall, "f_score")
    return Metrics(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f_score=f_score,
        undefined=tuple(undefined),
    )


# ---------------------------------------------------------------------------
# split protocols


def stratified_split(y, test_fraction=0.3, seed=42):
    """Seeded per-class split into (train_indices, test_indices).

    Per-class test counts are ``round half-up(n_class * test_fraction)``,
    clamped so both sides keep at least one sample of each class. Returned
    index arrays are sorted, disjoint, and exhaustive.
    """
    y = check_labels(y)
    check_both_classes(y)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in (0, 1):
        idx = np.nonzero(y == cls)[0]
        if idx.size < 2:
            raise ValueError(f"class {cls} has {idx.size} sample(s); need at least 2 to split")
        n_test = int(np.floor(idx.size * test_fraction + 0.5))
        n_test = min(max(n_test, 1), idx.size - 1)
        perm = rng.permutation(idx)
        test.append(perm[:n_test])
        train.append(perm[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def stratified_kfold(y, n_folds=5, seed=42):
    """Seeded stratified folds as a list of (train_indices, test_indices)."""
    y = check_labels(y)
    check_both_classes(y)
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    rng = np.random.default_rng(seed)
    chunks = {}
    for cls in (0, 1):
        idx = np.nonzero(y == cls)[0]
        if idx.size < n_folds:
            raise ValueError(
                f"class {cls} has {idx.size} sample(s); need at least n_folds={n_folds}"
            )
        chunks[cls] = np.array_split(rng.permutation(idx), n_folds)
    folds = []
    for i in range(n_folds):
        test = np.sort(np.concatenate([chunks[0][i], chunks[1][i]]))
        train_parts = [chunks[cls][j] for cls in (0, 1) for j in range(n_folds) if j != i]
        folds.append((np.sort(np.concatenate(train_parts)), test))
    return folds


# ---------------------------------------------------------------------------
# model comparison reports


def evaluate_all(estimators, X, y):
    """Metrics for several fitted estimators on one test set.

    ``estimators`` is a sequence of (name, estimator) pairs;
    returns [(name, ConfusionMatrix, Metrics)] in the given order.
    """
    X = check_matrix(X)
    y = check_labels(y, n_samples=X.shape[0])
    return score_predictions([(name, est.predict(X)) for name, est in estimators], y)


def score_predictions(named_predictions, y):
    """[(name, ConfusionMatrix, Metrics)] for (name, predictions) pairs against ``y``."""
    rows = []
    for name, predictions in named_predictions:
        cm = confusion(predictions, y)
        rows.append((name, cm, metrics(cm)))
    return rows


@dataclass(frozen=True, slots=True)
class CVResult:
    fold_metrics: list  # Metrics per fold
    mean: Metrics
    std: Metrics


def summarize_folds(fold_metrics):
    """CVResult with the per-metric mean and population std over the folds."""
    table = np.array([[m.accuracy, m.precision, m.recall, m.f_score] for m in fold_metrics])
    return CVResult(
        fold_metrics=fold_metrics,
        mean=Metrics(*(float(v) for v in table.mean(axis=0))),
        std=Metrics(*(float(v) for v in table.std(axis=0))),
    )


def format_report(rows):
    """Console table: percentages with one decimal, F-score with two."""
    width = max(len(name) for name, _, _ in rows)
    header = f"{'classifier':<{width}}  accuracy  precision  recall  f_score"
    lines = [header, "-" * len(header)]
    for name, _, m in rows:
        lines.append(
            f"{name:<{width}}  {100 * m.accuracy:>7.1f}%  {100 * m.precision:>8.1f}%"
            f"  {100 * m.recall:>5.1f}%  {m.f_score:>7.2f}"
        )
    return "\n".join(lines)


def write_report_csv(stream, rows):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["classifier", "accuracy", "precision", "recall", "f_score"])
    for name, _, m in rows:
        writer.writerow(
            [
                name,
                f"{100 * m.accuracy:.1f}",
                f"{100 * m.precision:.1f}",
                f"{100 * m.recall:.1f}",
                f"{m.f_score:.2f}",
            ]
        )


def write_cv_csv(stream, results):
    """CSV of cross-validation results: mean and std per metric, in percent."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        [
            "classifier",
            "accuracy_mean", "accuracy_std",
            "precision_mean", "precision_std",
            "recall_mean", "recall_std",
            "f_score_mean", "f_score_std",
        ]
    )
    for name, cv in results:
        writer.writerow(
            [
                name,
                f"{100 * cv.mean.accuracy:.1f}", f"{100 * cv.std.accuracy:.1f}",
                f"{100 * cv.mean.precision:.1f}", f"{100 * cv.std.precision:.1f}",
                f"{100 * cv.mean.recall:.1f}", f"{100 * cv.std.recall:.1f}",
                f"{cv.mean.f_score:.2f}", f"{cv.std.f_score:.2f}",
            ]
        )
