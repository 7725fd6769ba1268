"""Descriptive analytics over labeled feature matrices.

Quantifies how much each lexical feature separates the two classes: absolute
Pearson correlation against the 0/1 label (point-biserial), a ranked
correlation table, per-class summary statistics, and class-conditional
density histograms for external plotting.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .base import check_labels, check_matrix
from .features import FEATURE_NAMES


class UndefinedCorrelationError(ValueError):
    """Raised when correlation is requested against a constant input."""


def correlation(x, y):
    """Absolute Pearson correlation between one feature column and labels.

    With a 0/1 label vector this is the point-biserial correlation. Constant
    inputs have no defined correlation and raise
    :class:`UndefinedCorrelationError`.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} values vs {y.shape[0]} labels")
    if x.size < 2:
        raise ValueError("correlation needs at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature column contains non-finite values")
    xd = x - x.mean()
    yd = y - y.mean()
    sxx = float(xd @ xd)
    syy = float(yd @ yd)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError(
            "undefined correlation: constant input has no variance"
        )
    return float(abs(xd @ yd) / math.sqrt(sxx * syy))


@dataclass(frozen=True, slots=True)
class CorrelationRow:
    name: str
    index: int
    correlation: float | None  # None when undefined (constant column)


def correlation_table(X, y):
    """Feature/label correlations sorted descending, undefined columns last.

    Ties (and all undefined rows) keep the original feature order.
    """
    X = check_matrix(X, n_features=len(FEATURE_NAMES))
    y = check_labels(y, n_samples=X.shape[0])
    rows = []
    for j, name in enumerate(FEATURE_NAMES):
        try:
            value = correlation(X[:, j], y)
        except UndefinedCorrelationError:
            value = None
        rows.append(CorrelationRow(name=name, index=j, correlation=value))
    return sorted(
        rows,
        key=lambda r: (r.correlation is None, -(r.correlation or 0.0), r.index),
    )


def format_correlation_table(rows):
    """Plain-text rendering of a correlation table."""
    width = max(len(r.name) for r in rows)
    lines = [f"{'feature':<{width}}  |r|", f"{'-' * width}  -----"]
    for r in rows:
        shown = "undefined" if r.correlation is None else f"{r.correlation:.3f}"
        lines.append(f"{r.name:<{width}}  {shown}")
    return "\n".join(lines)


def write_correlation_csv(stream, rows):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["feature", "correlation"])
    for r in rows:
        shown = "undefined" if r.correlation is None else f"{r.correlation:.6f}"
        writer.writerow([r.name, shown])


# ---------------------------------------------------------------------------
# summary statistics


@dataclass(frozen=True, slots=True)
class FeatureSummary:
    name: str
    mean: float
    std: float  # population formula (divisor n)
    min: float
    max: float


@dataclass(frozen=True, slots=True)
class SummaryReport:
    overall: list
    per_class: dict  # class label -> list[FeatureSummary]


def summarize(X, y=None):
    """Per-feature mean/std/min/max, overall and (with labels) per class."""
    X = check_matrix(X, n_features=len(FEATURE_NAMES))
    per_class = {}
    if y is not None:
        y = check_labels(y, n_samples=X.shape[0])
        for cls in (0, 1):
            sub = X[y == cls]
            if sub.shape[0]:
                per_class[cls] = _column_summaries(sub)
    return SummaryReport(overall=_column_summaries(X), per_class=per_class)


def _column_summaries(X):
    return [
        FeatureSummary(
            name=name,
            mean=float(X[:, j].mean()),
            std=float(X[:, j].std()),
            min=float(X[:, j].min()),
            max=float(X[:, j].max()),
        )
        for j, name in enumerate(FEATURE_NAMES)
    ]


def write_summary_csv(stream, report):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["scope", "feature", "mean", "std", "min", "max"])
    blocks = [("all", report.overall)]
    blocks += [(str(cls), rows) for cls, rows in sorted(report.per_class.items())]
    for scope, rows in blocks:
        for s in rows:
            writer.writerow(
                [scope, s.name, f"{s.mean:.6f}", f"{s.std:.6f}", f"{s.min:.6f}", f"{s.max:.6f}"]
            )


# ---------------------------------------------------------------------------
# histogram probability densities


@dataclass(frozen=True, slots=True)
class Binning:
    origin: float  # left edge of the first bin
    width: float
    count: int


@dataclass(frozen=True, slots=True)
class Histogram:
    """Per-class density histogram of one feature on a shared binning.

    ``densities`` maps class label (None when unlabeled) to a list of
    (bin_center, density) pairs covering every bin. Densities are
    class-relative frequencies divided by bin width, so each class
    integrates to 1 over the binned range.
    """

    feature_name: str
    binning: Binning
    densities: dict


def default_binning(values):
    """Unit bins centered on integers for integral data, else 50 even bins.

    Ratio-valued columns (all data within [0, 1]) bin over [0, 1]; anything
    else bins over the observed range.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.all(values == np.round(values)):
        lo = math.floor(values.min())
        hi = math.ceil(values.max())
        return Binning(origin=lo - 0.5, width=1.0, count=int(hi - lo) + 1)
    if values.min() >= 0.0 and values.max() <= 1.0:
        return Binning(origin=0.0, width=1.0 / 50.0, count=50)
    lo = float(values.min())
    hi = float(values.max())
    width = (hi - lo) / 50.0
    return Binning(origin=lo, width=width if width > 0 else 1.0, count=50)


def histogram_pdf(values, y=None, binning=None, feature_name="", weights=None):
    """Density histogram of one feature column, split by class when labeled.

    Values on a bin edge belong to the right bin except at the very top of
    the range, which closes the last bin (so ratio 1.0 lands in bin 49 of a
    [0,1] binning). ``weights``, when given, holds the number of rows each
    value stands for, so distinct values with their counts give the same
    densities as the rows themselves.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot histogram an empty value list")
    if not np.all(np.isfinite(values)):
        raise ValueError("histogram values must be finite")
    if binning is None:
        binning = default_binning(values)
    if binning.count < 1 or binning.width <= 0:
        raise ValueError(f"invalid binning {binning!r}")
    if weights is None:
        weights = np.ones(values.size, dtype=np.int64)
    weights = np.asarray(weights)
    if weights.shape != values.shape:
        raise ValueError(f"{weights.size} weights for {values.size} values")

    if y is None:
        groups = {None: (values, weights)}
    else:
        y = check_labels(y, n_samples=values.shape[0])
        groups = {int(cls): (values[y == cls], weights[y == cls])
                  for cls in np.flatnonzero(np.bincount(y))}

    centers = binning.origin + (np.arange(binning.count) + 0.5) * binning.width
    densities = {}
    for cls, (sub, w) in groups.items():
        idx = np.floor((sub - binning.origin) / binning.width).astype(np.int64)
        idx = np.clip(idx, 0, binning.count - 1)
        counts = np.bincount(idx, weights=w, minlength=binning.count)
        dens = counts / (w.sum() * binning.width)
        densities[cls] = list(zip(centers.tolist(), dens.tolist()))
    return Histogram(feature_name=feature_name, binning=binning, densities=densities)


def write_histogram_csv(stream, hist):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["class", "bin_center", "density"])
    for cls in sorted(hist.densities, key=lambda c: (c is None, c)):
        label = "all" if cls is None else str(cls)
        for center, density in hist.densities[cls]:
            writer.writerow([label, f"{center:.6f}", f"{density:.6f}"])
