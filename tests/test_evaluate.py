import io

import numpy as np
import pytest

from domainsift.evaluate import (
    ConfusionMatrix,
    confusion,
    evaluate_all,
    format_report,
    metrics,
    stratified_kfold,
    stratified_split,
    summarize_folds,
    write_report_csv,
)
from domainsift.learners import C45Tree


def brute_force_counts(predictions, truths):
    tp = fp = tn = fn = 0
    for p, t in zip(predictions, truths):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


class TestConfusion:
    def test_matches_brute_force(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 60))
            p = rng.integers(0, 2, size=n)
            t = rng.integers(0, 2, size=n)
            cm = confusion(p, t)
            assert (cm.tp, cm.fp, cm.tn, cm.fn) == brute_force_counts(p, t)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion(np.array([], dtype=np.int64), np.array([], dtype=np.int64))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            confusion(np.array([0, 2]), np.array([0, 1]))


class TestMetrics:
    def test_known_values(self):
        m = metrics(ConfusionMatrix(tp=50, fp=10, tn=30, fn=10))
        assert m.accuracy == pytest.approx(0.80)
        assert m.precision == pytest.approx(50 / 60)
        assert m.recall == pytest.approx(50 / 60)
        assert m.f_score == pytest.approx(50 / 60)
        assert m.undefined == ()

    def test_zero_precision_denominator(self):
        # no positive predictions at all
        m = metrics(ConfusionMatrix(tp=0, fp=0, tn=5, fn=5))
        assert m.precision == 0.0
        assert "precision" in m.undefined

    def test_zero_recall_denominator(self):
        # no actual positives
        m = metrics(ConfusionMatrix(tp=0, fp=3, tn=7, fn=0))
        assert m.recall == 0.0
        assert "recall" in m.undefined

    def test_zero_f_denominator(self):
        m = metrics(ConfusionMatrix(tp=0, fp=0, tn=5, fn=5))
        assert m.f_score == 0.0
        assert "f_score" in m.undefined

    def test_perfect(self):
        m = metrics(ConfusionMatrix(tp=5, fp=0, tn=5, fn=0))
        assert m.accuracy == m.precision == m.recall == m.f_score == 1.0

    def test_empty_total_rejected(self):
        with pytest.raises(ValueError):
            metrics(ConfusionMatrix(0, 0, 0, 0))


class TestStratifiedSplit:
    def test_small_balanced_example(self):
        # 10 rows, 5 per class, fraction 0.2 -> exactly 1 test row per class
        y = np.array([0, 1] * 5)
        train, test = stratified_split(y, test_fraction=0.2, seed=42)
        assert test.size == 2
        assert y[test].tolist().count(0) == 1
        assert y[test].tolist().count(1) == 1
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))

    def test_rounding_half_up(self):
        # 5 per class at 0.3 -> floor(5*0.3+0.5)=2 test rows per class
        y = np.repeat([0, 1], 5)
        _, test = stratified_split(y, test_fraction=0.3, seed=0)
        assert y[test].sum() == 2 and test.size == 4

    def test_clamps_to_leave_one_train(self):
        y = np.repeat([0, 1], 2)
        train, test = stratified_split(y, test_fraction=0.99, seed=0)
        for cls in (0, 1):
            assert (y[train] == cls).sum() >= 1
            assert (y[test] == cls).sum() >= 1

    def test_deterministic(self):
        y = np.tile([0, 0, 1], 30)
        a = stratified_split(y, seed=42)
        b = stratified_split(y, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_seed_changes_split(self):
        y = np.tile([0, 1], 50)
        a = stratified_split(y, seed=1)[1]
        b = stratified_split(y, seed=2)[1]
        assert not np.array_equal(a, b)

    def test_proportions(self, rng):
        y = (rng.random(1000) < 0.4).astype(np.int64)
        train, test = stratified_split(y, test_fraction=0.3, seed=42)
        assert y[test].mean() == pytest.approx(y.mean(), abs=0.01)
        assert test.size == pytest.approx(300, abs=2)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(np.zeros(10, dtype=np.int64))

    def test_bad_fraction_rejected(self):
        y = np.tile([0, 1], 5)
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                stratified_split(y, test_fraction=frac)

    def test_tiny_class_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(np.array([0, 1, 1, 1]))


class TestStratifiedKFold:
    def test_partition(self):
        y = np.tile([0, 1], 25)
        folds = stratified_kfold(y, n_folds=5, seed=42)
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(50))
        for train, test in folds:
            assert set(train) | set(test) == set(range(50))
            assert set(train) & set(test) == set()

    def test_each_fold_has_both_classes(self):
        y = np.tile([0, 0, 0, 1], 20)
        for train, test in stratified_kfold(y, n_folds=4, seed=0):
            assert len(np.unique(y[test])) == 2
            assert len(np.unique(y[train])) == 2

    def test_class_smaller_than_folds_rejected(self):
        y = np.array([0] * 20 + [1] * 3)
        with pytest.raises(ValueError):
            stratified_kfold(y, n_folds=5)

    def test_deterministic(self):
        y = np.tile([0, 1], 20)
        a = stratified_kfold(y, n_folds=4, seed=9)
        b = stratified_kfold(y, n_folds=4, seed=9)
        for (ta, sa), (tb, sb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(sa, sb)


class TestEvaluateAll:
    def test_rows_and_relabel_invariance(self, blobs):
        X, y = blobs
        model = C45Tree().fit(X, y)
        rows = evaluate_all([("tree", model)], X, y)
        assert len(rows) == 1
        name, cm, m = rows[0]
        assert name == "tree"
        assert cm.total == X.shape[0]
        assert m.accuracy == pytest.approx((model.predict(X) == y).mean())

    def test_accepts_predictor_objects(self, blobs):
        X, y = blobs
        model = C45Tree().fit(X, y)
        rows = evaluate_all([("tree", model)], X, y)
        assert rows[0][2].accuracy > 0.9


class TestSummarizeFolds:
    def test_mean_and_population_std(self):
        cms = [ConfusionMatrix(tp=50, fp=10, tn=30, fn=10),
               ConfusionMatrix(tp=40, fp=0, tn=40, fn=20),
               ConfusionMatrix(tp=45, fp=5, tn=45, fn=5)]
        folds = [metrics(cm) for cm in cms]
        result = summarize_folds(folds)
        assert result.fold_metrics == folds
        for field in ("accuracy", "precision", "recall", "f_score"):
            values = [getattr(m, field) for m in folds]
            assert getattr(result.mean, field) == pytest.approx(np.mean(values))
            assert getattr(result.std, field) == pytest.approx(np.std(values, ddof=0))
        assert result.std.accuracy > 0


class TestReportFormats:
    def make_rows(self):
        cm = ConfusionMatrix(tp=50, fp=10, tn=30, fn=10)
        return [("clf", cm, metrics(cm))]

    def test_csv_format(self):
        buf = io.StringIO()
        write_report_csv(buf, self.make_rows())
        lines = buf.getvalue().splitlines()
        assert lines[0] == "classifier,accuracy,precision,recall,f_score"
        assert lines[1] == "clf,80.0,83.3,83.3,0.83"

    def test_console_format(self):
        text = format_report(self.make_rows())
        assert "clf" in text and "80.0%" in text and "0.83" in text
