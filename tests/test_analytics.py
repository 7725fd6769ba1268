import io
import math

import numpy as np
import pytest

from domainsift.analytics import (
    Binning,
    UndefinedCorrelationError,
    correlation,
    correlation_table,
    default_binning,
    format_correlation_table,
    histogram_pdf,
    summarize,
    write_correlation_csv,
    write_histogram_csv,
    write_summary_csv,
)
from domainsift.features import FEATURE_NAMES


class TestCorrelation:
    def test_known_value(self):
        # |Pearson| of x=[1,2,3,4] vs y=[0,0,1,1] is 2/sqrt(5)
        got = correlation(np.array([1.0, 2, 3, 4]), np.array([0.0, 0, 1, 1]))
        assert got == pytest.approx(0.8944271909999159, abs=1e-4)

    def test_absolute_value(self):
        x = np.array([1.0, 2, 3, 4])
        assert correlation(x, -x) == pytest.approx(1.0)
        assert correlation(x, x) == pytest.approx(1.0)

    def test_perfect_line(self):
        x = np.linspace(0, 5, 20)
        assert correlation(x, 3 * x + 1) == pytest.approx(1.0)

    def test_constant_input_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            correlation(np.ones(4), np.array([0.0, 1, 0, 1]))
        with pytest.raises(UndefinedCorrelationError):
            correlation(np.array([0.0, 1, 0, 1]), np.ones(4))

    def test_matches_manual_formula(self, rng):
        for _ in range(25):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            sx, sy = x - x.mean(), y - y.mean()
            want = abs(float(sx @ sy) / math.sqrt(float(sx @ sx) * float(sy @ sy)))
            assert correlation(x, y) == pytest.approx(want, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            correlation(np.array([1.0]), np.array([2.0]))


class TestCorrelationTable:
    def test_sorted_descending(self, rng):
        X = rng.normal(size=(50, 8))
        y = rng.integers(0, 2, size=50)
        y[0], y[1] = 0, 1
        rows = correlation_table(X, y)
        values = [r.correlation for r in rows]
        assert values == sorted(values, reverse=True)
        assert {r.name for r in rows} == set(FEATURE_NAMES)

    def test_undefined_rows_sort_last(self):
        # ratio_letters varies; every other column is constant
        X = np.ones((6, 8))
        X[:, 4] = np.arange(6.0)
        y = np.array([0, 0, 0, 1, 1, 1])
        rows = correlation_table(X, y)
        assert rows[0].name == "ratio_letters"
        assert [r.name for r in rows[1:]] == [n for n in FEATURE_NAMES if n != "ratio_letters"]
        assert all(r.correlation is None for r in rows[1:])

    def test_csv_output(self):
        X = np.ones((4, 8))
        X[:, 0] = np.arange(4.0)
        y = np.array([0, 0, 1, 1])
        rows = correlation_table(X, y)
        buf = io.StringIO()
        write_correlation_csv(buf, rows)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "feature,correlation"
        assert lines[1].startswith("len,")
        assert lines[2] == "uniq_chars,undefined"

    def test_format_table_is_text(self):
        X = np.ones((4, 8))
        X[:, 0] = np.arange(4.0)
        y = np.array([0, 0, 1, 1])
        text = format_correlation_table(correlation_table(X, y))
        assert "len" in text and "0.894" in text

    def test_other_widths_refused(self):
        with pytest.raises(ValueError, match="X has 2 features, expected 8"):
            correlation_table(np.ones((4, 2)), np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError, match="X has 9 features, expected 8"):
            summarize(np.ones((4, 9)))


class TestHistogram:
    def test_unit_bins_for_integral_data(self):
        # values {3,3,4}: bins centered on ints, densities 2/3 and 1/3
        hist = histogram_pdf(np.array([3.0, 3.0, 4.0]), feature_name="len")
        pairs = dict(hist.densities[None])
        assert pairs[3.0] == pytest.approx(2 / 3)
        assert pairs[4.0] == pytest.approx(1 / 3)

    def test_density_integrates_to_one(self, rng):
        values = rng.normal(size=400) * 3 + 10
        hist = histogram_pdf(values, feature_name="x")
        total = sum(d for _, d in hist.densities[None]) * hist.binning.width
        assert total == pytest.approx(1.0)

    def test_per_class_split(self):
        values = np.array([1.0, 1.0, 2.0, 5.0])
        y = np.array([0, 0, 0, 1])
        hist = histogram_pdf(values, y, feature_name="x")
        assert set(hist.densities) == {0, 1}
        d0 = dict(hist.densities[0])
        assert d0[1.0] == pytest.approx(2 / 3)
        d1 = dict(hist.densities[1])
        assert d1[5.0] == pytest.approx(1.0)

    def test_ratio_data_uses_unit_interval(self):
        hist = histogram_pdf(np.array([0.1, 0.5, 0.9]), feature_name="r")
        b = hist.binning
        assert b.origin == pytest.approx(0.0)
        assert b.count == 50
        assert b.origin + b.width * b.count == pytest.approx(1.0)

    def test_explicit_binning_respected(self):
        b = Binning(origin=0.0, width=2.0, count=3)
        hist = histogram_pdf(np.array([1.0, 3.0, 5.0]), binning=b, feature_name="x")
        centers = [c for c, _ in hist.densities[None]]
        assert centers == [1.0, 3.0, 5.0]

    def test_weights_stand_for_repeated_values(self, rng):
        values = rng.normal(size=300).round(1)
        y = (values > 0.3).astype(np.int64)
        distinct, counts = np.unique(values, return_counts=True)
        assert histogram_pdf(distinct, distinct > 0.3, weights=counts) == histogram_pdf(values, y)
        with pytest.raises(ValueError, match="weights"):
            histogram_pdf(distinct, weights=counts[1:])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            histogram_pdf(np.array([]), feature_name="x")

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            histogram_pdf(np.array([1.0, np.nan]), feature_name="x")

    def test_csv_output(self):
        hist = histogram_pdf(np.array([3.0, 3.0, 4.0]), np.array([0, 0, 1]),
                             feature_name="len")
        buf = io.StringIO()
        write_histogram_csv(buf, hist)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "class,bin_center,density"
        assert any(line.startswith("0,") for line in lines[1:])
        assert any(line.startswith("1,") for line in lines[1:])

    def test_default_binning_integral(self):
        b = default_binning(np.array([3.0, 7.0]))
        assert b.origin == pytest.approx(2.5)
        assert b.width == pytest.approx(1.0)
        assert b.count == 5


class TestSummarize:
    def test_overall_and_per_class(self):
        X = np.zeros((4, 8))
        X[:, 0] = [1.0, 3.0, 5.0, 7.0]
        X[:, 1] = [10.0, 10.0, 40.0, 40.0]
        y = np.array([0, 0, 1, 1])
        report = summarize(X, y)
        assert [s.name for s in report.overall] == list(FEATURE_NAMES)
        overall = {s.name: s for s in report.overall}
        assert overall["len"].mean == pytest.approx(4.0)
        assert overall["len"].min == 1.0 and overall["len"].max == 7.0
        # population std of [1,3,5,7] is sqrt(5)
        assert overall["len"].std == pytest.approx(math.sqrt(5.0))
        per0 = {s.name: s for s in report.per_class[0]}
        assert per0["uniq_chars"].mean == pytest.approx(10.0)

    def test_unlabeled(self):
        X = np.array([[1.0] * 8, [2.0] * 8])
        report = summarize(X)
        assert report.per_class == {}

    def test_csv(self):
        X = np.array([[1.0] * 8, [2.0] * 8])
        y = np.array([0, 1])
        buf = io.StringIO()
        write_summary_csv(buf, summarize(X, y))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "scope,feature,mean,std,min,max"
        scopes = {line.split(",")[0] for line in lines[1:]}
        assert scopes == {"all", "0", "1"}
