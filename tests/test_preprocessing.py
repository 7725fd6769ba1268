import numpy as np
import pytest

from domainsift.base import NotFittedError
from domainsift.preprocessing import STD_FLOOR, Standardizer

from conftest import roundtrip


class TestStandardizer:
    def test_known_two_point(self):
        # {0, 2}: mean 1, population std 1 -> {-1, +1}
        X = np.array([[0.0], [2.0]])
        got = Standardizer().fit(X).transform(X)
        np.testing.assert_allclose(got, [[-1.0], [1.0]])

    def test_output_moments(self, rng):
        X = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        Z = Standardizer().fit(X).transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-6)

    def test_row_order_does_not_move_the_fit(self, rng):
        X = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        a, b = Standardizer().fit(X), Standardizer().fit(X[rng.permutation(200)])
        assert a.mean_.tobytes() == b.mean_.tobytes()
        assert a.scale_.tobytes() == b.scale_.tobytes()

    def test_constant_column_floor(self):
        X = np.full((5, 1), 7.0)
        s = Standardizer().fit(X)
        assert s.scale_[0] == STD_FLOOR
        np.testing.assert_allclose(s.transform(X), 0.0)

    def test_single_vector_refused(self):
        s = Standardizer().fit(np.array([[0.0, 10.0], [2.0, 20.0]]))
        with pytest.raises(ValueError, match="X must be 2-dimensional, got 1 dimensions"):
            s.transform(np.array([0.0, 10.0]))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            Standardizer().transform(np.zeros((1, 2)))

    def test_feature_count_mismatch(self):
        s = Standardizer().fit(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            s.transform(np.zeros((3, 5)))

    def test_state_roundtrip(self, rng, tmp_path):
        X = rng.normal(size=(20, 8))
        s = Standardizer().fit(X)
        s2 = roundtrip(s, tmp_path)
        np.testing.assert_array_equal(s.transform(X), s2.transform(X))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Standardizer().fit(np.array([[np.inf], [1.0]]))
