import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainsift.base import check_labels, distinct_rows


def _matrices():
    """Finite matrices with heavy duplication: few cell values, any scale."""
    shape = st.tuples(st.integers(1, 60), st.integers(1, 5))
    scale = st.sampled_from([1.0, 0.5, -3.0, 1e-300, 1e300, 5e307])
    pool = st.lists(st.integers(-3, 3), min_size=1, max_size=4)

    @st.composite
    def build(draw):
        n, d = draw(shape)
        values = np.array(draw(pool), dtype=np.float64) * draw(scale)
        picks = draw(st.lists(st.integers(0, values.size - 1),
                              min_size=n * d, max_size=n * d))
        return values[picks].reshape(n, d)

    return build()


class TestDistinctRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(X=_matrices())
    def test_matches_np_unique(self, X):
        expected = np.unique(X, axis=0, return_inverse=True, return_counts=True)
        got = distinct_rows(X)
        assert got.inverse.ndim == 1
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(have, want)
            assert have.dtype == want.dtype
        if not np.any((X == 0) & np.signbit(X)):  # -0.0 and 0.0 are one row, either bytes
            assert got.rows.tobytes() == expected[0].tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(X=st.lists(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
                      min_size=1, max_size=30).map(np.array))
    def test_matches_np_unique_on_any_values(self, X):
        expected = np.unique(X, axis=0, return_inverse=True, return_counts=True)
        for want, have in zip(expected, distinct_rows(X)):
            np.testing.assert_array_equal(have, want)

    def test_rows_rebuild_the_matrix(self):
        X = np.array([[2.0, 1.0], [0.0, 5.0], [2.0, 1.0], [0.0, -5.0], [2.0, 1.0]])
        rows, inverse, counts = distinct_rows(X)
        np.testing.assert_array_equal(rows, [[0.0, -5.0], [0.0, 5.0], [2.0, 1.0]])
        np.testing.assert_array_equal(rows[inverse], X)
        np.testing.assert_array_equal(counts, [1, 1, 3])

    def test_single_row(self):
        rows, inverse, counts = distinct_rows(np.array([[4.0, -1.0]]))
        np.testing.assert_array_equal(rows, [[4.0, -1.0]])
        assert inverse.tolist() == [0] and counts.tolist() == [1]


@pytest.mark.parametrize("y,message", [
    ([0, 2, 1, 2], "y must contain only 0/1 labels, got array([0, 1, 2])"),
    ([0.5, 1.0], "y must contain only 0/1 labels, got array([0.5, 1. ])"),
])
def test_check_labels_names_the_distinct_values(y, message):
    with pytest.raises(ValueError) as exc:
        check_labels(np.array(y))
    assert str(exc.value) == message


def test_check_labels_accepts_0_1_values_of_any_dtype():
    for y in ([0, 1, 1], [0.0, 1.0], [True, False], []):
        assert check_labels(np.array(y)).dtype == np.int64
