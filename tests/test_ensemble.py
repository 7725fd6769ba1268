import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainsift.base import NotFittedError
from domainsift.ensemble import MEMBER_KINDS, SCALED_KINDS, MajorityVoteEnsemble
from domainsift.learners import (
    C45Tree,
    GaussianNaiveBayes,
    KNNClassifier,
    LogisticRegressionGD,
    PegasosSVM,
)

from conftest import make_blobs, roundtrip, saved_bytes


def direct_votes(ens, Q):
    """Each member's own predict on Q, scaled first where the member is a scaled kind."""
    Qs = ens.standardizer_.transform(Q)
    return np.column_stack(
        [estimator.predict(Qs if name in SCALED_KINDS else Q) for name, estimator in ens.members_]
    )


class ConstantVoter:
    """Stand-in for a fitted member that always votes its configured label."""

    def __init__(self, vote=0):
        self.vote = vote

    def predict(self, X):
        return np.full(X.shape[0], self.vote, dtype=np.int64)


@pytest.fixture(scope="module")
def fitted(request):
    X, y = make_blobs(n_per_class=40, seed=7)
    return MajorityVoteEnsemble().fit(X, y), X, y


class TestMembers:
    def test_default_member_kinds(self, fitted):
        ens, _, _ = fitted
        assert tuple(name for name, _ in ens.members_) == MEMBER_KINDS
        assert [type(estimator) for _, estimator in ens.members_] == [
            C45Tree, KNNClassifier, LogisticRegressionGD, GaussianNaiveBayes, PegasosSVM]


class TestVoting:
    def test_all_32_vote_patterns(self, fitted):
        # oracle: popcount >= 3 -> DGA; a fit of its own, as its members_ are replaced
        _, X, y = fitted
        ens = MajorityVoteEnsemble().fit(X, y)
        for pattern in itertools.product((0, 1), repeat=5):
            ens.members_ = [(kind, ConstantVoter(v)) for kind, v in zip(MEMBER_KINDS, pattern)]
            want = 1 if sum(pattern) >= 3 else 0
            assert ens.predict(X[:1])[0] == want, pattern

    def test_vote_matrix_columns_match_members(self, fitted):
        ens, X, y = fitted
        votes = ens.vote_matrix(X[:10])
        assert votes.shape == (10, 5)
        np.testing.assert_array_equal(votes, direct_votes(ens, X[:10]))
        _, votes_with_names, names = ens.predict_with_votes(X[:10])
        assert names == [name for name, _ in ens.members_]
        np.testing.assert_array_equal(votes_with_names, votes)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_vote_matrix_matches_member_predict_row_by_row(self, fitted, data):
        ens, X, y = fitted
        row = st.one_of(
            st.integers(0, X.shape[0] - 1).map(lambda i: X[i]),
            st.lists(
                st.floats(-20, 20, allow_nan=False), min_size=X.shape[1], max_size=X.shape[1]
            ).map(np.array),
        )
        pool = data.draw(st.lists(row, min_size=1, max_size=5))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
        Q = np.array([pool[i] for i in picks])  # few distinct rows, many copies
        expected = np.vstack([direct_votes(ens, Q[i : i + 1]) for i in range(Q.shape[0])])
        np.testing.assert_array_equal(ens.vote_matrix(Q), expected)

    def test_predict_with_votes_consistent(self, fitted):
        ens, X, y = fitted
        labels, votes, names = ens.predict_with_votes(X[:20])
        assert names == list(MEMBER_KINDS)
        np.testing.assert_array_equal(labels, (votes.sum(axis=1) >= 3).astype(np.int64))
        np.testing.assert_array_equal(labels, ens.predict(X[:20]))


class TestFit:
    def test_accuracy_on_blobs(self, fitted):
        ens, X, y = fitted
        assert (ens.predict(X) == y).mean() >= 0.95

    def test_scaled_members_see_standardized_features(self, fitted):
        ens, X, y = fitted
        # knn stores its training matrix as distinct rows; it must be the standardized one
        knn = dict(ens.members_)["knn"]
        np.testing.assert_allclose(knn.X_[knn.row_], ens.standardizer_.transform(X), atol=1e-12)

    def test_member_failure_names_member(self):
        # 4 training rows are fewer than knn's k=5 neighbours
        X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
        with pytest.raises(RuntimeError, match="member 'knn' failed: knn needs at least k=5 training rows, got 4"):
            MajorityVoteEnsemble().fit(X, np.array([0, 1, 0, 1]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            MajorityVoteEnsemble().fit(np.zeros((3, 2)), np.zeros(3, dtype=np.int64))

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            MajorityVoteEnsemble().predict(np.zeros((1, 2)))


class TestDeterminismAndState:
    def test_same_data_same_model(self, tmp_path):
        X, y = make_blobs(n_per_class=30, seed=2)
        a = MajorityVoteEnsemble().fit(X, y)
        b = MajorityVoteEnsemble().fit(X, y)
        assert saved_bytes(a, tmp_path / "a.dsmodel") == saved_bytes(b, tmp_path / "b.dsmodel")

    def test_state_roundtrip_predictions(self, fitted, rng, tmp_path):
        ens, X, y = fitted
        clone = roundtrip(ens, tmp_path)
        Q = rng.normal(size=(50, X.shape[1])) * X.std(axis=0) + X.mean(axis=0)
        np.testing.assert_array_equal(ens.predict(Q), clone.predict(Q))
        np.testing.assert_array_equal(ens.vote_matrix(Q), clone.vote_matrix(Q))
