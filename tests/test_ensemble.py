import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainsift.base import NotFittedError, ParamsMixin
from domainsift.ensemble import (
    MEMBER_KINDS,
    SCALED_KINDS,
    MajorityVoteEnsemble,
    default_members,
)
from domainsift.learners import (
    C45Tree,
    GaussianNaiveBayes,
    KNNClassifier,
    LogisticRegressionGD,
    PegasosSVM,
)
from domainsift.model_io import ModelKindError, save_model

from conftest import make_blobs, roundtrip, saved_bytes


def direct_votes(ens, Q):
    """Each member's own predict on Q, scaled first where the member is a scaled kind."""
    Qs = ens.standardizer_.transform(Q)
    return np.column_stack(
        [estimator.predict(Qs if name in SCALED_KINDS else Q) for name, estimator in ens.members_]
    )


class ConstantVoter(ParamsMixin):
    """Stub member that always votes its configured label."""

    def __init__(self, vote=0):
        self.vote = vote

    def fit(self, X, y):
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X):
        return np.full(X.shape[0], self.vote, dtype=np.int64)


class FailingLearner(ParamsMixin):
    def fit(self, X, y):
        raise ValueError("synthetic failure")

    def predict(self, X):  # pragma: no cover
        return np.zeros(X.shape[0], dtype=np.int64)


def stub_members(votes):
    return [(f"m{i}", ConstantVoter(vote=v)) for i, v in enumerate(votes)]


@pytest.fixture(scope="module")
def fitted(request):
    X, y = make_blobs(n_per_class=40, seed=7)
    return MajorityVoteEnsemble(seed=0).fit(X, y), X, y


class TestMembers:
    def test_default_member_kinds(self):
        members = default_members()
        assert tuple(name for name, _ in members) == MEMBER_KINDS
        assert [type(estimator) for _, estimator in members] == [
            C45Tree, KNNClassifier, LogisticRegressionGD, GaussianNaiveBayes, PegasosSVM]

    def test_member_params_forwarded(self):
        members = default_members(member_params={"knn": {"k": 3}})
        assert dict(members)["knn"].k == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            default_members(member_params={"bogus": {}})


class TestVoting:
    def test_all_32_vote_patterns(self):
        # oracle: popcount >= 3 -> DGA
        X = np.zeros((1, 2))
        y_any = np.array([0, 1])
        X_fit = np.zeros((2, 2))
        for pattern in itertools.product((0, 1), repeat=5):
            ens = MajorityVoteEnsemble(members=stub_members(pattern)).fit(X_fit, y_any)
            want = 1 if sum(pattern) >= 3 else 0
            assert ens.predict(X)[0] == want, pattern

    def test_vote_matrix_columns_match_members(self, fitted):
        ens, X, y = fitted
        votes = ens.vote_matrix(X[:10])
        assert votes.shape == (10, 5)
        np.testing.assert_array_equal(votes, direct_votes(ens, X[:10]))
        for j, name in enumerate(ens.member_names()):
            np.testing.assert_array_equal(votes[:, j], ens.member_predict(name, X[:10]))

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

    def test_fingerprint_is_raw_not_scaled(self, fitted):
        from domainsift.base import corpus_fingerprint

        ens, X, y = fitted
        assert ens.fingerprint_["sha256"] == corpus_fingerprint(X, y)["sha256"]

    def test_scaled_members_see_standardized_features(self, fitted):
        ens, X, y = fitted
        # knn stores its training matrix as distinct rows; it must be the standardized one
        knn = dict(ens.members_)["knn"]
        np.testing.assert_allclose(knn.X_[knn.row_], ens.standardizer_.transform(X), atol=1e-12)

    def test_member_failure_names_member(self):
        members = stub_members((0, 0, 0, 0)) + [("boom", FailingLearner())]
        with pytest.raises(RuntimeError, match="boom"):
            MajorityVoteEnsemble(members=members).fit(np.zeros((4, 2)),
                                                      np.array([0, 1, 0, 1]))

    def test_requires_exactly_five_members(self):
        with pytest.raises(ValueError, match="5"):
            MajorityVoteEnsemble(members=stub_members((0, 1, 0))).fit(
                np.zeros((2, 2)), np.array([0, 1])
            )

    def test_duplicate_member_names_rejected(self):
        members = [("same", ConstantVoter()) for _ in range(5)]
        with pytest.raises(ValueError, match="unique"):
            MajorityVoteEnsemble(members=members).fit(np.zeros((2, 2)), np.array([0, 1]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            MajorityVoteEnsemble().fit(np.zeros((3, 2)), np.zeros(3, dtype=np.int64))

    def test_unknown_member_name_in_predict(self, fitted):
        ens, X, y = fitted
        with pytest.raises(KeyError):
            ens.member_predict("nope", X)

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            MajorityVoteEnsemble().predict(np.zeros((1, 2)))


class TestDeterminismAndState:
    def test_same_seed_same_model(self, tmp_path):
        X, y = make_blobs(n_per_class=30, seed=2)
        a = MajorityVoteEnsemble(seed=5).fit(X, y)
        b = MajorityVoteEnsemble(seed=5).fit(X, y)
        assert saved_bytes(a, tmp_path / "a.dsmodel") == saved_bytes(b, tmp_path / "b.dsmodel")

    def test_state_roundtrip_predictions(self, fitted, rng, tmp_path):
        ens, X, y = fitted
        clone = roundtrip(ens, tmp_path)
        Q = rng.normal(size=(50, X.shape[1])) * X.std(axis=0) + X.mean(axis=0)
        np.testing.assert_array_equal(ens.predict(Q), clone.predict(Q))
        np.testing.assert_array_equal(ens.vote_matrix(Q), clone.vote_matrix(Q))

    def test_stub_members_not_serializable(self, tmp_path):
        ens = MajorityVoteEnsemble(members=stub_members((0, 0, 0, 1, 1)))
        ens.fit(np.zeros((2, 2)), np.array([0, 1]))
        with pytest.raises(ModelKindError, match="ConstantVoter"):
            save_model(ens, tmp_path / "stub.dsmodel")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rearrange", [
        lambda members: members[::-1],
        lambda members: [(name.upper(), estimator) for name, estimator in members],
        lambda members: [(name, members[0][1] if name == "nb" else estimator)
                         for name, estimator in members],
    ], ids=["reordered", "renamed", "nb_is_a_tree"])
    def test_only_the_canonical_members_are_saveable(self, tmp_path, rearrange):
        # the file keys members by kind in MEMBER_KINDS order, so it could not
        # record another order, another name or another class for a kind
        X, y = make_blobs(n_per_class=10, seed=3)
        ens = MajorityVoteEnsemble(members=rearrange(default_members())).fit(X, y)
        with pytest.raises(ModelKindError, match="cannot save ensemble members"):
            save_model(ens, tmp_path / "m.dsmodel")
        assert list(tmp_path.iterdir()) == []
