import io
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from domainsift import corpus, features
from domainsift.base import distinct_rows
from domainsift.corpus import DomainTable
from domainsift.features import (
    FEATURE_NAMES,
    N_FEATURES,
    distinct_features,
    domain_features,
    extract_features,
    write_feature_csv,
)

from conftest import read_back_features


def naive_features(domain):
    """Brute-force tally, written independently of the vectorized extractor."""
    letters = [c for c in domain if c in string.ascii_lowercase]
    digits = [c for c in domain if c in string.digits]
    n = len(domain)
    u = len(set(domain))
    ul = len(set(letters))
    ud = len(set(digits))
    return (n, u, ul, ud, len(letters) / n, len(digits) / n, ul / u, ud / u)


class TestDomainFeatures:
    @pytest.mark.parametrize(
        "domain,expected",
        [
            ("mydaily", (7, 6, 6, 0, 1.0, 0.0, 1.0, 0.0)),
            ("paypa1", (6, 4, 3, 1, 5 / 6, 1 / 6, 0.75, 0.25)),
            ("a", (1, 1, 1, 0, 1.0, 0.0, 1.0, 0.0)),
        ],
    )
    def test_known_vectors(self, domain, expected):
        np.testing.assert_allclose(domain_features(domain), expected, rtol=0, atol=1e-12)

    def test_non_alnum_counts_toward_len_and_uniq_only(self):
        # "a-b": len 3, uniq 3, letters {a,b}, no digits
        got = domain_features("a-b")
        np.testing.assert_allclose(got, (3, 3, 2, 0, 2 / 3, 0.0, 2 / 3, 0.0))

    def test_digits_only(self):
        got = domain_features("12321")
        np.testing.assert_allclose(got, (5, 3, 0, 3, 0.0, 1.0, 0.0, 1.0))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            domain_features("")

    def test_non_string_raises(self):
        with pytest.raises(TypeError):
            domain_features(42)

    def test_fuzz_matches_naive_tally(self, rng):
        alphabet = list(string.ascii_lowercase + string.digits + "-_.")
        for _ in range(500):
            n = int(rng.integers(1, 40))
            s = "".join(rng.choice(alphabet, size=n))
            np.testing.assert_allclose(domain_features(s), naive_features(s), atol=1e-12)

    def test_uppercase_not_counted_as_letters(self):
        # extractor trusts its input is normalized; uppercase is "other"
        got = domain_features("AB")
        np.testing.assert_allclose(got, (2, 2, 0, 0, 0.0, 0.0, 0.0, 0.0))


class TestExtractFeatures:
    def test_shape_and_values(self):
        X, _ = extract_features(["mydaily", "paypa1"])
        assert X.shape == (2, N_FEATURES)
        np.testing.assert_allclose(X[0], domain_features("mydaily"))

    def test_rejects_bare_string(self):
        with pytest.raises(TypeError, match="single str"):
            extract_features("mydaily")

    def test_row_error_names_row(self):
        with pytest.raises(ValueError, match="row 1: cannot extract features from an empty"):
            extract_features(["ok", ""])
        with pytest.raises(TypeError, match="row 2: domain must be str, got int"):
            extract_features(["ok", "fine", 5, ""])
        with pytest.raises(ValueError, match="row 0: "):
            extract_features(["", 5])
        with pytest.raises(TypeError, match="row 1: domain must be str, got NoneType"):
            extract_features(DomainTable(["a", "b"], ["a", None]))

    def test_table_columns(self):
        table = DomainTable(["www.a.com", "b.com"], ["mydaily", "qx7r1z9k2m4p"],
                            np.array([0, 1]))
        X, y = extract_features(table)
        np.testing.assert_array_equal(X, np.stack([domain_features("mydaily"),
                                                   domain_features("qx7r1z9k2m4p")]))
        assert y is table.label
        assert extract_features(DomainTable(["a.com"], ["a"]))[1] is None

    def test_nul_is_a_character_not_padding(self):
        X, _ = extract_features(["a\x00", "\x00\x00", "ab"])
        np.testing.assert_array_equal(X[0], domain_features("a\x00"))
        np.testing.assert_array_equal(X[1], (2, 1, 0, 0, 0.0, 0.0, 0.0, 0.0))

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        domains=st.lists(
            st.text(
                st.one_of(
                    st.sampled_from("abcxyz0129-._ABZ\x00\x01é\u00ff\u0100ü"),
                    st.characters(max_codepoint=0x10FFFF),
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=20,
        ),
        cells=st.integers(1, 64),
    )
    def test_matches_per_row_oracle(self, monkeypatch, domains, cells):
        monkeypatch.setattr(features, "FEATURE_BLOCK_CELLS", cells)
        X, y = extract_features(domains)
        assert y is None
        np.testing.assert_array_equal(X, np.stack([domain_features(d) for d in domains]))

    def test_labeled_records(self):
        table = DomainTable(["a.com", "b.com"], ["mydaily", "qx7r1z9k2m4p"],
                            label=np.array([0, 1]))
        X, y = extract_features(table)
        assert X.shape == (2, 8)
        assert y.tolist() == [0, 1]

    def test_unlabeled_records_give_no_y(self):
        X, y = extract_features(DomainTable(["a.com"], ["mydaily"]))
        assert X.shape == (1, 8) and y is None

    def test_plain_strings(self):
        X, y = extract_features(["mydaily", "paypa1"])
        assert X.shape == (2, 8) and y is None


# names for the distinct_features property test: a-z, 0-9, ".-_", two letters
# that are not a-z and an embedded NUL, at lengths 1 to 253, and two names of
# 1023 characters, the longest a key holds
KEY_ALPHABET = string.ascii_lowercase + string.digits + ".-_éж\x00"
KEY_NAMES = st.one_of(
    st.sampled_from(["a", "7", "\x00", "ж", "x" * 253, ("a1-" * 85)[:253], "é9" * 126 + "z",
                     "q" * 1023, "a1-" * 341]),
    st.text(st.sampled_from(KEY_ALPHABET), min_size=1, max_size=16),
    st.text(st.sampled_from(KEY_ALPHABET), min_size=240, max_size=253),
)


@st.composite
def many_copies_of_few_names(draw):
    pool = draw(st.lists(KEY_NAMES, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))


class TestDistinctFeatures:
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(domains=st.one_of(many_copies_of_few_names(), st.lists(KEY_NAMES, min_size=1,
                                                                     max_size=30)),
           cells=st.sampled_from([1, 7, 300, features.FEATURE_BLOCK_CELLS]))
    def test_matches_distinct_rows_of_the_matrix(self, monkeypatch, domains, cells):
        monkeypatch.setattr(features, "FEATURE_BLOCK_CELLS", cells)
        got = distinct_features(domains)
        want = distinct_rows(np.stack([domain_features(d) for d in domains]))
        assert got.rows.shape == want.rows.shape
        assert got.rows.tobytes() == want.rows.tobytes()
        assert got.inverse.dtype == want.inverse.dtype
        assert got.inverse.tobytes() == want.inverse.tobytes()
        assert got.counts.dtype == want.counts.dtype
        assert got.counts.tobytes() == want.counts.tobytes()

    @pytest.mark.parametrize("cells", [1, features.FEATURE_BLOCK_CELLS])
    def test_name_too_long_for_the_key(self, monkeypatch, cells):
        monkeypatch.setattr(features, "FEATURE_BLOCK_CELLS", cells)
        for extract in (distinct_features, extract_features):
            extract(["a" * 1023])
            with pytest.raises(ValueError, match="row 2: a name of 1024 characters .* at most 1023"):
                extract(["ok", "fine", "b" * 1024, "c" * 1100])

    def test_corpus_names_fit_the_key(self):
        # every count of a name is at most its length, and a key field holds _KEY_BITS bits
        assert corpus.MAX_NAME_LENGTH < 2**features._KEY_BITS

    def test_row_errors_and_bare_string(self):
        with pytest.raises(TypeError, match="single str"):
            distinct_features("mydaily")
        with pytest.raises(ValueError, match="row 1: cannot extract features from an empty"):
            distinct_features(["ok", ""])


class TestFeatureCsv:
    def test_header_and_formats(self):
        X, y = extract_features(["paypa1"])
        buf = io.StringIO()
        write_feature_csv(buf, X, np.array([1]))
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(FEATURE_NAMES) + ",label"
        cells = lines[1].split(",")
        assert cells[:4] == ["6", "4", "3", "1"]  # counts are integral
        assert cells[4] == "0.833333"  # ratios carry 6 decimals
        assert cells[6] == "0.750000"
        assert cells[-1] == "1"

    def test_roundtrip(self, rng):
        domains = ["mydaily", "paypa1", "abc123xyz", "z"]
        X, _ = extract_features(domains)
        y = np.array([0, 1, 1, 0])
        buf = io.StringIO()
        write_feature_csv(buf, X, y)
        buf.seek(0)
        X2, y2 = read_back_features(buf)
        np.testing.assert_allclose(X2, X, atol=1e-6)
        assert y2.tolist() == y.tolist()

    def test_roundtrip_unlabeled(self):
        X, _ = extract_features(["mydaily"])
        buf = io.StringIO()
        write_feature_csv(buf, X)
        buf.seek(0)
        X2, y2 = read_back_features(buf)
        assert y2 is None and X2.shape == (1, 8)
