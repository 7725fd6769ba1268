"""BoundedDraws against the per-draw numpy calls it replaces."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainsift import draws as draws_module
from domainsift.draws import CHUNK, BoundedDraws
from domainsift.synthetic import (
    DGA_ALPHABET,
    DGA_MAX_LEN,
    DGA_MIN_LEN,
    generate_census,
    generate_labeled_corpus,
    load_wordlist,
)


# ranges that drop many values (2**32 % r is near r) and the ranges generate uses
RANGES = st.one_of(
    st.sampled_from([1, 2, 5, 14, 36, 1279, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]),
    st.integers(1, 2**32),
)


class TestBoundedDraws:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        chunk=st.sampled_from([1, 2, 3, 8, CHUNK]),
        calls=st.lists(st.tuples(RANGES, st.integers(0, 5)), max_size=25),
    )
    def test_below_matches_one_call_per_draw(self, seed, chunk, calls):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(draws_module, "CHUNK", chunk):
            draws = BoundedDraws(rng)
            got = [draws.below(r, k) for r, k in calls]
            draws.close()
        assert got == [[int(ref.integers(0, r)) for _ in range(k)] for r, k in calls]
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(1, 255, size=8).tolist() == ref.integers(1, 255, size=8).tolist()

    @staticmethod
    def names_one_call_per_draw(rng, n, lengths, symbols, seen):
        """The per-draw loop BoundedDraws.names replaces, and its draw count."""
        out, n_draws = [], 0
        while len(out) < n:
            count = lengths[int(rng.integers(0, len(lengths)))]
            name = "".join(symbols[i] for i in rng.integers(0, len(symbols), size=count))
            n_draws += 1 + count
            if name not in seen:
                seen.add(name)
                out.append(name)
        return out, n_draws

    def check_names(self, seed, chunk, n, lengths, symbols, seen=()):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        expected, n_draws = self.names_one_call_per_draw(ref, n, lengths, symbols, set(seen))
        with mock.patch.object(draws_module, "CHUNK", chunk):
            draws = BoundedDraws(rng)
            assert draws.names(n, lengths, symbols, set(seen)) == expected
            draws.close()
        assert rng.bit_generator.state == ref.bit_generator.state
        return n_draws

    @pytest.mark.parametrize("chunk", [1, 2, 5, 16, 1000])
    def test_names_across_chunk_boundaries(self, chunk):
        words = load_wordlist()
        self.check_names(11, chunk, 150, (2, 3), words)
        self.check_names(12, chunk, 60, range(DGA_MIN_LEN, DGA_MAX_LEN + 1), DGA_ALPHABET)
        # few distinct names: many are drawn again and skipped, some were seen before
        self.check_names(13, chunk, 25, (1, 2), "abcdef", seen=("a", "ab", "fe"))

    @pytest.mark.parametrize("chunk", [64, CHUNK])
    def test_names_skip_dropped_values(self, chunk):
        big = 2**20 + 1  # drops 1 value in about 4,100: 2**32 % big == 1,044,481
        lengths = tuple(1 + i % 3 for i in range(big))
        symbols = tuple(f"{i % 997:03d}" for i in range(big))
        n_draws = self.check_names(21, chunk, 8000, lengths, symbols)
        raw = np.random.default_rng(21).integers(0, 2**32, size=n_draws, dtype=np.uint32)
        dropped = (raw.astype(np.uint64) * big) & 0xFFFFFFFF < 2**32 % big
        assert dropped.sum() >= 3  # the run did meet values the rule drops

    def test_generators_do_not_depend_on_chunk(self):
        def outputs():
            census = generate_census(n=500, dga_fraction=0.3, seed=4)
            corpus = generate_labeled_corpus(n_legit=80, n_dga=60, seed=4)
            return [list(part) for part in (*census, *corpus)]

        default = outputs()
        with mock.patch.object(draws_module, "CHUNK", 3):
            assert outputs() == default
