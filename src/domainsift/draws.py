"""Numpy's bounded integer draws, taken from the generator in bulk.

Every command imports ``synthetic`` (the package does), and without a
bytecode cache each import compiles the source. Only ``generate`` draws,
so ``synthetic`` imports this module inside its generators.
"""

from __future__ import annotations

import numpy as np

CHUNK = 1 << 14  # 32-bit values fetched per bulk draw


class BoundedDraws:
    """``rng.integers(0, r)`` draws, r in [1, 2**32], from bulk 32-bit values.

    Numpy maps one value u of the generator's 32-bit stream to a draw below r
    by Lemire's rule (ACM TOMACS 2019): with m = u * r, the draw is m >> 32,
    unless the low 32 bits of m fall below 2**32 % r, when u is dropped and
    the next value is tried; r == 1 takes no value. Here the values come
    CHUNK at a time and the rule is applied to a whole chunk at once.
    ``close`` rewinds rng to just past the last value used, so the draws and
    the final rng state are those of one ``rng.integers`` call per draw.
    """

    def __init__(self, rng):
        self.rng = rng
        self._u = np.empty(0, dtype=np.uint64)
        self._pos = 0  # next unused value
        self._kept = 0  # values carried over from before the current chunk
        self._state = None  # bit-generator state before the current chunk
        self._tables = {}

    def below(self, r, k):
        """The next k draws of ``rng.integers(0, r)``, as a list of ints."""
        if r == 1:
            return [0] * k
        out = []
        while len(out) < k:
            if self._pos == len(self._u):
                self._refill()
            at, draws = self._table(r)
            first = int(np.searchsorted(at, self._pos))
            taken = draws[first:min(first + k - len(out), len(at) - 1)]
            out += taken.tolist()
            self._pos = int(at[first + len(taken) - 1]) + 1 if len(taken) else len(self._u)
        return out

    def names(self, n, lengths, symbols, seen):
        """The first n drawn names not in ``seen``, which gains them.

        A name is ``lengths[below(len(lengths))]`` symbols (lengths >= 1),
        each ``symbols[below(len(symbols))]``, joined. A name already seen
        is drawn and skipped. Both ranges must be at least 2.
        """
        lengths = np.asarray(lengths)
        symbols = np.array(list(symbols), dtype=object)
        sizes = np.array([len(s) for s in symbols])
        out = []
        while len(out) < n:
            # for a name that starts at each value: its symbols and its end
            size = len(self._u)
            head_at, heads = self._table(len(lengths))
            at, draws = self._table(len(symbols))
            head = np.searchsorted(head_at, np.arange(size + 1))
            count = lengths[heads[head]]
            first = np.searchsorted(at, head_at[head] + 1)
            end = at[np.minimum(first + count, len(at)) - 1] + 1  # size + 1: incomplete
            ends = end.tolist()
            starts = []
            pos = self._pos
            while ends[pos] <= size:
                starts.append(pos)
                pos = ends[pos]
            offsets = np.concatenate([[0], np.cumsum(sizes[draws[:-1]])])
            text = "".join(symbols[draws[:-1]].tolist())
            first, count = first[starts], count[starts]
            for lo, hi, stop in zip(
                offsets[first].tolist(), offsets[first + count].tolist(), end[starts].tolist()
            ):
                name = text[lo:hi]
                if name not in seen:
                    seen.add(name)
                    out.append(name)
                    if len(out) == n:
                        self._pos = stop
                        return out
            self._pos = pos
            self._refill()
        return out

    def close(self):
        """Leave rng just past the last value used."""
        if self._state is not None:
            self.rng.bit_generator.state = self._state
            self.rng.integers(0, 2**32, size=self._pos - self._kept, dtype=np.uint32)

    def _refill(self):
        """Append a fresh chunk to the values not yet used."""
        kept = self._u[self._pos:]
        self._state = self.rng.bit_generator.state
        fresh = self.rng.integers(0, 2**32, size=CHUNK, dtype=np.uint32)
        self._u = np.concatenate([kept, fresh.astype(np.uint64)])
        self._pos, self._kept = 0, len(kept)
        self._tables = {}

    def _table(self, r):
        """Positions of the values that r accepts and their draws, each
        ending in a sentinel (position len(values), draw 0)."""
        table = self._tables.get(r)
        if table is None:
            m = self._u * np.uint64(r)
            at = np.flatnonzero((m & 0xFFFFFFFF) >= 2**32 % r)
            table = self._tables[r] = (
                np.append(at, len(m)),
                np.append((m[at] >> 32).astype(np.int64), 0),
            )
        return table
