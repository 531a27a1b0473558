"""Deterministic counter-based random numbers.

Every output word is a pure function of (seed, counter): word ``i`` is the
splitmix64 finalizer applied to ``seed + (i + 1) * GOLDEN`` (mod 2**64).
Because any word can be computed in O(1) without touching shared state,
parallel consumers stay reproducible: give worker ``r`` the child stream
``substream(r)`` and results cannot depend on scheduling order.

``words(count)`` computes a run of consecutive words in one packed pass of
Python big-int arithmetic instead of a dozen big-int operations per word.
Word ``i`` of the run sits in 128-bit lane ``i`` of a single int: its low 64
bits hold the value and its high 64 bits stay clear.  Adding the per-lane
steps leaves each lane below 2**65, a 64-bit times 64-bit product fits in
its own 128-bit lane, and masking every lane to its low 64 bits after each
step reduces mod 2**64 and drops the bits a right shift brings down from
the next lane, so no lane ever reads another.  The lanes are unpacked from
explicit little-endian bytes.  The packed words are the same integers the
per-word finalizer gives.

``sample(population, k)`` is the one partial Fisher-Yates draw.  It shuffles
a copy of the items themselves, so a Monte-Carlo replicate draws its arm-1
values directly instead of drawing indices and gathering through them, and
it takes each step's offset from a packed word with a C-level ``mod``.
``choose(n, k)`` is ``sample(range(n), k)``: the same words and the same
positions, for callers that want the positions.

Reproducibility is guaranteed within this package (same seed, same draws,
any platform, any byte order), not against other splitmix implementations.
"""

import operator
import struct
from functools import lru_cache

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9  # splitmix64 finalizer multipliers (Steele, Lea & Flood)
_MIX2 = 0x94D049BB133111EB
_BLOCK = 256  # lanes per packed pass, so the packed int stays at 4 KiB


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=8)
def _layout(lanes: int):
    """Packing constants for ``lanes`` words: a 1 in every lane, lane i
    holding (i + 1) * GOLDEN mod 2**64, the low-64-bit mask of every lane,
    and the unpacker that reads each lane's low 8 bytes."""
    def packed(lane_values):
        return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in lane_values), "little")

    ones = packed([1] * lanes)
    steps = packed([((i + 1) * _GOLDEN) & _MASK for i in range(lanes)])
    return ones, steps, ones * _MASK, struct.Struct("<" + "Q8x" * lanes).unpack


class SplitMix64:
    """Counter-based 64-bit stream with O(1) random access to any word."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._counter = 0

    def word(self, index: int) -> int:
        """64-bit word at position ``index``, independent of internal state."""
        return _finalize((self.seed + (index + 1) * _GOLDEN) & _MASK)

    def substream(self, index: int) -> "SplitMix64":
        """Child stream seeded from word ``index`` of this stream."""
        return SplitMix64(self.word(index))

    def next_word(self) -> int:
        w = self.word(self._counter)
        self._counter += 1
        return w

    def words(self, count: int) -> list[int]:
        """The next ``count`` words, packed as described in the module
        docstring; equal to ``count`` calls of ``next_word``."""
        out = []
        for start in range(0, count, _BLOCK):
            lanes = min(_BLOCK, count - start)
            ones, steps, low, unpack = _layout(lanes)
            base = (self.seed + (self._counter + start) * _GOLDEN) & _MASK
            z = (base * ones + steps) & low
            z = ((z ^ (z >> 30)) & low) * _MIX1 & low
            z = ((z ^ (z >> 27)) & low) * _MIX2 & low
            out += unpack((z ^ (z >> 31)).to_bytes(16 * lanes, "little"))
        self._counter += count
        return out

    def next_uniform(self) -> float:
        """Uniform draw strictly inside (0, 1) at 52-bit resolution.

        The half-offset keeps both endpoints unreachable, so scaled draws
        stay strictly inside (0, c) for any c > 0.
        """
        return ((self.next_word() >> 12) + 0.5) * 2.0**-52

    def next_below(self, n: int) -> int:
        """Unbiased integer in [0, n), by rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = ((1 << 64) // n) * n
        while True:
            w = self.next_word()
            if w < limit:
                return w % n

    def sample(self, population, k: int) -> list:
        """k distinct items of ``population`` via partial Fisher-Yates.

        The items are copied into a new list, which is shuffled, so
        ``population`` is left as it is; step i swaps item i with item
        ``i + next_below(n - i)``.  The k words are drawn in one packed
        pass; ``next_below(m)`` accepts every word below 2**64 - m, so
        when all k words are at most 2**64 - 1 - n no step can reject and
        step i is just ``word_i % (n - i)``.
        """
        items = list(population)
        n = len(items)
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        words = self.words(k)
        if max(words, default=0) > _MASK - n:  # rare (about k * n / 2**64): a step may reject
            self._counter -= k
            offsets = [self.next_below(n - i) for i in range(k)]
        else:
            offsets = map(operator.mod, words, range(n, n - k, -1))
        for i, r in enumerate(offsets):
            j = i + r
            items[i], items[j] = items[j], items[i]
        return items[:k]

    def choose(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n): ``sample(range(n), k)``.

        The index form of the draw stays public: the tests compare it
        with the word-by-word oracle, and the benchmark's tracer wraps it
        by name.  ``range`` of a negative n is empty, so n is checked here.
        """
        if n < 0:
            raise ValueError("need 0 <= k <= n")
        return self.sample(range(n), k)
