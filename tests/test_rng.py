import pytest

from survscore.rng import SplitMix64
from tests import oracles

GOLDEN = 0x9E3779B97F4A7C15


def test_words_are_pure_functions_of_seed_and_index():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.word(i) for i in range(10)] == [b.word(i) for i in range(10)]
    # random access agrees with sequential consumption
    sequential = [b.next_word() for _ in range(10)]
    assert sequential == [a.word(i) for i in range(10)]
    assert SplitMix64(124).word(0) != a.word(0)


def test_substream_is_order_independent():
    root = SplitMix64(7)
    early = root.substream(3).word(0)
    root.next_word()
    root.next_word()
    assert root.substream(3).word(0) == early
    assert root.substream(3).word(0) != root.substream(4).word(0)


def test_uniform_open_interval():
    rng = SplitMix64(0)
    draws = [rng.next_uniform() for _ in range(5000)]
    assert all(0.0 < u < 1.0 for u in draws)
    assert 0.4 < sum(draws) / len(draws) < 0.6


def test_next_below_range_and_coverage():
    rng = SplitMix64(1)
    draws = [rng.next_below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.next_below(0)


def test_choose_gives_distinct_indices():
    rng = SplitMix64(2)
    for _ in range(200):
        picked = rng.choose(10, 4)
        assert len(picked) == 4
        assert len(set(picked)) == 4
        assert all(0 <= i < 10 for i in picked)
    assert rng.choose(5, 0) == []
    assert sorted(rng.choose(5, 5)) == [0, 1, 2, 3, 4]


def test_words_equal_word_by_word_and_advance_the_counter():
    for start in (0, 3):
        for count in (0, 1, 5, 255, 256, 257, 700):
            rng = SplitMix64(start * 1000 + count)
            for _ in range(start):
                rng.next_word()
            assert rng.words(count) == [rng.word(start + i) for i in range(count)]
            assert rng._counter == start + count


@pytest.mark.parametrize("n", [1, 2, 3, 7, 300, 1000])
def test_choose_matches_sequential_oracle(n):
    for seed in range(200):
        for k in sorted({0, 1, n // 2, n - 1, n}):
            packed, sequential = SplitMix64(seed), SplitMix64(seed)
            assert packed.choose(n, k) == oracles.sequential_choose(sequential, n, k)
            assert packed.next_word() == sequential.next_word()


def _seed_with_word(index, value):
    """A seed whose word ``index`` is ``value``."""
    return oracles.unfinalize(value) - (index + 1) * GOLDEN


@pytest.mark.parametrize(
    "n, k, index",
    [
        (3, 1, 0),  # next_below(3) rejects 2**64 - 1 and draws again
        (4, 2, 1),  # the second step, next_below(3), rejects it
        (4, 1, 0),  # next_below(4) accepts every word: a redraw that changes nothing
    ],
)
def test_choose_redraws_exactly_around_the_largest_word(n, k, index):
    seed = _seed_with_word(index, 2**64 - 1)
    assert SplitMix64(seed).word(index) == 2**64 - 1
    packed, sequential = SplitMix64(seed), SplitMix64(seed)
    assert packed.choose(n, k) == oracles.sequential_choose(sequential, n, k)
    assert packed._counter == sequential._counter
    assert packed.next_word() == sequential.next_word()
