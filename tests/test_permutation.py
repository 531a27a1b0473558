import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survscore import (
    WeightSpec,
    exact_perm_p,
    mc_perm_p,
    parse_dataset,
    wlrt_test,
)
from survscore.rng import SplitMix64
from tests import oracles
from tests.conftest import random_dataset, simulated_trial_csv


def small_case(seed, max_n=9):
    ds = random_dataset(seed, max_n=max_n)
    scores = wlrt_test(ds, WeightSpec.logrank()).per_subject
    return scores.values, ds.arms


@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_exact_matches_full_enumeration(direction):
    for seed in range(25):
        values, arms = small_case(seed)
        want = oracles.enumerate_perm_p(values, arms, direction)
        assert exact_perm_p(values, arms, direction) == float(want)


def test_exact_toy_logrank(toy):
    spec = WeightSpec.logrank()
    p = exact_perm_p(spec.test(toy).per_subject.values, toy.arms, "lower")
    assert p == 252 / 924  # frozen from the full-enumeration oracle
    assert exact_perm_p(spec.scaled(toy), toy.arms, "lower") == p


def test_exact_constant_values():
    assert exact_perm_p([2.0] * 6, [0, 0, 0, 1, 1, 1], "lower") == 1.0
    assert exact_perm_p([2.0] * 6, [0, 0, 0, 1, 1, 1], "upper") == 1.0


def test_exact_two_point():
    assert exact_perm_p([-1.0, 1.0], [1, 0], "lower") == 0.5
    assert exact_perm_p([-1.0, 1.0], [1, 0], "upper") == 1.0


def test_exact_never_zero_and_rational():
    for seed in range(10):
        values, arms = small_case(seed)
        total = math.comb(len(values), sum(arms))
        for direction in ("lower", "upper"):
            p = exact_perm_p(values, arms, direction)
            assert p > 0
            m = round(p * total)
            assert p == m / total and 1 <= m <= total


def test_exact_bound_exceeded():
    # past 2^20 sums for the larger half; the refusal costs no enumeration
    for n, n1 in [(60, 30), (41, 20), (100_000, 3), (15_000, 7_500)]:
        values = list(range(n))
        arms = [1] * n1 + [0] * (n - n1)
        with pytest.raises(ValueError, match="Monte-Carlo"):
            exact_perm_p(values, arms, "lower")


@pytest.mark.parametrize("n, n1", [(30, 15), (30, 20), (36, 18)])
def test_exact_matches_dp_past_enumeration(n, n1):
    # C(n, n1) is 3.0e7 to 9.1e9 assignments here: too many to enumerate
    rng = random.Random(n * 100 + n1)
    values = [float(rng.randint(0, 20)) for _ in range(n)]
    arms = [1] * n1 + [0] * (n - n1)
    rng.shuffle(arms)
    for direction in ("lower", "upper"):
        want = oracles.dp_perm_p(values, arms, direction)
        assert exact_perm_p(values, arms, direction) == float(want)


def test_dp_oracle_matches_full_enumeration():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 12)
        values = [float(rng.randint(-4, 4)) for _ in range(n)]
        arms = [1] * rng.randint(1, n - 1)
        arms += [0] * (n - len(arms))
        for direction in ("lower", "upper"):
            assert oracles.dp_perm_p(values, arms, direction) == oracles.enumerate_perm_p(
                values, arms, direction
            )


@pytest.mark.parametrize("n1", [2, 198])
def test_exact_extreme_allocation(n1):
    rng = random.Random(n1)
    values = [round(rng.gauss(0, 1), 2) for _ in range(200)]  # 2 decimals: many ties
    arms = [1] * n1 + [0] * (200 - n1)
    rng.shuffle(arms)
    for direction in ("lower", "upper"):
        want = oracles.enumerate_perm_p(values, arms, direction)
        assert exact_perm_p(values, arms, direction) == float(want)


def test_exact_tie_window_boundary():
    # Spread 2^42 makes the tie window exactly 2 units around the observed
    # sum c = 2^41: c + 2 is a tie and c + 3 is not ("lower"); c - 2 is a
    # tie and c - 3 is not ("upper").
    c = 2.0**41
    values = [0.0, 2.0**42, c, c + 2, c + 3, c - 2, c - 3]
    one = [0, 0, 1, 0, 0, 0, 0]  # arm 1 holds c alone
    assert exact_perm_p(values, one, "lower") == 5 / 7  # 0, c, c+2, c-2, c-3
    assert exact_perm_p(values, one, "upper") == 5 / 7  # 2^42, c, c+2, c+3, c-2
    # the same boundary through the complement: arm 1 holds all but c
    rest = [1 - a for a in one]
    assert exact_perm_p(values, rest, "upper") == 5 / 7
    assert exact_perm_p(values, rest, "lower") == 5 / 7
    for arms in (one, rest):
        for direction in ("lower", "upper"):
            want = oracles.enumerate_perm_p(values, arms, direction)
            assert exact_perm_p(values, arms, direction) == float(want)


def test_exact_requires_both_arms():
    with pytest.raises(ValueError, match="^arm 0 has no subjects$"):
        exact_perm_p([1.0, 2.0], [1, 1], "lower")
    with pytest.raises(ValueError, match="direction"):
        exact_perm_p([1.0, 2.0], [0, 1], "sideways")


@given(
    st.lists(
        st.floats(min_value=-50, max_value=50).map(lambda x: round(x, 2)),
        min_size=2,
        max_size=10,
    ),
    st.floats(min_value=0.01, max_value=20),
    st.floats(min_value=-30, max_value=30),
    st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_exact_affine_invariance(values, alpha, beta, seed):
    n = len(values)
    n1 = 1 + seed % (n - 1)
    arms = [1] * n1 + [0] * (n - n1)
    mapped = [alpha * v + beta for v in values]
    for direction in ("lower", "upper"):
        assert exact_perm_p(values, arms, direction) == exact_perm_p(mapped, arms, direction)
    # a negative slope swaps the two tails exactly
    flipped = [-v for v in values]
    assert exact_perm_p(flipped, arms, "lower") == exact_perm_p(values, arms, "upper")
    assert exact_perm_p(flipped, arms, "upper") == exact_perm_p(values, arms, "lower")


def test_mc_deterministic_bit_for_bit(toy):
    scores = wlrt_test(toy, WeightSpec.logrank()).per_subject
    a = mc_perm_p(scores.values, toy.arms, 2000, 99, "lower")
    b = mc_perm_p(scores.values, toy.arms, 2000, 99, "lower")
    assert a == b


@pytest.mark.parametrize("direction", ["lower", "upper"])
@pytest.mark.parametrize("n, n1", [(40, 1), (40, 39), (40, 8), (300, 1), (300, 299), (300, 60)])
def test_mc_matches_sequential_oracle(n, n1, direction):
    rng = random.Random(n * 1000 + n1)
    values = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    arms = [0] * (n - n1) + [1] * n1
    rng.shuffle(arms)
    replicates = 200
    got = mc_perm_p(values, arms, replicates, n1, direction)
    assert got.p == float(oracles.sequential_mc_perm_p(values, arms, replicates, n1, direction))


@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_mc_redraws_exactly_around_the_largest_word(direction):
    # Seed the root so that replicate 0's first word is 2**64 - 1, which
    # next_below(5) rejects: the replicate must be drawn word by word.  It
    # then picks subjects {0, 3} (sum 0.4), where the packed offsets taken
    # as they are would pick {0, 2} (sum 1.0); the observed arm-1 sum, 0.5,
    # lies between them, so either tail would count that replicate wrongly.
    golden, mask = 0x9E3779B97F4A7C15, 2**64 - 1
    child = (oracles.unfinalize(mask) - golden) & mask
    seed = (oracles.unfinalize(child) - golden) & mask
    assert SplitMix64(seed).substream(0).word(0) == mask
    values, arms = [0.3, -1.0, 0.7, 0.1, -0.2], [0, 0, 1, 0, 1]
    got = mc_perm_p(values, arms, 50, seed, direction)
    assert got.p == float(oracles.sequential_mc_perm_p(values, arms, 50, seed, direction))


def test_mc_extreme_counts_pinned(tmp_path):
    # Extreme counts of the word-by-word draw (oracles.sequential_choose) on
    # an n = 300 simulated trial; a change to them is a change to the
    # Monte-Carlo stream and must be versioned.
    ds = parse_dataset(simulated_trial_csv(tmp_path).read_text())
    scores = wlrt_test(ds, WeightSpec.logrank()).per_subject
    replicates = 2000
    pinned = {(0, "lower"): 9, (0, "upper"): 1991, (7, "lower"): 10, (7, "upper"): 1990}
    for (seed, direction), extreme in pinned.items():
        got = mc_perm_p(scores.values, ds.arms, replicates, seed, direction)
        assert got.p == (1 + extreme) / (replicates + 1), (seed, direction)


def test_mc_constant_values():
    assert mc_perm_p([1.0] * 6, [0, 0, 0, 1, 1, 1], 500, 0, "lower").p == 1.0
    with pytest.raises(ValueError, match="direction"):
        mc_perm_p([1.0] * 6, [0, 0, 0, 1, 1, 1], 500, 0, "sideways")
    with pytest.raises(ValueError, match="replicate"):
        mc_perm_p([1.0] * 6, [0, 0, 0, 1, 1, 1], 0, 0, "lower")


def test_mc_close_to_exact(toy):
    scores = wlrt_test(toy, WeightSpec.logrank()).per_subject
    exact = exact_perm_p(scores.values, toy.arms, "lower")
    mc = mc_perm_p(scores.values, toy.arms, 100_000, 0, "lower")
    assert abs(mc.p - exact) <= 3 * math.sqrt(exact * (1 - exact) / mc.replicates)


def test_mc_convergence_across_seeds(toy):
    scores = wlrt_test(toy, WeightSpec.logrank()).per_subject
    exact = exact_perm_p(scores.values, toy.arms, "lower")
    replicates = 1000
    bound = 4 * math.sqrt(exact * (1 - exact) / replicates)
    hits = sum(
        abs(mc_perm_p(scores.values, toy.arms, replicates, seed, "lower").p - exact) <= bound
        for seed in range(100)
    )
    assert hits >= 99

