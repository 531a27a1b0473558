import math
import os
import random
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survscore import (
    WeightSpec,
    exact_perm_p,
    mc_perm_p,
    parse_dataset,
    permutation,
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


@pytest.mark.parametrize("n, n1", [(30, 15), (30, 20), (36, 18), (40, 20)])
def test_exact_matches_dp_past_enumeration(n, n1):
    # C(n, n1) is 3.0e7 to 1.4e11 assignments here: too many to enumerate; (40, 20) is
    # the largest balanced trial under EXACT_HALF_SUMS_LIMIT
    rng = random.Random(n * 100 + n1)
    values = [float(rng.randint(0, 20)) for _ in range(n)]
    arms = [1] * n1 + [0] * (n - n1)
    rng.shuffle(arms)
    for direction in ("lower", "upper"):
        want = oracles.dp_perm_p(values, arms, direction)
        assert exact_perm_p(values, arms, direction) == float(want)


@st.composite
def count_cases(draw):
    """Values, arms and a tail: continuous or coarsely tied values, odd n, 2 * n1 > n."""
    n = draw(st.integers(2, 16))
    value = st.integers(-3, 3).map(float) if draw(st.booleans()) else st.floats(-50, 50)
    values = draw(st.lists(value, min_size=n, max_size=n))
    n1 = draw(st.integers(1, n - 1))
    arms = draw(st.permutations([1] * n1 + [0] * (n - n1)))
    return values, arms, draw(st.sampled_from(["lower", "upper"]))


@given(count_cases())
@example(([0.5, -1.0, 2.0, 2.0, 0.25], [1, 1, 1, 0, 1], "upper"))  # odd n, 2 * n1 > n, a tie
@example(([3.0, -3.0, 0.0, 1.0, 1.0, -1.0, 2.0], [0, 1, 0, 1, 0, 0, 0], "lower"))
@example(([1.0, 1.0, 0.0, 2.0, -1.0, 1.0, 3.0, 0.0, 1.0, 2.0, 0.0, 1.0],  # skewed arms: appended
          [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0], "lower"))
@example(([1.0, 1.0, 0.0, 2.0, -1.0, 1.0, 3.0, 0.0, 1.0, 2.0, 0.0, 1.0],
          [1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1], "upper"))
@settings(max_examples=150, deadline=None)
def test_count_matches_the_sort_and_bisect_oracle(case):
    # bounds at the observed sum, one unit either side and one tie window either side
    values, arms, direction = case
    n1, scaled, bound = permutation._lower_tail(values, arms, direction)
    window = permutation._integer_image(values)[1]
    observed = bound - window
    for at in (observed, observed - 1, observed + 1, observed - window, observed + window):
        want = oracles.bisect_count_at_most(scaled, n1, at)
        assert permutation._count_at_most(scaled, n1, at) == want, at


@given(st.lists(st.integers(-9, 9), max_size=12), st.integers(-50, 50), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_merged_and_appended_subset_sums_agree(values, start, m):
    m = min(m, len(values))
    merged = permutation._subset_sums(values, start, m, True)
    appended = permutation._subset_sums(values, start, m, False)
    assert len(merged) == len(appended) == m + 1
    for k, (ascending, listed) in enumerate(zip(merged, appended)):
        assert ascending == sorted(listed)
        assert len(ascending) == math.comb(len(values), k)


@given(st.lists(st.integers(-20, 20).map(lambda x: 2 * x + 1)),
       st.lists(st.integers(-20, 20).map(lambda x: 2 * x)), st.randoms())
@settings(max_examples=100, deadline=None)
def test_swept_and_bisected_pair_counts_agree(odd, even, rng):
    want = sum(x < y for y in odd for x in even)
    assert permutation._pairs_swept(sorted(odd), sorted(even)) == want
    rng.shuffle(odd)
    rng.shuffle(even)
    assert permutation._pairs_bisected(odd, even) == want


@pytest.mark.parametrize("n, n1", [(2894, 2), (100_000, 1)])
def test_exact_with_skewed_arms_stays_fast(n, n1):
    # near the size limit with skewed arms: merging each sum list per added value would
    # visit (h + 1) / (k + 1) entries per sum, about 480 at (2894, 2) and 50,000 at
    # (100000, 1), and take tens of seconds; appending, then sorting the shorter list
    # of each size pair, takes well under one
    rng = random.Random(n)
    values = [float(rng.randint(0, 100)) for _ in range(n)]
    arms = [1] * n1 + [0] * (n - n1)
    rng.shuffle(arms)
    for direction in ("lower", "upper"):
        start = time.perf_counter()
        got = exact_perm_p(values, arms, direction)
        assert time.perf_counter() - start < 5
        assert got == float(oracles.dp_perm_p(values, arms, direction))


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


def mc_case(n=40, n1=13):
    rng = random.Random(n * 1000 + n1)
    values = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    arms = [0] * (n - n1) + [1] * n1
    rng.shuffle(arms)
    return values, arms


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("direction", ["lower", "upper"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mc_split_over_workers_matches_sequential_oracle(monkeypatch, workers, direction):
    # 1,001 replicates do not split evenly over 2 or 3 workers
    monkeypatch.setattr(permutation, "_workers", lambda draws: workers)
    values, arms = mc_case()
    got = mc_perm_p(values, arms, 1001, 5, direction)
    assert_no_child_left()
    assert got.p == float(oracles.sequential_mc_perm_p(values, arms, 1001, 5, direction))


def test_mc_interrupted_parent_kills_and_reaps_every_child(monkeypatch):
    parent, real_extreme = os.getpid(), permutation._extreme

    def extreme(*args):
        if os.getpid() != parent:
            time.sleep(60)  # a child still counting when the parent stops
            return real_extreme(*args)
        raise KeyboardInterrupt

    monkeypatch.setattr(permutation, "_extreme", extreme)
    monkeypatch.setattr(permutation, "_workers", lambda draws: 3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        mc_perm_p(*mc_case(), 1001, 5)
    assert_no_child_left()
    assert time.perf_counter() - start < 30


def test_mc_counts_in_the_parent_when_fork_is_refused(monkeypatch):
    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    values, arms = mc_case()
    want = mc_perm_p(values, arms, 1001, 5)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(permutation, "_workers", lambda draws: 3)
    assert mc_perm_p(values, arms, 1001, 5) == want
    assert_no_child_left()


def test_mc_recounts_the_chunk_of_a_failed_child(monkeypatch):
    parent, real_extreme = os.getpid(), permutation._extreme
    in_parent = []

    def extreme(*args):
        start, stop = args[-2:]
        if os.getpid() != parent and start == 333:
            os._exit(1)  # the child of chunk [333, 667) writes no count
        if os.getpid() == parent:
            in_parent.append((start, stop))
        return real_extreme(*args)

    values, arms = mc_case()
    want = mc_perm_p(values, arms, 1001, 5)
    monkeypatch.setattr(permutation, "_extreme", extreme)
    monkeypatch.setattr(permutation, "_workers", lambda draws: 3)
    assert mc_perm_p(values, arms, 1001, 5) == want
    assert_no_child_left()
    assert in_parent == [(0, 333), (333, 667)]


def test_mc_worker_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    least = permutation._MIN_WORKER_DRAWS
    assert [permutation._workers(d) for d in (1, least - 1, 2 * least, 10**9)] == [1, 1, 2, 2]
    monkeypatch.delattr(os, "fork")
    assert permutation._workers(10**9) == 1


def test_mc_never_forks_with_a_second_thread_alive(monkeypatch):
    def fork():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    values, arms = mc_case(300, 150)
    replicates = 2 * permutation._MIN_WORKER_DRAWS // 150 + 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert permutation._workers(replicates * 150) == 1
        got = mc_perm_p(values, arms, replicates, 5)
    finally:
        release.set()
        thread.join()
    assert permutation._workers(replicates * 150) == 2
    assert got.p == float(oracles.sequential_mc_perm_p(values, arms, replicates, 5, "lower"))
