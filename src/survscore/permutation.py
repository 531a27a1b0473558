"""Exact and Monte-Carlo permutation inference on the mean-difference statistic.

With the arm-1 count fixed, the mean difference is strictly increasing in
the arm-1 sum, so label assignments are compared through subset sums.  The
inputs are converted to exact binary-rational integers first and, because
equal-size subset sums shift identically under a constant offset, centered
exactly; counting is then pure integer arithmetic.

The exact test counts by meet in the middle (Horowitz & Sahni, 1974): the
subjects are split into two halves, each half's subset sums are listed per
subset size, and the pairs of half sums under a bound are counted one pair of
sizes at a time.  With arms near balance (the smaller arm at least about n / 5)
the lists are built in ascending order by linear merges and one pointer sweep
counts each pair of sizes; with skewed arms the merges would walk each list
once per value, so the sums are appended unsorted, and each pair of sizes
sorts its shorter list and bisects the longer one into it.  The work grows
with the number of half sums (at most 2^ceil(n/2)), not with the C(n, n1)
assignments: exact_perm_p takes about 0.55 ms at n = 22, 0.08 s at n = 36 and
0.34 s at n = 40 with balanced arms, 0.26 s with n1 = 3 at n = 368 and 0.28 s
with n1 = 2 at n = 2,894, and with n1 = 1 0.17 s at n = 100,000 and 3.6 s at
n = 2,097,150, the largest n the limit admits (Python 3.11, one core of a
shared 2-vCPU machine).  EXACT_HALF_SUMS_LIMIT caps the sums held for the
larger half, and past it exact_perm_p refers to the Monte-Carlo test.

Tie policy: sums within a tiny window (2^-41 of the value spread) of the
observed sum count as ties, and ties score as "at least as extreme".  The
window absorbs the elementwise rounding of a positive affine rescaling --
standardizing values onto [-1, 1] perturbs each float by ~1 ulp, which
would otherwise break exact ties between differently-composed subsets --
while staying astronomically below any genuine gap in non-degenerate data.
p-values are therefore invariant under rescaling, and bit-identical across
runs and schedules.

The Monte-Carlo replicates are split into contiguous chunks across the CPUs
this process may use, one forked worker per chunk past the first, but only
when each worker gets at least _MIN_WORKER_DRAWS draws, and never with a
second thread alive.  Replicate r depends only on (seed, r), so the output is
byte-identical to one CPU's; every worker is reaped before mc_perm_p returns.
"""

import math
import os
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import repeat

from .dataset import benefit_sign, check_two_arms
from .rng import SplitMix64

EXACT_HALF_SUMS_LIMIT = 2**20  # sums held for the larger half: n = 40 balanced, n1 = 2 at n = 2,894
_TIE_WINDOW_SHIFT = 41  # window = spread / 2, right-shifted by 40
_MIN_WORKER_DRAWS = 2**16  # 12-20 ms of draws, against about 2 ms to fork and reap a worker


@dataclass(frozen=True)
class MonteCarloP:
    """Add-one permutation p-value estimate with its binomial standard error."""

    p: float
    std_error: float
    replicates: int
    seed: int


def _integer_image(values, sign=1):
    """Exact centered integer image of the floats, times ``sign`` (1 or -1), plus the tie window.

    A common power-of-two denominator makes the conversion exact; the
    centering shift is an exact integer operation that cannot change any
    comparison between equal-size subset sums.
    """
    floats = [float(v) for v in values]
    if not all(map(math.isfinite, floats)):
        raise ValueError("values must be finite")
    denom = max(v.as_integer_ratio()[1] for v in floats)
    scaled = [p * (denom // q) for p, q in map(float.as_integer_ratio, floats)]
    center = (max(scaled) + min(scaled)) // 2
    scaled = [v - center for v in scaled] if sign > 0 else [center - v for v in scaled]
    window = max(abs(v) for v in scaled) >> (_TIE_WINDOW_SHIFT - 1)
    return scaled, window


def _lower_tail(values, arms, direction):
    """A one-sided test's counting problem, turned onto its lower tail.

    Returns the arm-1 count, the exact integer image of the values --
    negated as it is centered when benefit_sign(direction) is -1 ("upper"),
    so that a larger arm-1 sum is a smaller one -- and the bound: an
    assignment is at least as extreme as the observed one, ties included,
    when its arm-1 sum of the image is <= bound.
    """
    sign = benefit_sign(direction)
    n1 = check_two_arms(arms, values)
    scaled, window = _integer_image(values, sign)
    observed = sum(v for v, a in zip(scaled, arms) if a == 1)
    return n1, scaled, observed + window


def exact_perm_p(values, arms, direction: str = "lower") -> float:
    """Exact permutation p-value of the mean-difference statistic.

    Counts label assignments whose statistic is <= ("lower") or >=
    ("upper") the observed one, the observed assignment included; the
    result is m / C(N, N1) and never 0.
    """
    n1, scaled, bound = _lower_tail(values, arms, direction)
    n = len(scaled)
    if _half_sums_held(n, min(n1, n - n1)) > EXACT_HALF_SUMS_LIMIT:
        raise ValueError(f"exact counting for {n1} of {n} subjects on arm 1 would hold more than "
                         f"{EXACT_HALF_SUMS_LIMIT} half-subset sums; use the Monte-Carlo test "
                         f"(mc_perm_p; --perm mc on the command line)")
    return _count_at_most(scaled, n1, bound) / math.comb(n, n1)


def _half_sums_held(n, m) -> int:
    """Subset sums of sizes 0..m over the larger half of n values (the
    right half in _count_at_most).

    Stops adding once past the limit, so a huge n costs a few steps.
    """
    h = n - n // 2
    held = c = 1
    for k in range(min(m, h)):
        c = c * (h - k) // (k + 1)
        held += c
        if held > EXACT_HALF_SUMS_LIMIT:
            break
    return held


def _subset_sums(values, start, m, ordered) -> list[list[int]]:
    """start plus each subset sum of values, as one list per subset size 0..m
    (m <= len(values)); each list ascends when ordered.

    Sizes past half of len(values) are never built: a size-k subset's complement
    has size len - k, so its list is pivot - x over the complement size's list,
    reversed.  Ordered, adding a value v shifts the size-(k-1) list by v and
    merges it into the size-k list: both runs ascend, so the sort is one linear
    merge, but it walks the whole size-k list, so size k costs C(h + 1, k + 1),
    (h + 1) / (k + 1) visits per sum it keeps (h = len(values)).
    """
    h = len(values)
    built = min(m, h // 2)
    by_size = [[start]] + [[] for _ in range(built)]
    for i, v in enumerate(values):
        for k in range(min(i + 1, built), 0, -1):  # downward, so each value is used once
            grown = by_size[k]
            grown += map(v.__add__, by_size[k - 1])
            if ordered:
                grown.sort()
    pivot = 2 * start + sum(values)
    by_size += (list(map(pivot.__sub__, reversed(by_size[h - k]))) for k in range(built + 1, m + 1))
    return by_size


def _pairs_swept(odd, even) -> int:
    """#(pairs with x in even < y in odd), for two ascending lists, by one pointer sweep."""
    total = j = 0
    stop = len(even)
    for y in odd:
        while j < stop and even[j] < y:
            j += 1
        total += j
    return total


def _pairs_bisected(odd, even) -> int:
    """#(pairs with x in even < y in odd), for two lists in any order: the shorter
    one is sorted in place and every entry of the longer one bisects into it."""
    if len(even) <= len(odd):
        even.sort()
        return sum(map(bisect_left, repeat(even), odd))
    odd.sort()
    return len(odd) * len(even) - sum(map(bisect_left, repeat(odd), even))


def _count_at_most(scaled, n1, bound) -> int:
    """#(size-n1 subsets of scaled with sum <= bound), by meet in the middle.

    Each size-n1 subset is a size-k subset of the left half, sum a, plus a
    size-(n1 - k) subset of the right half, sum b.  Right sums are held as 2b
    and left sums as 2(bound - a) + 1, so that b <= bound - a exactly when the
    even number is below the odd one, and no two compare equal.

    With arms near balance, every size up to about half of a half is needed, the
    merged builds visit fewer than three entries per kept sum, and one sweep over
    each pair of ascending sizes counts its pairs.  With skewed arms the largest
    size needed is small against the half, the merges would visit (h + 1) / (k + 1)
    entries per sum, and the sums are appended unsorted; each pair of sizes then
    sorts its shorter list and bisects the longer one into it.  Only n and n1 pick
    the route, and both give the same count.
    """
    n = len(scaled)
    if 2 * n1 > n:  # sum(S) <= bound  iff  -sum(complement of S) <= bound - total
        return _count_at_most([-v for v in scaled], n - n1, bound - sum(scaled))
    half = n // 2
    h = n - half
    ordered = 2 * (h + 1) <= 5 * (min(n1, h // 2) + 1)  # (h + 1) / (k + 1) <= 2.5 at the top size
    left = _subset_sums([-2 * v for v in scaled[:half]], 2 * bound + 1, min(n1, half), ordered)
    right = _subset_sums([2 * v for v in scaled[half:]], 0, n1, ordered)
    pairs = _pairs_swept if ordered else _pairs_bisected
    return sum(pairs(sums, right[n1 - k]) for k, sums in enumerate(left))


def _extreme(scaled, n1, bound, seed, start, stop) -> int:
    """How many replicates in range(start, stop) draw an arm-1 sum <= bound."""
    root = SplitMix64(seed)
    return sum(sum(root.substream(r).sample(scaled, n1)) <= bound for r in range(start, stop))


def _workers(draws: int) -> int:
    """The CPUs this process may use, each given _MIN_WORKER_DRAWS draws or more;
    1 without os.fork or with a second thread alive (threading is not imported here)."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, draws // _MIN_WORKER_DRAWS))


def _count_extreme(scaled, n1, bound, seed, replicates) -> int:
    """_extreme over all replicates, one contiguous chunk per worker.  Workers 1..W-1
    are forked children that each write one "start count" line to a shared pipe; the
    parent counts chunk 0, reads the pipe to its end, reaps every child, and counts each
    chunk left without a line (its fork was refused, or its child raised and exited 1)."""
    count = partial(_extreme, scaled, n1, bound, seed)
    workers = _workers(replicates * n1)
    if workers == 1:
        return count(0, replicates)
    cuts = [replicates * w // workers for w in range(workers + 1)]
    counted = {}  # chunk start -> its count
    children = []  # every child not yet reaped
    parent = os.getpid()
    read, write = os.pipe()
    with open(read, "rb") as reader, open(write, "wb", buffering=0) as writer:
        try:
            for start, stop in zip(cuts[1:-1], cuts[2:]):
                try:
                    pid = os.fork()
                except OSError:  # e.g. at RLIMIT_NPROC: the parent counts the rest
                    break
                if pid == 0:
                    writer.write(b"%d %d\n" % (start, count(start, stop)))
                    os._exit(0)
                children.append(pid)
            writer.close()
            counted[0] = count(cuts[0], cuts[1])
            counted.update(map(int, line.split()) for line in reader)  # until the last exits
            while children:
                os.waitpid(children[-1], 0)
                children.pop()
        finally:
            if os.getpid() != parent:  # a child that raised: never back into the caller's stack
                os._exit(1)
            for pid in children:  # interrupted: no child outlives the call
                os.kill(pid, 9)  # SIGKILL, without importing signal
                os.waitpid(pid, 0)
    return sum(counted[a] if a in counted else count(a, b) for a, b in zip(cuts, cuts[1:]))


def mc_perm_p(values, arms, replicates: int, seed: int, direction: str = "lower") -> MonteCarloP:
    """Monte-Carlo permutation p-value with the add-one estimator.

    Replicate r draws its arm-1 subset from the child stream (seed, r),
    so the result is bit-stable regardless of how replicates are
    scheduled.  It samples the n1 arm-1 values straight from the exact
    integer image, the items ``choose(n, n1)`` would index, and compares
    their sum with the same bound, ties included, as the exact test.
    """
    n1, scaled, bound = _lower_tail(values, arms, direction)
    if replicates < 1:
        raise ValueError("need at least one replicate")
    p = (1 + _count_extreme(scaled, n1, bound, seed, replicates)) / (replicates + 1)
    return MonteCarloP(p, math.sqrt(p * (1.0 - p) / replicates), replicates, seed)
