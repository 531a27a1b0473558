"""Exact and Monte-Carlo permutation inference on the mean-difference statistic.

With the arm-1 count fixed, the mean difference is strictly increasing in
the arm-1 sum, so label assignments are compared through subset sums.  The
inputs are converted to exact binary-rational integers first and, because
equal-size subset sums shift identically under a constant offset, centered
exactly; counting is then pure integer arithmetic.

The exact test counts by meet in the middle (Horowitz & Sahni, 1974): the
subjects are split into two halves, each half's subset sums are listed by
subset size, and pairs of half sums under a bound are counted by bisection.
The work grows with the number of half sums (at most 2^ceil(n/2)), not with
the C(n, n1) assignments; EXACT_HALF_SUMS_LIMIT caps the sums held for the
larger half, and past it exact_perm_p refers to the Monte-Carlo test.

Tie policy: sums within a tiny window (2^-41 of the value spread) of the
observed sum count as ties, and ties score as "at least as extreme".  The
window absorbs the elementwise rounding of a positive affine rescaling --
standardizing values onto [-1, 1] perturbs each float by ~1 ulp, which
would otherwise break exact ties between differently-composed subsets --
while staying astronomically below any genuine gap in non-degenerate data.
p-values are therefore invariant under rescaling, and bit-identical across
runs and schedules.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat

from .rng import SplitMix64

EXACT_HALF_SUMS_LIMIT = 2**20  # sums held for the larger half: balanced arms up to n = 40
_TIE_WINDOW_SHIFT = 41  # window = spread / 2, right-shifted by 40


@dataclass(frozen=True)
class MonteCarloP:
    """Add-one permutation p-value estimate with its binomial standard error."""

    p: float
    std_error: float
    replicates: int
    seed: int


def _check_two_arms(values, arms):
    if len(values) != len(arms):
        raise ValueError("values and arms must have equal length")
    n1 = sum(1 for a in arms if a == 1)
    if not 1 <= n1 <= len(arms) - 1:
        raise ValueError("permutation test needs subjects on both arms")
    return n1


def _integer_image(values):
    """Exact centered integer image of the floats, plus the tie window.

    A common power-of-two denominator makes the conversion exact; the
    centering shift is an exact integer operation that cannot change any
    comparison between equal-size subset sums.
    """
    ratios = []
    for v in values:
        v = float(v)
        if not math.isfinite(v):
            raise ValueError("values must be finite")
        ratios.append(v.as_integer_ratio())
    denom = max(q for _, q in ratios)
    scaled = [p * (denom // q) for p, q in ratios]
    center = (max(scaled) + min(scaled)) // 2
    scaled = [v - center for v in scaled]
    window = max(abs(v) for v in scaled) >> (_TIE_WINDOW_SHIFT - 1)
    return scaled, window


def _lower_tail(values, arms, direction):
    """A one-sided test's counting problem, turned onto its lower tail.

    Returns the arm-1 count, the exact integer image of the values --
    negated for "upper", so that a larger arm-1 sum is a smaller one --
    and the bound: an assignment is at least as extreme as the observed
    one, ties included, when its arm-1 sum of the image is <= bound.
    """
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    n1 = _check_two_arms(values, arms)
    scaled, window = _integer_image(values)
    if direction == "upper":
        scaled = [-v for v in scaled]
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
        raise ValueError(
            f"exact counting for {n1} of {n} subjects on arm 1 would hold more than "
            f"{EXACT_HALF_SUMS_LIMIT} half-subset sums; use the Monte-Carlo test (mc_perm_p)"
        )
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


def _sums_by_size(values, m) -> list[list[int]]:
    """Subset sums of values, as one list per subset size 0..m."""
    by_size = [[0]] + [[] for _ in range(m)]
    for i, v in enumerate(values):
        for k in range(min(i + 1, m), 0, -1):  # downward, so each value is used once
            by_size[k] += [s + v for s in by_size[k - 1]]
    return by_size


def _count_at_most(scaled, n1, bound) -> int:
    """#(size-n1 subsets of scaled with sum <= bound), by meet in the middle.

    Each size-n1 subset is a size-k subset of the left half plus a
    size-(n1 - k) subset of the right half; for every left sum, one
    bisect into the sorted right sums counts its partners.
    """
    n = len(scaled)
    if 2 * n1 > n:  # sum(S) <= bound  iff  -sum(complement of S) <= bound - total
        return _count_at_most([-v for v in scaled], n - n1, bound - sum(scaled))
    half = n // 2
    left = _sums_by_size(scaled[:half], n1)
    right = [sorted(sums) for sums in _sums_by_size(scaled[half:], n1)]
    return sum(
        sum(map(bisect_right, repeat(right[n1 - k]), (bound - s for s in sums)))
        for k, sums in enumerate(left)
    )


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
    root = SplitMix64(seed)
    extreme = 0
    for r in range(replicates):
        if sum(root.substream(r).sample(scaled, n1)) <= bound:
            extreme += 1
    p = (1 + extreme) / (replicates + 1)
    return MonteCarloP(p, math.sqrt(p * (1.0 - p) / replicates), replicates, seed)

