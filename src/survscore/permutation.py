"""Exact and Monte-Carlo permutation inference on the mean-difference statistic.

With the arm-1 count fixed, the mean difference is strictly increasing in
the arm-1 sum, so label assignments are compared through subset sums.  The
inputs are converted to exact binary-rational integers first and, because
equal-size subset sums shift identically under a constant offset, centered
exactly; enumeration and counting are then pure integer arithmetic.

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
from dataclasses import dataclass

from .rng import SplitMix64

EXACT_ASSIGNMENT_LIMIT = 2_000_000
_TIE_WINDOW_SHIFT = 41  # window = spread / 2, right-shifted by 40


@dataclass(frozen=True)
class MonteCarloP:
    """Add-one permutation p-value estimate with its binomial standard error."""

    p: float
    std_error: float
    replicates: int
    seed: int


def _check_direction(direction):
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")


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


def exact_perm_p(values, arms, direction: str = "lower") -> float:
    """Exact permutation p-value of the mean-difference statistic.

    Counts label assignments whose statistic is <= ("lower") or >=
    ("upper") the observed one, the observed assignment included; the
    result is m / C(N, N1) and never 0.
    """
    _check_direction(direction)
    n1 = _check_two_arms(values, arms)
    n = len(values)
    total = math.comb(n, n1)
    if total > EXACT_ASSIGNMENT_LIMIT:
        raise ValueError(
            f"{total} assignments exceed the exact limit of {EXACT_ASSIGNMENT_LIMIT}; "
            "use the Monte-Carlo test (mc_perm_p)"
        )
    scaled, window = _integer_image(values)
    observed = sum(v for v, a in zip(scaled, arms) if a == 1)
    count_le, count_ge = _subset_sum_counts(scaled, n1, observed, window)
    count = count_le if direction == "lower" else count_ge
    return count / total


def _subset_sum_counts(scaled, n1, observed, window) -> tuple[int, int]:
    """(#subsets with sum <= observed, #subsets with sum >= observed).

    Subsets of size n1 are enumerated in colexicographic order; each
    successor updates the running sum in O(1) via prefix sums, so the
    whole enumeration costs O(C(n, n1)) integer operations.
    """
    n = len(scaled)
    prefix = [0]
    for v in scaled:
        prefix.append(prefix[-1] + v)
    lo_bound = observed + window  # sums <= this count as "lower or tied"
    hi_bound = observed - window
    combo = list(range(n1))
    s = prefix[n1]
    count_le = count_ge = 0
    while True:
        if s <= lo_bound:
            count_le += 1
        if s >= hi_bound:
            count_ge += 1
        # find the lowest position that can advance; below it the chosen
        # indices form a packed run ending just under combo[j]
        j = 0
        while j < n1:
            nxt = combo[j + 1] if j + 1 < n1 else n
            if combo[j] + 1 < nxt:
                break
            j += 1
        if j == n1:
            return count_le, count_ge
        cj = combo[j]
        s += prefix[j] - (prefix[cj + 1] - prefix[cj - j]) + scaled[cj + 1]
        for i in range(j):
            combo[i] = i
        combo[j] = cj + 1


def mc_perm_p(values, arms, replicates: int, seed: int, direction: str = "lower") -> MonteCarloP:
    """Monte-Carlo permutation p-value with the add-one estimator.

    Replicate r draws its arm-1 subset from the child stream (seed, r),
    so the result is bit-stable regardless of how replicates are
    scheduled.  Sums and tie handling use the same exact integer image as
    the exact test.
    """
    _check_direction(direction)
    if replicates < 1:
        raise ValueError("need at least one replicate")
    n1 = _check_two_arms(values, arms)
    n = len(values)
    scaled, window = _integer_image(values)
    observed = sum(v for v, a in zip(scaled, arms) if a == 1)
    bound = observed + window if direction == "lower" else observed - window
    root = SplitMix64(seed)
    extreme = 0
    for r in range(replicates):
        stream = root.substream(r)
        s = sum(scaled[i] for i in stream.choose(n, n1))
        if (s <= bound) if direction == "lower" else (s >= bound):
            extreme += 1
    p = (1 + extreme) / (replicates + 1)
    return MonteCarloP(p, math.sqrt(p * (1.0 - p) / replicates), replicates, seed)

