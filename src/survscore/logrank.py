"""Weighted log-rank tests and their per-subject score decomposition.

The statistic is a weighted sum of observed-minus-expected events over the
distinct event times; equivalently a sum of per-subject scores over the
experimental arm.  Scores rescaled onto [-1, 1] make different weight
choices directly comparable, and permutation moments give the matching
randomization variance.
"""

import math
from dataclasses import dataclass
from itertools import compress

from .curves import StepSurvival, km_fit
from .dataset import (RiskTable, TrialDataset, benefit_sign, build_risk_table, check_arm_sizes,
                      check_two_arms)

WEIGHT_KINDS = ("logrank", "fleming_harrington", "modest")


@dataclass(frozen=True)
class WeightSpec:
    """Which event-time weight function to use.

    logrank: w = 1.  fleming_harrington: w = S(t-)^rho * (1 - S(t-))^gamma
    with 0^0 taken as 1.  modest: w = 1 / max(S(t-), s_star).
    """

    kind: str
    rho: float = 0.0
    gamma: float = 0.0
    s_star: float = 1.0
    # observed-minus-expected events on arm 1: fewer than expected (a lower statistic, lower
    # scores) favor arm 1, whatever the weight; unannotated, so a class attribute, not a field
    benefit = "lower"

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "fleming_harrington":
            for name, value in (("rho", self.rho), ("gamma", self.gamma)):
                if not (math.isfinite(value) and value >= 0):
                    raise ValueError(f"{name} must be finite and nonnegative")
        if self.kind == "modest" and not 0.0 < self.s_star <= 1.0:
            raise ValueError("s_star must lie in (0, 1]")

    @classmethod
    def logrank(cls) -> "WeightSpec":
        return cls("logrank")

    @classmethod
    def fleming_harrington(cls, rho: float, gamma: float) -> "WeightSpec":
        return cls("fleming_harrington", rho=rho, gamma=gamma)

    @classmethod
    def modest(cls, s_star: float) -> "WeightSpec":
        return cls("modest", s_star=s_star)

    def describe(self) -> str:
        if self.kind == "logrank":
            return "log-rank"
        if self.kind == "fleming_harrington":
            return f"Fleming-Harrington({self.rho:g},{self.gamma:g})"
        return f"modest(s*={self.s_star:g})"

    def scaled(self, ds: TrialDataset) -> tuple[float, ...]:
        """The per-subject scores of ``ds`` under this weight, on the [-1, 1] axis."""
        return standardize(score_chain(ds, self)[2])

    def test(self, ds: TrialDataset) -> "TestResult":
        """The weighted log-rank test of ``ds`` under this weight."""
        return wlrt_test(ds, self)


@dataclass(frozen=True)
class ScoreSet:
    """Per-subject raw scores in dataset order; standardize() maps them onto [-1, 1]."""

    source: TrialDataset
    spec: WeightSpec | None
    weights: tuple[float, ...]  # one per distinct event time
    values: tuple[float, ...]  # one per subject

    @property
    def arm1_sum(self) -> float:
        """Sum of raw scores on arm 1 == the weighted log-rank statistic."""
        return sum(compress(self.values, self.source.arms))


@dataclass(frozen=True)
class TestResult:
    """A test outcome: statistic, variance, and which tail favors arm 1.

    ``benefit`` is "lower" when a smaller statistic favors arm 1 and
    "upper" when a larger one does; ``z`` and the one-sided normal
    p-value follow from the three, the p-value small when z lies on the
    benefit tail.  The descriptor says which test produced it.
    ``per_subject`` carries the raw ScoreSet or PseudoSet behind the
    statistic for permutation.
    """

    method: str
    statistic: float
    variance: float
    benefit: str
    warnings: tuple[str, ...] = ()
    per_subject: object | None = None

    def __post_init__(self):
        benefit_sign(self.benefit)

    @property
    def z(self) -> float:
        """statistic / sqrt(variance), with the 0/0 case pinned to 0."""
        if self.variance > 0:
            return self.statistic / math.sqrt(self.variance)
        if self.statistic == 0:
            return 0.0
        return math.copysign(math.inf, self.statistic)

    @property
    def p_one_sided(self) -> float:
        """Normal one-sided p-value, small when z lies on the ``benefit`` tail."""
        return normal_cdf(benefit_sign(self.benefit) * self.z)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def compute_weights(rt: RiskTable, pooled: StepSurvival, spec: WeightSpec) -> tuple[float, ...]:
    """Weight at each distinct event time, from the pooled-sample curve.

    ``pooled`` must be the table's own fit, ``km_fit(rt.source)``: S(t-) at
    the j-th event time is then the curve's value after j - 1 jumps, read
    by index.  A curve that jumps at other times is refused.
    """
    if pooled.jump_times != rt.times:
        raise ValueError("pooled curve does not jump at the risk table's event times")
    if spec.kind == "logrank":
        return (1.0,) * len(rt.times)
    left = ((1.0,) + pooled.values)[:-1]
    if spec.kind == "fleming_harrington":
        return tuple(s**spec.rho * (1.0 - s) ** spec.gamma for s in left)  # 0.0**0.0 == 1.0
    return tuple(1.0 / max(s, spec.s_star) for s in left)


def u_and_v(rt: RiskTable, weights) -> tuple[float, float]:
    """Observed-minus-expected statistic and its hypergeometric variance.

    The variance term at an event time with a single subject at risk is 0
    (it carries no between-arm information).
    """
    if len(weights) != len(rt.times):
        raise ValueError("need one weight per distinct event time")
    u = v = 0.0
    for w, n, d, n1, d1 in zip(weights, rt.at_risk, rt.events, rt.at_risk1, rt.events1):
        u += w * (d1 - d * n1 / n)
        if n > 1:
            v += w * w * (n - n1) * n1 * d * (n - d) / (n * n * (n - 1))
    return u, v


def compute_scores(rt: RiskTable, weights, spec: WeightSpec | None = None) -> ScoreSet:
    """Raw per-subject scores whose arm-1 sum equals the test statistic.

    Event at the j-th event time: a = w_j - sum_{i<=j} w_i d_i / n_i.
    Censored in [t_j, t_{j+1}): a = -sum_{i<=j} w_i d_i / n_i, which is
    the empty sum 0 for subjects censored before the first event time.
    """
    if len(weights) != len(rt.times):
        raise ValueError("need one weight per distinct event time")
    cum = []
    running = 0.0
    for w, d, n in zip(weights, rt.events, rt.at_risk):
        running += w * d / n
        cum.append(running)

    raw = []
    for j, event in zip(rt.intervals, rt.source.events):  # an event's own event time is j - 1
        if event == 1:
            raw.append(weights[j - 1] - cum[j - 1])
        else:
            raw.append(0.0 if j == 0 else -cum[j - 1])
    return ScoreSet(rt.source, spec, tuple(weights), tuple(raw))


def _unit_axis(values, benefit: str, what: str) -> tuple[float, ...]:
    """The one affine map onto [-1, 1]: by distances to both ends, the ``benefit`` end
    to -1 and the other to 1 exactly; "upper" is the "lower" map of the negated values."""
    if benefit_sign(benefit) < 0:
        values = [-v for v in values]
    hi, lo = max(values), min(values)
    if hi == lo:
        raise ValueError(f"degenerate {what} range: all {what}s equal")
    span = hi - lo
    scaled = tuple(((v - lo) - (hi - v)) / span for v in values)
    if not all(map(math.isfinite, scaled)):
        k = next(k for k, value in enumerate(scaled) if not math.isfinite(value))
        raise ValueError(f"scaled {what} of subject {k} is not finite")
    return scaled


def standardize(scores: ScoreSet) -> tuple[float, ...]:
    """Scores on the one [-1, 1] axis of _unit_axis(): increasing, lowest to -1 and highest to 1."""
    return _unit_axis(scores.values, WeightSpec.benefit, "score")


def perm_moments(values, n_arm1: int) -> tuple[float, float]:
    """Permutation variance of the arm-1 sum and of the mean difference.

    Values are centered before the sum of squares, which matters for
    pseudo-values (scores already sum to zero).
    """
    n = len(values)
    check_arm_sizes(n, n_arm1)
    mean = sum(values) / n
    try:
        ssq = sum((v - mean) ** 2 for v in values)
    except OverflowError:
        ssq = math.inf
    if not math.isfinite(ssq):
        raise ValueError("permutation variance overflows: the values' sum of squares is not finite")
    var_sum = n_arm1 * (n - n_arm1) / (n * (n - 1)) * ssq
    factor = 1.0 / n_arm1 + 1.0 / (n - n_arm1)
    return var_sum, factor * factor * var_sum


def mean_score_diff(values, arms) -> float:
    """Mean over arm 1 minus mean over arm 0."""
    check_two_arms(arms, values)
    ones = [v for v, a in zip(values, arms) if a == 1]
    zeros = [v for v, a in zip(values, arms) if a == 0]
    return sum(ones) / len(ones) - sum(zeros) / len(zeros)


def score_chain(ds: TrialDataset, spec: WeightSpec):
    """The score pipeline: risk table, pooled KM curve, weights, scores.

    Returns (risk table, pooled curve, raw ScoreSet); the table and the
    curve come along for callers that tabulate or test with them.
    """
    rt = build_risk_table(ds)
    pooled = km_fit(ds)
    weights = compute_weights(rt, pooled, spec)
    return rt, pooled, compute_scores(rt, weights, spec)


def wlrt_test(ds: TrialDataset, spec: WeightSpec) -> TestResult:
    """Weighted log-rank test; negative statistic favors arm 1.

    The attached ScoreSet is raw: the test reads no [-1, 1] map, so a trial
    whose scores are all equal tests to z 0, not to an error.
    """
    check_arm_sizes(ds.n, ds.n_arm1)
    rt, _, scores = score_chain(ds, spec)
    u, v = u_and_v(rt, scores.weights)
    return TestResult(spec.describe(), u, v, spec.benefit, per_subject=scores)
