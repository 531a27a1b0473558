import math
import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survscore import logrank
from survscore import (
    Subject,
    TrialDataset,
    WeightSpec,
    build_risk_table,
    compute_scores,
    compute_weights,
    km_fit,
    mean_score_diff,
    perm_moments,
    split_by_arm,
    standardize,
    u_and_v,
    wlrt_test,
)
from tests import oracles
from tests.conftest import (
    datasets_with_events, random_dataset, random_untied_dataset, tied_rows_st,
)

ALL_SPECS = [
    WeightSpec.logrank(),
    WeightSpec.fleming_harrington(0, 1),
    WeightSpec.fleming_harrington(1, 1),
    WeightSpec.modest(0.5),
]


@pytest.fixture(scope="module")
def toy_parts(toy):
    rt = build_risk_table(toy)
    pooled = km_fit(toy)
    return toy, rt, pooled


def _scores(ds, spec):
    rt = build_risk_table(ds)
    weights = compute_weights(rt, km_fit(ds), spec)
    return compute_scores(rt, weights, spec)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec("gehan")
    with pytest.raises(ValueError):
        WeightSpec.fleming_harrington(-1, 0)
    with pytest.raises(ValueError):
        WeightSpec.modest(0.0)
    with pytest.raises(ValueError):
        WeightSpec.modest(1.5)


def test_weights_toy(toy_parts):
    toy, rt, pooled = toy_parts
    assert compute_weights(rt, pooled, WeightSpec.logrank()) == (1.0,) * 7
    fh01 = compute_weights(rt, pooled, WeightSpec.fleming_harrington(0, 1))
    assert list(fh01) == pytest.approx([0, 0.083, 0.167, 0.250, 0.333, 0.417, 0.500], abs=1e-3)
    modest = compute_weights(rt, pooled, WeightSpec.modest(0.5))
    assert modest[-1] == pytest.approx(2.0, abs=1e-12)
    assert modest[0] == 1.0


@given(tied_rows_st)
@example([(2.0, 0, 1), (2.0, 1, 0), (2.0, 1, 1), (1.0, 0, 0), (4.0, 1, 0)])
@settings(max_examples=80, deadline=None)
def test_weights_read_left_limits_by_index(rows):
    for ds in datasets_with_events(rows):  # the trial and each arm alone
        rt, pooled = build_risk_table(ds), km_fit(ds)
        for spec in ALL_SPECS:
            want = oracles.weights_from_left_limits(rt, pooled, spec)
            assert compute_weights(rt, pooled, spec) == want


def test_weights_refuse_a_curve_from_another_dataset(toy_parts):
    toy, rt, _ = toy_parts
    for sub in split_by_arm(toy):
        for spec in ALL_SPECS:
            with pytest.raises(ValueError, match="event times"):
                compute_weights(rt, km_fit(sub), spec)


def test_u_toy_logrank_matches_score_sum(toy_parts):
    toy, rt, pooled = toy_parts
    w = compute_weights(rt, pooled, WeightSpec.logrank())
    u, v = u_and_v(rt, w)
    scores = compute_scores(rt, w)
    assert u == pytest.approx(scores.arm1_sum, abs=1e-12)
    assert u == pytest.approx(-0.797, abs=1e-3)
    # closed form over the 7 rows: 1/4 + 30/121 + 1/4 + 20/81 + 15/64 + 12/49 + 1/4
    assert v == pytest.approx(1.7241204, abs=1e-6)


def test_u_zero_for_mirrored_arms():
    base = [(2.0, 1), (3.5, 0), (5.0, 1), (7.25, 1)]
    subjects = [Subject(t, arm, e) for t, e in base for arm in (0, 1)]
    rt = build_risk_table(TrialDataset(tuple(subjects)))
    u, _ = u_and_v(rt, (1.0,) * len(rt.times))
    assert u == pytest.approx(0.0, abs=1e-12)


def test_variance_term_boundaries():
    # two tied events exhaust the risk set: numerator (n - d) = 0, stays finite
    rt = build_risk_table(TrialDataset((Subject(1.0, 0, 1), Subject(1.0, 1, 1))))
    _, v = u_and_v(rt, (1.0,))
    assert v == 0.0
    # a single subject at risk contributes nothing rather than dividing by zero
    rt = build_risk_table(TrialDataset((Subject(1.0, 0, 1),)))
    _, v = u_and_v(rt, (1.0,))
    assert v == 0.0


def test_scores_toy_values(toy_parts):
    toy, rt, pooled = toy_parts
    scores = compute_scores(rt, (1.0,) * 7)
    by_subject = dict(zip(((s.time, s.event) for s in toy.subjects), scores.values))
    assert by_subject[(4.38, 1)] == pytest.approx(0.917, abs=1e-3)
    assert by_subject[(28.69, 0)] == pytest.approx(-0.820, abs=1e-3)
    # the last event's score comes from the decomposition formula
    assert by_subject[(24.98, 1)] == pytest.approx(0.180, abs=1e-3)


def test_scores_fh01_first_three_events_increase(toy_parts):
    toy, rt, pooled = toy_parts
    w = compute_weights(rt, pooled, WeightSpec.fleming_harrington(0, 1))
    scores = compute_scores(rt, w)
    events = sorted((s.time, a) for s, a in zip(toy.subjects, scores.values) if s.event)
    first_three = [a for _, a in events[:3]]
    assert first_three == pytest.approx([0.000, 0.076, 0.142], abs=1e-3)
    assert first_three[0] < first_three[1] < first_three[2]


def test_score_censored_before_first_event_is_zero():
    ds = TrialDataset((Subject(1.0, 0, 0), Subject(2.0, 0, 1), Subject(3.0, 1, 1)))
    scores = _scores(ds, WeightSpec.logrank())
    assert scores.values[0] == 0.0


def test_scores_sum_to_zero_across_specs():
    for seed in range(25):
        ds = random_dataset(seed)
        for spec in ALL_SPECS:
            assert abs(sum(_scores(ds, spec).values)) < 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_arm1_score_sum_equals_u(seed):
    ds = random_dataset(seed)
    rt = build_risk_table(ds)
    pooled = km_fit(ds)
    for spec in ALL_SPECS:
        w = compute_weights(rt, pooled, spec)
        u, _ = u_and_v(rt, w)
        assert abs(compute_scores(rt, w).arm1_sum - u) < 1e-9


def test_standardize_toy(toy_parts):
    toy, rt, pooled = toy_parts
    scores = compute_scores(rt, (1.0,) * 7)
    scaled = standardize(scores)
    hi, lo = max(scores.values), min(scores.values)
    scale = 2.0 / (hi - lo)
    offset = scaled[scores.values.index(hi)] - scale * hi
    assert scale == pytest.approx(1.152, abs=1e-3)
    assert offset == pytest.approx(-0.056, abs=1e-3)
    assert scaled == pytest.approx([scale * a + offset for a in scores.values], abs=1e-12)
    assert max(scaled) == pytest.approx(1.0, abs=1e-12)
    assert min(scaled) == pytest.approx(-1.0, abs=1e-12)
    means = [
        sum(b for b, s in zip(scaled, toy.subjects) if s.arm == arm) / 6
        for arm in (0, 1)
    ]
    assert means[0] == pytest.approx(0.0973, abs=5e-4)
    assert means[1] == pytest.approx(-0.209, abs=5e-4)


def test_standardize_degenerate():
    ds = TrialDataset((Subject(1.0, 0, 1), Subject(1.0, 1, 1)))
    scores = _scores(ds, WeightSpec.logrank())
    assert len(set(scores.values)) == 1
    with pytest.raises(ValueError, match="degenerate score range"):
        standardize(scores)


def test_standardize_preserves_order():
    # the lowest score lands on -1 and the highest on 1 exactly, not one ulp inside
    for seed in range(200):
        ds = random_dataset(seed)
        for spec in (WeightSpec.logrank(), WeightSpec.fleming_harrington(0, 1),
                     WeightSpec.modest(0.5)):
            scores = _scores(ds, spec)
            if len(set(scores.values)) == 1:  # one event time, weighted 0 by FH(0,1)
                with pytest.raises(ValueError, match="degenerate score range"):
                    standardize(scores)
                continue
            scaled = standardize(scores)
            by_raw = [scaled[k] for k in sorted(range(ds.n), key=scores.values.__getitem__)]
            assert by_raw == sorted(by_raw)
            assert (by_raw[0], by_raw[-1]) == (-1.0, 1.0)
            assert all(-1.0 <= b <= 1.0 for b in scaled)


def test_perm_moments_toy(toy_parts):
    toy, rt, pooled = toy_parts
    raw = compute_scores(rt, (1.0,) * 7).values
    var_sum, var_diff = perm_moments(raw, 6)
    ssq = sum(a * a for a in raw)  # scores already sum to zero
    assert var_sum == pytest.approx(36 / 132 * ssq, abs=1e-12)
    assert var_diff == pytest.approx((1 / 6 + 1 / 6) ** 2 * var_sum, abs=1e-12)


def test_perm_moments_edge_cases():
    assert perm_moments([3.0, 3.0, 3.0], 1) == (0.0, 0.0)
    var_sum, _ = perm_moments([-2.5, 2.5], 1)
    assert var_sum == pytest.approx(2.5**2, abs=1e-12)
    with pytest.raises(ValueError):
        perm_moments([1.0], 1)
    with pytest.raises(ValueError):
        perm_moments([1.0, 2.0], 2)


def test_perm_moments_refuses_overflowing_sum_of_squares():
    for values in ([-2e200, 1e200, 3.0], [-1.5e308, 1.5e308, 0.0]):
        with pytest.raises(ValueError, match="sum of squares"):
            perm_moments(values, 1)


def test_mean_score_diff(toy_parts):
    toy, rt, pooled = toy_parts
    scores = compute_scores(rt, (1.0,) * 7)
    diff = mean_score_diff(standardize(scores), toy.arms)
    assert diff == pytest.approx(-0.209 - 0.0973, abs=1e-3)
    # affine identity: the offset cancels, the slope factors out
    raw_diff = mean_score_diff(scores.values, toy.arms)
    scale = 2.0 / (max(scores.values) - min(scores.values))
    assert diff == pytest.approx(scale * raw_diff, abs=1e-12)
    assert mean_score_diff([1.0, 1.0], [0, 1]) == 0.0
    with pytest.raises(ValueError, match="^arm 0 has no subjects$"):
        mean_score_diff([1.0, 2.0], [1, 1])


def test_wlrt_test_toy(toy):
    res = wlrt_test(toy, WeightSpec.logrank())
    assert res.statistic == pytest.approx(-0.797, abs=1e-3)
    assert res.z == pytest.approx(res.statistic / math.sqrt(res.variance), abs=1e-12)
    assert 0 < res.p_one_sided < 0.5  # negative statistic favors arm 1
    assert standardize(res.per_subject) == WeightSpec.logrank().scaled(toy)
    assert res.method == "log-rank"


def test_spec_test_is_wlrt_test(toy):
    for spec in ALL_SPECS:
        assert spec.test(toy) == wlrt_test(toy, spec)


def test_wlrt_fh00_and_modest1_coincide_with_logrank(toy):
    base = wlrt_test(toy, WeightSpec.logrank())
    for spec in (WeightSpec.fleming_harrington(0, 0), WeightSpec.modest(1.0)):
        other = wlrt_test(toy, spec)
        assert other.statistic == base.statistic
        assert other.variance == base.variance
        assert other.z == base.z
        assert other.p_one_sided == base.p_one_sided
        assert other.per_subject.values == base.per_subject.values


def test_wlrt_requires_two_arms():
    ds = TrialDataset((Subject(1.0, 0, 1), Subject(2.0, 0, 1)))
    with pytest.raises(ValueError, match="^arm 1 has no subjects$"):
        wlrt_test(ds, WeightSpec.logrank())


def test_result_z_and_p_at_zero_variance():
    both_zero = logrank.TestResult("t", 0.0, 0.0, "lower")
    assert both_zero.z == 0.0 and both_zero.p_one_sided == 0.5
    assert replace(both_zero, benefit="upper").p_one_sided == 0.5
    for statistic, benefit, p in ((2.0, "lower", 1.0), (2.0, "upper", 0.0),
                                  (-2.0, "lower", 0.0), (-2.0, "upper", 1.0)):
        result = logrank.TestResult("t", statistic, 0.0, benefit)
        assert result.z == math.copysign(math.inf, statistic)
        assert result.p_one_sided == p


@given(st.floats(-5.0, 5.0), st.floats(1e-6, 1e6))
def test_result_tails_are_complementary(z, variance):
    lower = logrank.TestResult("t", z * math.sqrt(variance), variance, "lower")
    upper = replace(lower, benefit="upper")
    assert upper.z == lower.z
    assert abs(lower.p_one_sided + upper.p_one_sided - 1.0) <= 1e-15
    # the other tail is computed on its own, not as 1 - p
    assert upper.p_one_sided == logrank.normal_cdf(-lower.z)
    assert replace(upper, benefit="lower").p_one_sided == logrank.normal_cdf(lower.z)


@pytest.mark.parametrize("z", [0.0, -0.0, math.inf, -math.inf, 1.5, -1.5])
def test_p_one_sided_orients_z_by_the_benefit(z):
    for benefit, oriented in (("lower", z), ("upper", -z)):
        result = logrank.TestResult("t", z, 1.0, benefit)
        assert result.z.hex() == z.hex()
        assert result.p_one_sided.hex() == logrank.normal_cdf(oriented).hex()


def _packed(values):
    return struct.pack(f"<{len(values)}d", *values)


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.0**1022, -(2.0**1022),
                                2.0**1023, -(2.0**1023), 1.7976931348623157e308,
                                -1.7976931348623157e308])


@given(st.lists(st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False)), min_size=1, max_size=10)
       .flatmap(lambda xs: st.permutations(xs + [max(xs), min(xs)])))
@example([0.0, -0.0, 1.0, -0.0, 0.0, 1.0])
@example([-1.0, 0.0, 1.0, 1.0])
@example([-0.0, 0.0, 2.0, -0.0])
@example([-(2.0**1023), 2.0**1023, 0.0, -(2.0**1023)])
@example([1.7976931348623157e308, 1.7976931348623157e308, 1.0])
@settings(max_examples=300)
def test_upper_unit_axis_matches_its_own_formula_bit_for_bit(values):
    # the "upper" map is the "lower" map of the negated values; each intermediate is the
    # same IEEE operation as the direct formula's, so signed zeros land in the same places
    want = oracles.upper_unit_axis(values)
    if want is None:
        with pytest.raises(ValueError, match="degenerate value range|scaled value of subject"):
            logrank._unit_axis(values, "upper", "value")
    else:
        assert _packed(logrank._unit_axis(values, "upper", "value")) == _packed(want)


def test_result_refuses_unknown_benefit():
    with pytest.raises(ValueError, match="benefit"):
        logrank.TestResult("t", 1.0, 1.0, "down")


def test_logrank_event_scores_strictly_decrease():
    for seed in range(40):
        ds = random_dataset(seed)
        scores = _scores(ds, WeightSpec.logrank())
        events = sorted(
            {(s.time, a) for s, a in zip(ds.subjects, scores.values) if s.event}
        )
        values = [a for _, a in events]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_modest_event_scores_nonincreasing_without_ties():
    # the claim needs distinct event times; tied events can locally raise it
    for seed in range(40):
        ds = random_untied_dataset(seed)
        scores = _scores(ds, WeightSpec.modest(0.5))
        events = sorted((s.time, a) for s, a in zip(ds.subjects, scores.values) if s.event)
        values = [a for _, a in events]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
