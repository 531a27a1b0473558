import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survscore import (
    ParametricSurvival,
    StepSurvival,
    Subject,
    TrialDataset,
    build_risk_table,
    fit_exponential,
    fit_piecewise_exponential,
    km_fit,
    rmst,
    split_by_arm,
)
from tests import oracles
from tests.conftest import datasets_with_events, random_dataset, tied_rows_st


@pytest.fixture(scope="module")
def toy_pooled(toy):
    return km_fit(toy)


def test_km_toy_left_limits(toy, toy_pooled):
    # S(t-) at an event time is the level after the jump before it: 4.38, 16.73
    assert toy_pooled.at(6.0) == pytest.approx(0.917, abs=1e-3)
    assert toy_pooled.at(24.0) == pytest.approx(0.500, abs=1e-3)
    # whole curve against the direct-product oracle
    steps = oracles.km_steps([(s.time, s.event) for s in toy.subjects])
    assert toy_pooled.jump_times == tuple(t for t, _ in steps)
    for t, v in steps:
        assert toy_pooled.at(t) == pytest.approx(v, abs=1e-12)


def test_km_single_subject():
    curve = km_fit(TrialDataset((Subject(5.0, 0, 1),)))
    assert curve.at(4.99) == 1.0
    assert curve.at(5.0) == 0.0


def test_km_product_identity_on_random_data():
    for seed in range(30):
        ds = random_dataset(seed, max_n=30)
        curve = km_fit(ds)
        steps = oracles.km_steps([(s.time, s.event) for s in ds.subjects])
        assert curve.jump_times == tuple(t for t, _ in steps)
        for (t, v), got in zip(steps, curve.values):
            assert got == pytest.approx(v, abs=1e-12)


@given(tied_rows_st)
@settings(max_examples=60, deadline=None)
def test_km_fit_is_kept_per_dataset(rows):
    for ds in datasets_with_events(rows):  # the trial and each arm alone: a curve each
        curve = km_fit(ds)
        assert km_fit(ds) is curve
        assert curve.jump_times is build_risk_table(ds).times
        steps = oracles.km_steps(zip(ds.times, ds.events))
        assert curve.jump_times == tuple(t for t, _ in steps)
        assert curve.values == pytest.approx([v for _, v in steps], abs=1e-12)
        assert curve.follow_up == max(ds.times)
        assert all(km_fit(sub) is not curve for sub in split_by_arm(ds) if sub.n_events)


def test_rmst_toy_arms(toy):
    arm0, arm1 = split_by_arm(toy)
    steps0 = oracles.km_steps([(s.time, s.event) for s in arm0.subjects])
    steps1 = oracles.km_steps([(s.time, s.event) for s in arm1.subjects])
    assert oracles.step_integral(steps0, 18.0) == pytest.approx(11.898, abs=1e-3)
    assert oracles.step_integral(steps1, 18.0) == pytest.approx(15.038, abs=1e-3)
    assert rmst(km_fit(arm0), 18.0) == pytest.approx(oracles.step_integral(steps0, 18.0), abs=1e-12)
    assert rmst(km_fit(arm1), 18.0) == pytest.approx(oracles.step_integral(steps1, 18.0), abs=1e-12)


def test_rmst_flat_exponential_is_tau():
    flat = ParametricSurvival((), (0.0,))
    assert rmst(flat, 7.5) == 7.5


def test_rmst_beyond_follow_up_errors(toy):
    curve = km_fit(toy)
    with pytest.raises(ValueError, match="^horizon 34.65 beyond follow-up 34.64$"):
        rmst(curve, toy.follow_up + 0.01)
    # exactly at follow-up is allowed
    rmst(curve, toy.follow_up)


def test_rmst_additivity():
    for seed in range(20):
        ds = random_dataset(seed, max_n=25)
        curve = km_fit(ds)
        hi = curve.follow_up
        tau1, tau2 = hi * 0.3, hi * 0.8
        steps = list(zip(curve.jump_times, curve.values))
        segment = oracles.step_integral(steps, tau2) - oracles.step_integral(steps, tau1)
        assert rmst(curve, tau2) - rmst(curve, tau1) == pytest.approx(segment, abs=1e-9)


def test_surv_at_toy_milestone(toy, toy_pooled):
    assert toy_pooled.at(18.0) == pytest.approx(0.500, abs=1e-12)
    assert toy_pooled.at(0.0) == 1.0


def test_step_right_continuity():
    curve = StepSurvival((1.0, 2.0), (0.6, 0.2), follow_up=3.0)
    assert curve.at(1.0) == 0.6
    assert curve.at(0.999) == 1.0
    assert curve.at(2.0) == 0.2
    assert curve.at(1.999) == 0.6


def test_step_survival_validation():
    with pytest.raises(ValueError, match="ascending"):
        StepSurvival((2.0, 1.0), (0.5, 0.2), 3.0)
    with pytest.raises(ValueError, match="nonincreasing"):
        StepSurvival((1.0, 2.0), (0.5, 0.7), 3.0)
    with pytest.raises(ValueError, match="follow_up"):
        StepSurvival((1.0, 2.0), (0.5, 0.2), 1.5)


def test_fit_exponential_toy(toy):
    fit = fit_exponential(toy)
    assert fit.breakpoints == ()
    assert fit.rates[0] == pytest.approx(7 / 232.28, abs=1e-9)
    assert fit.rates[0] == pytest.approx(0.030136, abs=1e-6)


def test_fit_exponential_edges():
    assert fit_exponential(TrialDataset((Subject(4.0, 0, 1),))).rates == (0.25,)
    flat = fit_exponential(TrialDataset((Subject(4.0, 0, 0), Subject(2.0, 1, 0))))
    assert flat.rates == (0.0,)
    assert flat.at(100.0) == 1.0


def test_fit_exponential_adds_person_time_left_to_right():
    # 1e16 + 1 rounds back to 1e16 at each step; a compensated sum (sum() from Python
    # 3.12 on) would keep the 2 and give 2.9999999999999994e-16
    ds = TrialDataset([Subject(1e16, 0, 1), Subject(1.0, 1, 1), Subject(1.0, 0, 1)])
    assert fit_exponential(ds).rates == (3 / 1e16,)


def test_piecewise_single_far_breakpoint_equals_exponential(toy):
    pw = fit_piecewise_exponential(toy, (1000.0,))
    assert pw.rates[0] == pytest.approx(fit_exponential(toy).rates[0], abs=1e-12)
    assert pw.rates[1] == 0.0


def test_piecewise_toy_matches_person_time_oracle(toy):
    cuts = (2.0, 4.0, 6.0, 8.0)
    pw = fit_piecewise_exponential(toy, cuts)
    expected = oracles.piecewise_rates([(s.time, s.event) for s in toy.subjects], cuts)
    assert list(pw.rates) == pytest.approx(expected, abs=1e-12)
    events_in = [
        sum(1 for s in toy.subjects if s.event and lo < s.time <= hi)
        for lo, hi in zip((0.0,) + cuts, cuts + (math.inf,))
    ]
    assert events_in == [0, 0, 1, 3, 3]
    assert pw.rates[0] == 0.0  # no events before the first breakpoint


def test_piecewise_validation(toy):
    with pytest.raises(ValueError, match="ascending"):
        fit_piecewise_exponential(toy, (4.0, 2.0))
    with pytest.raises(ValueError, match="positive"):
        fit_piecewise_exponential(toy, (0.0, 2.0))
    for cut in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_piecewise_exponential(toy, (2.0, cut))


@pytest.mark.parametrize("cuts, message", [
    ((math.nan,), "breakpoints must be finite"),  # else S(1) reads nan and RMST(2) 0.0
    ((2.0, math.inf), "breakpoints must be finite"),
    ((4.0, 2.0), "breakpoints must be positive and strictly ascending"),
    ((0.0, 2.0), "breakpoints must be positive and strictly ascending"),
])
def test_parametric_curve_refuses_what_the_fit_refuses(cuts, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ParametricSurvival(cuts, (0.1,) * (len(cuts) + 1))


rates_st = st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=4)


@given(rates_st, st.floats(min_value=0.01, max_value=40.0))
@example([1e-17], 1.0)  # 1 - exp(-1e-17) is 0.0: the integral must still be 1
@example([5e-324], 0.5)  # rate * t underflows to 0.0: still 0.5
@example([1.0, 5e-324], 3.0)  # S(2) * 5e-324 underflows: the last segment still adds S(2)
@settings(max_examples=60, deadline=None)
def test_parametric_cumhaz_and_monotonicity(rates, t):
    cuts = tuple(2.0 * (i + 1) for i in range(len(rates) - 1))
    curve = ParametricSurvival(cuts, tuple(rates))
    assert curve.at(0.0) == 1.0
    assert -math.log(max(curve.at(t), 1e-300)) == pytest.approx(
        curve.cumulative_hazard(t), abs=1e-9
    )
    assert curve.at(t) <= curve.at(t * 0.5) + 1e-15
    assert rmst(curve, t) == pytest.approx(
        oracles.parametric_integral(list(rates), list(cuts), t), abs=1e-9
    )
