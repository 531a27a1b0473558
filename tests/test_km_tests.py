import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survscore import (
    EstimandSpec,
    Subject,
    TrialDataset,
    build_risk_table,
    km_fit,
    milestone_test,
    parse_dataset,
    pseudo_test,
    pseudo_values,
    rmst_test,
    split_by_arm,
)
from survscore.curves import tail_integrals
from tests import oracles
from tests.conftest import random_dataset, simulated_trial_csv, tied_rows_st


def mirrored(base):
    return TrialDataset(tuple(Subject(t, arm, e) for t, e in base for arm in (0, 1)))


def test_rmst_test_toy(toy):
    res = rmst_test(toy, 18.0)
    assert res.statistic == pytest.approx(15.038 - 11.898, abs=1e-3)
    assert res.variance > 0
    assert res.p_one_sided < 0.5  # longer restricted mean on arm 1
    assert res.warnings == ()
    assert (res.method, res.benefit) == ("RMST(18) difference [KM]", "upper")


def test_milestone_test_toy(toy):
    res = milestone_test(toy, 18.0)
    assert (res.method, res.benefit) == ("milestone(18) difference [KM]", "upper")
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_one_sided == pytest.approx(0.5, abs=1e-12)
    assert res.variance > 0


def test_identical_arms_give_p_half():
    ds = mirrored([(2.0, 1), (4.0, 1), (6.0, 0), (8.0, 1), (9.0, 0)])
    res = rmst_test(ds, 7.0)
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_one_sided == pytest.approx(0.5, abs=1e-12)


def test_horizon_before_first_event_degenerates():
    ds = mirrored([(5.0, 1), (6.0, 1), (7.0, 0)])
    res = rmst_test(ds, 4.0)
    assert (res.statistic, res.variance) == (0.0, 0.0)
    assert res.p_one_sided == 0.5
    mls = milestone_test(ds, 4.0)
    assert (mls.statistic, mls.variance) == (0.0, 0.0)


def test_horizon_beyond_follow_up_errors(toy):
    with pytest.raises(ValueError, match=r"^horizon 40 beyond follow-up 34.64 \(arm 0\)$"):
        rmst_test(toy, 40.0)
    with pytest.raises(ValueError, match=r"^horizon 33.22 beyond follow-up 33.21 \(arm 1\)$"):
        milestone_test(toy, 33.22)  # arm-0 follow-up ends at 34.64, arm 1 at 33.21


def test_milestone_flat_between_event_times(toy):
    # no event time in (16.73, 24.98): the statistic cannot move there
    a = milestone_test(toy, 17.0)
    b = milestone_test(toy, 24.0)
    assert a.statistic == b.statistic
    assert a.variance == b.variance


def test_variance_zero_exactly_when_no_events_by_horizon():
    for seed in range(20):
        ds = random_dataset(seed, max_n=20)
        horizon = min(s.time for s in ds.subjects if s.event) * 0.9
        arm_follow_up = [
            max(s.time for s in ds.subjects if s.arm == arm) for arm in (0, 1)
        ]
        if horizon > min(arm_follow_up):
            continue
        try:
            res = milestone_test(ds, horizon)
        except ValueError:
            continue  # an arm without events has no KM fit
        assert res.variance == 0.0


def test_all_at_risk_dying_drops_term_with_warning():
    ds = TrialDataset(
        (
            Subject(1.0, 0, 1),
            Subject(2.0, 0, 1),  # last arm-0 subject dies: n = d = 1 at t = 2
            Subject(1.5, 1, 1),
            Subject(2.5, 1, 0),
        )
    )
    res = rmst_test(ds, 2.0)
    assert any("t=2" in w and "arm 0" in w for w in res.warnings)
    mls = milestone_test(ds, 2.0)
    assert any("t=2" in w for w in mls.warnings)
    # arm 0 has S(2) = 0, so its variance contribution is entirely dropped
    assert mls.variance >= 0


def test_rmst_statistic_matches_pseudo_functionals(toy):
    res = rmst_test(toy, 18.0)
    ps = pseudo_values(toy, EstimandSpec(kind="rmst", tau=18.0, backend="km", pooling="arm"))
    assert res.statistic == pytest.approx(
        ps.functionals["arm1"] - ps.functionals["arm0"], abs=1e-12
    )


def test_variance_nonnegative_on_random_data():
    for seed in range(30):
        ds = random_dataset(seed, max_n=25)
        arm_events = [
            sum(1 for s in ds.subjects if s.arm == arm and s.event) for arm in (0, 1)
        ]
        if 0 in arm_events:
            continue
        horizon = 0.8 * min(
            max(s.time for s in ds.subjects if s.arm == arm) for arm in (0, 1)
        )
        res = rmst_test(ds, horizon)
        assert res.variance >= 0.0


# the curve of arm 0 reaches 0 at t = 2, where its last subject dies: n = d there
ARM_REACHING_ZERO = [(1.0, 0, 1), (2.0, 0, 1), (1.0, 1, 1), (2.5, 1, 0)]

events_on_both_arms = tied_rows_st.filter(lambda rows: {a for _, a, e in rows if e} == {0, 1})
wheres = st.sampled_from(("event", "between", "follow-up"))


def _horizon(rows, where, pick):
    """An event time, a point between two of them (or before the first), or the shorter
    of the two arms' follow-ups, as ``where`` says; ``pick`` chooses among several."""
    follow_up = min(max(t for t, a, _ in rows if a == arm) for arm in (0, 1))
    event_times = sorted({t for t, _, e in rows if e and t <= follow_up})
    points = sorted({0.0, *event_times, follow_up})
    candidates = {
        "event": event_times,
        "between": [(a + b) / 2 for a, b in zip(points, points[1:])],
        "follow-up": [follow_up],
    }[where]
    return candidates[pick % len(candidates)]


@given(rows=events_on_both_arms, kind=st.sampled_from(("rmst", "milestone")), where=wheres,
       pick=st.integers(0, 11))
@example(rows=ARM_REACHING_ZERO, kind="rmst", where="follow-up", pick=0)
@example(rows=ARM_REACHING_ZERO, kind="milestone", where="event", pick=1)
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_definition_oracle(rows, kind, where, pick):
    horizon = _horizon(rows, where, pick)
    ds = TrialDataset(tuple(Subject(*row) for row in rows))
    result = (rmst_test if kind == "rmst" else milestone_test)(ds, horizon)
    statistic, variance, dropped = oracles.km_difference(rows, kind, horizon)
    assert result.statistic == pytest.approx(statistic, rel=1e-9, abs=1e-12)
    assert result.variance == pytest.approx(variance, rel=1e-9, abs=1e-12)
    assert tuple(
        sum(f" on arm {arm} dropped: " in w for w in result.warnings) for arm in (0, 1)
    ) == dropped
    assert len(result.warnings) == sum(dropped)


@given(rows=events_on_both_arms, where=wheres, pick=st.integers(0, 11))
@example(rows=ARM_REACHING_ZERO, where="follow-up", pick=0)
@example(rows=ARM_REACHING_ZERO, where="event", pick=1)
@settings(max_examples=300, deadline=None)
def test_tail_integrals_match_exact_integrals_and_the_backward_sum(rows, where, pick):
    """The shared kernel against exact rational integrals of each conditional curve, at the
    horizon and at the trial's follow-up (past an arm's own, where a factor of 0 is read);
    and the RMST test's coefficients, through the variance they give, against the
    backward sum of S * dt."""
    horizon = _horizon(rows, where, pick)
    ds = TrialDataset(tuple(Subject(*row) for row in rows))
    want = 0.0
    for arm in split_by_arm(ds):
        rt = build_risk_table(arm)
        factors = [1.0 - d / n for d, n in zip(rt.events, rt.at_risk)]
        for h in (horizon, ds.follow_up):
            tails = tail_integrals(rt.times, factors, h)
            assert len(tails) == 1 + sum(t < h for t in rt.times)
            for j, got in enumerate(tails):
                exact = oracles.conditional_tail_integral(rt.times, factors, j, h)
                assert math.isfinite(got) and abs(got - exact) <= 1e-14 * exact, (h, j)
        coefficients = oracles.integrals_from(km_fit(arm), horizon)
        for t, n, d, c in zip(rt.times, rt.at_risk, rt.events, coefficients):
            if t <= horizon and n != d:
                want += c * c * d / (n * (n - d))
    variance = rmst_test(ds, horizon).variance
    assert math.isfinite(variance) and abs(variance - want) <= 1e-14 * want


def _km_test(rows, kind, horizon):
    ds = TrialDataset(tuple(Subject(*row) for row in rows))
    return (rmst_test if kind == "rmst" else milestone_test)(ds, horizon)


@given(rows=events_on_both_arms, kind=st.sampled_from(("rmst", "milestone")), where=wheres,
       pick=st.integers(0, 11), shuffle_seed=st.integers(0, 2**32 - 1))
@example(rows=ARM_REACHING_ZERO, kind="rmst", where="follow-up", pick=0, shuffle_seed=1)
@example(rows=ARM_REACHING_ZERO, kind="milestone", where="event", pick=1, shuffle_seed=2)
@settings(max_examples=300, deadline=None)
def test_closed_form_is_metamorphic_in_row_order_arm_labels_and_time_scale(
    rows, kind, where, pick, shuffle_seed
):
    """Shuffled rows give the same bits; swapped arms negate the statistic exactly and
    sum the same variance terms in the other order; doubled times and horizon double
    the RMST difference and quadruple its variance exactly, and leave the milestone
    test's numbers as they were."""
    horizon = _horizon(rows, where, pick)
    base = _km_test(rows, kind, horizon)
    shuffled = random.Random(shuffle_seed).sample(rows, len(rows))
    again = _km_test(shuffled, kind, horizon)
    assert (again.statistic, again.variance, again.warnings) == (
        base.statistic, base.variance, base.warnings
    )

    swapped = _km_test([(t, 1 - a, e) for t, a, e in rows], kind, horizon)
    assert swapped.statistic == -base.statistic
    assert abs(swapped.variance - base.variance) <= 1e-15 * base.variance
    relabel = {"arm 0": "arm 1", "arm 1": "arm 0"}
    assert sorted(swapped.warnings) == sorted(
        re.sub(r"arm [01]", lambda m: relabel[m[0]], w) for w in base.warnings
    )

    doubled = _km_test([(2.0 * t, a, e) for t, a, e in rows], kind, 2.0 * horizon)
    scale = 2.0 if kind == "rmst" else 1.0
    assert (doubled.statistic, doubled.variance) == (
        scale * base.statistic, scale * scale * base.variance
    )
    assert len(doubled.warnings) == len(base.warnings)


def _both_routes(ds, kind, horizon):
    """The closed-form statistic and the arm-mean difference of per-arm KM pseudo-values,
    each as (statistic, None) or, refused, (None, its text)."""
    spec = EstimandSpec(kind, **{"tau" if kind == "rmst" else "kappa": horizon})
    routes = (lambda: (rmst_test if kind == "rmst" else milestone_test)(ds, horizon),
              lambda: pseudo_test(pseudo_values(ds, spec)))
    outcomes = []
    for route in routes:
        try:
            outcomes.append((route().statistic, None))
        except ValueError as exc:
            outcomes.append((None, str(exc)))
    return outcomes


def _two_events_per_arm(rows):
    return all(sum(1 for _, a, e in rows if a == arm and e) >= 2 for arm in (0, 1))


@given(
    rows=tied_rows_st.filter(_two_events_per_arm),
    kind=st.sampled_from(("rmst", "milestone")),
    horizon=st.sampled_from((0.5, 1.0, 1.5, 2.0, 2.25, 2.5, 3.0, 4.0, 5.0)),
)
# arm 0's second-largest time is 2: at 2.25 only the pseudo route refuses, and at 3 both
# refuse, the pseudo route on arm 0's leave-one-out fit and the closed form on arm 1
@example(rows=[(1.0, 0, 1), (2.0, 0, 1), (4.0, 0, 0), (1.0, 1, 1), (2.5, 1, 1), (2.5, 1, 0)],
         kind="rmst", horizon=2.25)
@example(rows=[(1.0, 0, 1), (2.0, 0, 1), (4.0, 0, 0), (1.0, 1, 1), (2.5, 1, 1), (2.5, 1, 0)],
         kind="milestone", horizon=3.0)
@settings(max_examples=300, deadline=None)
def test_arm_means_of_km_pseudo_values_equal_the_closed_form_statistic(rows, kind, horizon):
    """The jackknife of a KM integral is the integral (Stute & Wang, 1994), so both routes
    give one statistic; with two events per arm every leave-one-out fit exists, and the one
    refusal either route makes is the shared follow-up rule, which the pseudo route also
    applies to each leave-one-out fit."""
    ds = TrialDataset(tuple(Subject(*row) for row in rows))
    (closed, closed_refusal), (pseudo, pseudo_refusal) = _both_routes(ds, kind, horizon)
    if closed_refusal is None and pseudo_refusal is None:
        assert abs(pseudo - closed) <= 1e-12 * max(1.0, abs(closed))
    for refusal in (closed_refusal, pseudo_refusal):
        assert refusal is None or refusal.startswith(f"horizon {horizon:g} beyond follow-up ")
    assert pseudo_refusal is not None or closed_refusal is None  # the pseudo route refuses more


@pytest.mark.parametrize("kind, horizon", [("rmst", 6.0), ("rmst", 18.0), ("rmst", 27.0),
                                           ("milestone", 6.0), ("milestone", 18.0)])
def test_routes_agree_on_a_simulated_trial(kind, horizon, tmp_path):
    ds = parse_dataset(simulated_trial_csv(tmp_path).read_text(encoding="utf-8"))
    (closed, closed_refusal), (pseudo, pseudo_refusal) = _both_routes(ds, kind, horizon)
    assert (closed_refusal, pseudo_refusal) == (None, None)
    assert pseudo == pytest.approx(closed, rel=1e-10)
