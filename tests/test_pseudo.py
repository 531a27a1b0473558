import hashlib
import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survscore import (
    EstimandSpec,
    Subject,
    TrialDataset,
    exact_perm_p,
    mean_score_diff,
    parse_dataset,
    pseudo_test,
    pseudo_values,
    standardize_pseudo,
)
from survscore.pseudo import _functional
from tests import oracles
from tests.conftest import pseudo_friendly_dataset, simulated_trial_csv

# (time, arm) -> (loo rmst, pseudo-value, scaled) for rmst(18), KM, per-arm
TOY_EXPECTED = {
    (34.64, 0): (10.678, 18.00, -1.000),
    (4.38, 0): (13.402, 4.38, 1.000),
    (28.69, 0): (10.678, 18.00, -1.000),
    (6.69, 0): (12.940, 6.69, 0.661),
    (24.98, 0): (10.678, 18.00, -1.000),
    (6.32, 0): (13.014, 6.32, 0.715),
    (13.38, 1): (15.370, 13.38, -0.322),
    (33.21, 1): (14.446, 18.00, -1.000),
    (6.12, 1): (16.822, 6.12, 0.745),
    (16.73, 1): (14.700, 16.73, -0.814),
    (27.68, 1): (14.446, 18.00, -1.000),
    (29.46, 1): (14.446, 18.00, -1.000),
}

RMST18 = EstimandSpec(kind="rmst", tau=18.0, backend="km", pooling="arm")


def _whole(text):
    """A ``pytest.raises`` match for exactly ``text``."""
    return f"^{re.escape(text)}$"


def test_estimand_spec_validation():
    with pytest.raises(ValueError):
        EstimandSpec(kind="hazard", tau=1.0)
    with pytest.raises(ValueError):
        EstimandSpec(kind="rmst")
    with pytest.raises(ValueError):
        EstimandSpec(kind="milestone", kappa=-1.0)
    with pytest.raises(ValueError):
        EstimandSpec(kind="wmst", tau1=5.0, tau2=5.0)
    with pytest.raises(ValueError):
        EstimandSpec(kind="rmst", tau=1.0, backend="spline")
    for bad in (math.nan, math.inf):
        for spec in (dict(kind="rmst", tau=bad), dict(kind="ahsw", tau=bad),
                     dict(kind="milestone", kappa=bad), dict(kind="wmst", tau1=bad, tau2=3.0),
                     dict(kind="wmst", tau1=0.0, tau2=bad),
                     dict(kind="rmst", tau=1.0, breakpoints=(2.0, bad))):
            with pytest.raises(ValueError, match="finite"):
                EstimandSpec(**spec)
    # tau1 = 0 is a legal window start
    EstimandSpec(kind="wmst", tau1=0.0, tau2=3.0)


@pytest.mark.parametrize("cuts", [(4.0, 2.0), (2.0, 2.0), (0.0, 2.0), (-1.0,)])
def test_spec_refuses_breakpoints_out_of_order_or_not_positive(cuts):
    with pytest.raises(ValueError, match="^breakpoints must be positive and strictly ascending$"):
        EstimandSpec(kind="rmst", tau=1.0, backend="piecewise", breakpoints=cuts)


def test_toy_rmst_pseudo_values(toy):
    ps = pseudo_values(toy, RMST18)
    for subject, loo, value, scaled in zip(toy.subjects, ps.loo, ps.values, standardize_pseudo(ps)):
        want_loo, want_value, want_scaled = TOY_EXPECTED[(subject.time, subject.arm)]
        assert loo == pytest.approx(want_loo, abs=1e-3)
        assert value == pytest.approx(want_value, abs=1e-3)
        assert scaled == pytest.approx(want_scaled, abs=1e-3)
    assert ps.functionals["arm0"] == pytest.approx(11.898, abs=1e-3)
    assert ps.functionals["arm1"] == pytest.approx(15.038, abs=1e-3)


def test_wmst_from_zero_equals_rmst(toy):
    rmst_ps = pseudo_values(toy, RMST18)
    wmst_ps = pseudo_values(
        toy, EstimandSpec(kind="wmst", tau1=0.0, tau2=18.0, backend="km", pooling="arm")
    )
    assert wmst_ps.values == rmst_ps.values


def test_wmst_is_difference_of_rmst_pseudo_values(toy):
    a = pseudo_values(toy, EstimandSpec(kind="rmst", tau=18.0, pooling="arm"))
    b = pseudo_values(toy, EstimandSpec(kind="rmst", tau=6.0, pooling="arm"))
    w = pseudo_values(toy, EstimandSpec(kind="wmst", tau1=6.0, tau2=18.0, pooling="arm"))
    for wa, xa, xb in zip(w.values, a.values, b.values):
        assert wa == pytest.approx(xa - xb, abs=1e-12)


def test_single_subject_group_rejected():
    ds = TrialDataset((Subject(5.0, 0, 1), Subject(6.0, 0, 1), Subject(4.0, 1, 1)))
    with pytest.raises(ValueError, match=_whole("fitting group arm 1 needs at least 2 subjects, has 1")):
        pseudo_values(ds, EstimandSpec(kind="milestone", kappa=3.0, pooling="arm"))


def test_degenerate_leave_one_out_named():
    # arm 0 has a single event; removing it breaks the KM refit
    ds = TrialDataset(
        (Subject(5.0, 0, 1), Subject(6.0, 0, 0), Subject(4.0, 1, 1), Subject(7.0, 1, 1))
    )
    with pytest.raises(
        ValueError, match=_whole("degenerate leave-one-out: removing subject 0 leaves no events")
    ):
        pseudo_values(ds, EstimandSpec(kind="rmst", tau=4.0, pooling="arm"))


def test_horizon_beyond_loo_follow_up_named():
    # removing the long censored subject shortens arm-0 follow-up below tau
    ds = TrialDataset(
        (
            Subject(2.0, 0, 1),
            Subject(3.0, 0, 1),
            Subject(20.0, 0, 0),
            Subject(2.5, 1, 1),
            Subject(19.0, 1, 0),
            Subject(21.0, 1, 0),
        )
    )
    with pytest.raises(
        ValueError, match=_whole("horizon 10 beyond follow-up 3 (after removing subject 2)")
    ):
        pseudo_values(ds, EstimandSpec(kind="rmst", tau=10.0, pooling="arm"))


def test_ahsw_log_of_zero_named():
    # arm 1 keeps a valid KM after any removal, but dropping its only event
    # before tau pushes S(tau) back to 1
    ds = TrialDataset(
        (
            Subject(1.0, 0, 1),
            Subject(2.0, 0, 1),
            Subject(9.0, 0, 0),
            Subject(9.5, 0, 0),
            Subject(3.0, 1, 1),
            Subject(9.5, 1, 1),
            Subject(10.0, 1, 0),
        )
    )
    spec = EstimandSpec(kind="ahsw", tau=8.0, backend="km", pooling="arm")
    with pytest.raises(ValueError, match=_whole(
        "ahsw undefined on the log scale: S(8) = 1 (after removing subject 4)"
    )):
        pseudo_values(ds, spec)
    # on the ratio scale the same configuration is fine
    ratio = pseudo_values(
        ds, EstimandSpec(kind="ahsw", tau=8.0, backend="km", pooling="arm", log_scale=False)
    )
    assert len(ratio.values) == ds.n


@pytest.mark.parametrize("log_scale", [True, False])
def test_ahsw_refuses_a_zero_integral(log_scale):
    spec = EstimandSpec(kind="ahsw", tau=2.0, log_scale=log_scale)
    with pytest.raises(ValueError, match="ahsw undefined: RMST\\(2\\) = 0"):
        next(_functional(lambda h: [0.5], lambda h: [0.0], spec))


def test_standardize_pseudo_orientation(toy):
    ps = pseudo_values(toy, RMST18)
    scaled = standardize_pseudo(ps)
    best = max(range(toy.n), key=lambda k: ps.values[k])
    worst = min(range(toy.n), key=lambda k: ps.values[k])
    assert scaled[best] == pytest.approx(-1.0, abs=1e-12)
    assert scaled[worst] == pytest.approx(1.0, abs=1e-12)


def test_standardize_ahsw_keeps_score_orientation(toy):
    # for ahsw a small value is the good outcome, so the early event must
    # still land at +1 like a log-rank score
    ps = pseudo_values(toy, EstimandSpec(kind="ahsw", tau=18.0, pooling="pooled"))
    early_event = min(
        (k for k, s in enumerate(toy.subjects) if s.event), key=lambda k: toy.subjects[k].time
    )
    assert standardize_pseudo(ps)[early_event] == pytest.approx(1.0, abs=1e-12)
    assert ps.values[early_event] == max(ps.values)


def test_standardize_pseudo_hits_both_ends_exactly():
    for seed in range(50):
        ds, tau = pseudo_friendly_dataset(seed)
        for kind in ("rmst", "ahsw"):
            for backend in ("km", "exponential"):
                spec = EstimandSpec(kind, tau=tau, backend=backend)
                scaled = standardize_pseudo(pseudo_values(ds, spec))
                assert (min(scaled), max(scaled)) == (-1.0, 1.0)
                assert all(-1.0 <= b <= 1.0 for b in scaled)


def test_standardize_pseudo_orientations_mirror_exactly(toy):
    ps = pseudo_values(toy, RMST18)
    ahsw = EstimandSpec(kind="ahsw", tau=18.0)
    assert (RMST18.benefit, ahsw.benefit) == ("upper", "lower")
    upper = standardize_pseudo(ps)
    lower = standardize_pseudo(replace(ps, spec=ahsw))
    assert upper == tuple(-b for b in lower)


def test_standardize_pseudo_degenerate():
    ds = TrialDataset(tuple(Subject(4.0, arm, 1) for arm in (0, 1) for _ in range(2)))
    ps = pseudo_values(ds, EstimandSpec(kind="rmst", tau=4.0, pooling="arm"))
    assert len(set(ps.values)) == 1
    with pytest.raises(ValueError, match="degenerate pseudo-value range"):
        standardize_pseudo(ps)


# Arm 0 of both trials is fine; arm 1 holds the same three subjects in two
# orders.  Without the unique largest time, 20, follow-up ends at 7.5 < 8;
# without the only event before 8, at 3, S(8) = 1.  The lower index is named.
AHSW_ARM0 = ((1, 0, 1), (2, 0, 1), (9, 0, 0), (9.5, 0, 0))
LATE_FIRST = AHSW_ARM0 + ((20, 1, 1), (3, 1, 1), (7.5, 1, 0))
EARLY_FIRST = AHSW_ARM0 + ((3, 1, 1), (20, 1, 1), (7.5, 1, 0))


@pytest.mark.parametrize("rows, spec, text", [
    # two events at 5e-324: without subject 2, arm 0's person-time is 1e-323
    # and its rate 2 / 1e-323 overflows
    (
        ((5e-324, 0, 1), (5e-324, 0, 1), (1.0, 0, 0), (2, 1, 1), (3, 1, 0), (4, 1, 1)),
        EstimandSpec(kind="rmst", tau=0.5, backend="exponential"),
        "rates must be finite and nonnegative (after removing subject 2)",
    ),
    (
        LATE_FIRST,
        EstimandSpec(kind="ahsw", tau=8.0),
        "horizon 8 beyond follow-up 7.5 (after removing subject 4)",
    ),
    (
        EARLY_FIRST,
        EstimandSpec(kind="ahsw", tau=8.0),
        "ahsw undefined on the log scale: S(8) = 1 (after removing subject 4)",
    ),
], ids=["parametric-overflow", "follow-up-first", "log-of-one-first"])
def test_leave_one_out_refusal_names_the_first_subject(rows, spec, text):
    with pytest.raises(ValueError, match=_whole(text)):
        pseudo_values(_dataset(rows), spec)


# Every estimand on each backend and pooling, as pseudo-values and the
# leave-one-out estimates behind them, on the n = 300 simulated trial.
DIGEST_ESTIMANDS = (
    {"kind": "rmst", "tau": 18.0},
    {"kind": "milestone", "kappa": 18.0},
    {"kind": "wmst", "tau1": 6.0, "tau2": 18.0},
    {"kind": "ahsw", "tau": 18.0},
    {"kind": "ahsw", "tau": 18.0, "log_scale": False},
)


def test_pseudo_value_bits_on_simulated_trial(tmp_path):
    ds = parse_dataset(simulated_trial_csv(tmp_path).read_text(encoding="utf-8"))
    lines = []
    for backend in ("km", "exponential", "piecewise"):
        for pooling in ("arm", "pooled"):
            for params in DIGEST_ESTIMANDS:
                spec = EstimandSpec(
                    backend=backend, pooling=pooling, breakpoints=(2, 4, 6, 8), **params
                )
                ps = pseudo_values(ds, spec)
                lines.append(spec.describe())
                lines += map(float.hex, ps.values + ps.loo)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "60e99c814c515ec4aae974a5dcaba5b2bca4ccec4240c16b8870d77538e734fa"


# An exponential fit integrates any horizon; at 1e308 subject 0's rmst overflows.
ONE_EARLY_EVENT = TrialDataset(tuple(
    Subject(t, arm, e)
    for t, arm, e in ((1, 0, 1), (2, 0, 0), (3, 0, 0), (1.5, 1, 1), (2.5, 1, 1), (3.5, 1, 0))
))


def exp_rmst(tau):
    return EstimandSpec(kind="rmst", tau=tau, backend="exponential")


def test_non_finite_pseudo_value_refused():
    with pytest.raises(ValueError, match=_whole("pseudo-value of subject 0 is not finite")):
        pseudo_values(ONE_EARLY_EVENT, exp_rmst(1e308))


def test_non_finite_scaled_pseudo_value_refused():
    ps = pseudo_values(ONE_EARLY_EVENT, exp_rmst(3.0))
    huge = replace(ps, values=(-1.5e308, 1.5e308) + ps.values[2:])  # hi - lo overflows
    with pytest.raises(ValueError, match="scaled pseudo-value of subject 0 is not finite"):
        standardize_pseudo(huge)


def test_pseudo_test_toy(toy):
    res = pseudo_test(pseudo_values(toy, RMST18))
    assert res.statistic == pytest.approx(3.14, abs=0.01)
    assert res.p_one_sided < 0.5  # larger restricted mean on arm 1 favors arm 1


def test_spec_test_is_the_pseudo_value_test(toy):
    for spec in (RMST18, EstimandSpec("ahsw", tau=18.0, backend="exponential", log_scale=False)):
        res = spec.test(toy)
        assert res == pseudo_test(pseudo_values(toy, spec))
        assert res.benefit == spec.benefit
    assert RMST18.label == "RMST(18)" and RMST18.describe() == "RMST(18) [KM, arm]"
    assert EstimandSpec("wmst", tau1=0, tau2=6).label == "WMST(0,6)"


def test_pseudo_test_mirrored_arms_zero():
    base = [(2.0, 1), (4.0, 1), (6.0, 0), (8.0, 1)]
    ds = TrialDataset(tuple(Subject(t, arm, e) for t, e in base for arm in (0, 1)))
    res = pseudo_test(pseudo_values(ds, EstimandSpec(kind="rmst", tau=6.0, pooling="arm")))
    assert res.statistic == pytest.approx(0.0, abs=1e-12)


def test_pseudo_test_ahsw_orientation():
    ds, tau = pseudo_friendly_dataset(3)
    rmst_res = pseudo_test(pseudo_values(ds, EstimandSpec(kind="rmst", tau=tau, pooling="arm")))
    ahsw_res = pseudo_test(pseudo_values(ds, EstimandSpec(kind="ahsw", tau=tau, pooling="arm")))
    # longer survival means larger rmst but smaller ahsw; both p's must agree
    # on which arm looks better
    assert (rmst_res.statistic > 0) == (ahsw_res.statistic < 0)
    assert (rmst_res.p_one_sided < 0.5) == (ahsw_res.p_one_sided < 0.5)


def test_scaled_statistic_is_negative_affine_image(toy):
    ps = pseudo_values(toy, RMST18)
    scaled = standardize_pseudo(ps)
    raw_diff = mean_score_diff(ps.values, toy.arms)
    scaled_diff = mean_score_diff(scaled, toy.arms)
    span = max(ps.values) - min(ps.values)
    assert scaled_diff == pytest.approx(-(2.0 / span) * raw_diff, abs=1e-12)
    # orientation reversal swaps the permutation tails exactly
    assert exact_perm_p(scaled, toy.arms, "lower") == exact_perm_p(
        ps.values, toy.arms, "upper"
    )


def _dataset(rows):
    return TrialDataset(tuple(Subject(t, arm, event) for t, arm, event in rows))


def _estimands(tau, kappa, tau1, log_scale=True):
    return [
        ("rmst", {"tau": tau}),
        ("milestone", {"kappa": kappa}),
        ("wmst", {"tau1": tau1, "tau2": tau}),
        ("ahsw", {"tau": tau, "log_scale": log_scale}),
    ]


# Tied inputs, where a leave-one-out downdate differs from a plain refit in
# its bookkeeping.  (time, arm, event) rows; cuts are (2, 4, 6, 8).
TIED_INPUTS = [
    # d = 3 at t = 2 pooled (2 on arm 0); censorings at the event times 3 and
    # 4; arm 0 ends in a tie at 9, arm 1 in a unique censoring at 11, so
    # removing it leaves arm-1 follow-up 7.5 = tau
    (
        _dataset([
            (1.0, 0, 1), (2.0, 0, 1), (2.0, 0, 1), (3.0, 0, 0), (3.0, 0, 1),
            (5.0, 0, 1), (6.0, 0, 0), (7.0, 0, 1), (9.0, 0, 1), (9.0, 0, 0),
            (1.5, 1, 1), (2.0, 1, 1), (2.5, 1, 0), (4.0, 1, 1), (4.0, 1, 0),
            (5.5, 1, 1), (7.5, 1, 1), (11.0, 1, 0),
        ]),
        _estimands(tau=7.5, kappa=4.0, tau1=2.0),
    ),
    # the event at 10 is the unique maximum, and the only subject in the
    # intervals (6, 8] and (8, inf), per arm and pooled: without it both
    # get person-time 0 and rate 0
    (
        _dataset([
            (0.5, 0, 1), (1.0, 0, 1), (1.0, 0, 1), (3.0, 0, 1), (3.0, 0, 0),
            (5.0, 0, 1), (6.0, 0, 0), (6.0, 0, 0),
            (1.0, 1, 1), (2.5, 1, 1), (2.5, 1, 0), (4.5, 1, 1), (6.0, 1, 1), (10.0, 1, 1),
        ]),
        _estimands(tau=6.0, kappa=2.5, tau1=1.0),
    ),
    # two subjects: without the later one the curve drops to S = 0 at 1;
    # without the earlier one S(1) = 1, so log-AHSW is undefined there
    (
        _dataset([(1.0, 0, 1), (2.0, 0, 1)]),
        _estimands(tau=1.0, kappa=1.0, tau1=0.5, log_scale=False),
    ),
]


@pytest.mark.parametrize("backend", ["km", "exponential", "piecewise"])
@pytest.mark.parametrize("pooling", ["arm", "pooled"])
def test_jackknife_matches_naive_oracle(backend, pooling):
    inputs = list(TIED_INPUTS)
    for seed in (11, 23):
        ds, tau = pseudo_friendly_dataset(seed)
        inputs.append((ds, _estimands(tau=tau, kappa=0.7 * tau, tau1=0.3 * tau)))
    for ds, estimands in inputs:
        for kind, params in estimands:
            spec = EstimandSpec(
                kind=kind, backend=backend, breakpoints=(2, 4, 6, 8), pooling=pooling, **params
            )
            got = pseudo_values(ds, spec).values
            want = oracles.jackknife_pseudo(ds, kind, backend, pooling, cuts=(2, 4, 6, 8), **params)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-9)


GRID = [0.5 * k for k in range(1, 13)]  # few distinct times, so ties are common
HORIZONS = [0.25 * k for k in range(1, 24)]  # on the grid and between its times


@st.composite
def _tied_trial_and_estimand(draw):
    """A tie-heavy trial of 2 to 14 subjects, and an estimand with horizons on or between its times."""
    rows = draw(st.lists(
        st.tuples(st.sampled_from(GRID), st.integers(0, 1), st.integers(0, 1)),
        min_size=2, max_size=14,
    ))
    horizon = st.sampled_from(HORIZONS)
    kind = draw(st.sampled_from(["rmst", "milestone", "wmst", "ahsw"]))
    if kind == "rmst":
        params = {"tau": draw(horizon)}
    elif kind == "milestone":
        params = {"kappa": draw(horizon)}
    elif kind == "wmst":
        tau1, tau2 = sorted(draw(st.lists(horizon | st.just(0.0), min_size=2, max_size=2,
                                          unique=True)))
        params = {"tau1": tau1, "tau2": tau2}
    else:
        params = {"tau": draw(horizon), "log_scale": draw(st.booleans())}
    cuts = tuple(sorted(draw(st.sets(st.sampled_from([1.0, 2.5, 4.0]), max_size=2))))
    return _dataset(rows), kind, params, cuts


def _oracle_values(ds, kind, backend, pooling, cuts, params):
    """The naive refit's pseudo-values, or None where it cannot compute them."""
    try:
        values = oracles.jackknife_pseudo(ds, kind, backend, pooling, cuts=cuts, **params)
    except (ArithmeticError, ValueError):  # 0/0 rates or ratios, log of 0
        return None
    return values if all(map(math.isfinite, values)) else None


@pytest.mark.parametrize("backend", ["km", "exponential", "piecewise"])
@pytest.mark.parametrize("pooling", ["arm", "pooled"])
@given(case=_tied_trial_and_estimand())
@settings(max_examples=120, deadline=None)
def test_downdate_matches_refit_oracle_on_random_tied_trials(backend, pooling, case):
    """Equal to the naive refit where both compute; refused wherever the refit cannot compute."""
    ds, kind, params, cuts = case
    spec = EstimandSpec(kind=kind, backend=backend, breakpoints=cuts, pooling=pooling, **params)
    want = _oracle_values(ds, kind, backend, pooling, cuts, params)
    try:
        got = pseudo_values(ds, spec).values
    except ValueError:
        return  # the library refuses more: one-subject groups, horizons past follow-up, ...
    assert want is not None, "the library computed values the refit oracle cannot"
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9), (g, w)


def _km_pseudo_bits(rows, kind, horizon, pooling):
    """The Kaplan-Meier pseudo-values of ``rows`` as float.hex() texts, or None if refused."""
    spec = EstimandSpec(kind, pooling=pooling, **{"tau" if kind == "rmst" else "kappa": horizon})
    try:
        return [v.hex() for v in pseudo_values(_dataset(rows), spec).values]
    except ValueError:
        return None


@given(
    rows=st.lists(st.tuples(st.sampled_from((1.0, 2.0, 2.5, 4.0, 7.0)), st.integers(0, 1),
                            st.integers(0, 1)), min_size=2, max_size=14),
    kind=st.sampled_from(("rmst", "milestone")),
    pooling=st.sampled_from(("arm", "pooled")),
    horizon=st.sampled_from((0.5, 1.0, 1.5, 2.0, 2.25, 2.5, 3.0, 4.0, 5.0, 6.0)),
    shuffle_seed=st.integers(0, 2**32 - 1),
)
# refused: arm 1's latest subject is its only one at 4, and without it follow-up ends at
# 2.5 < 3; accepted: the pooled milestone at 2.25, with events tied across arms at 1 and 2
@example(rows=[(1.0, 0, 1), (2.0, 0, 1), (7.0, 0, 0), (1.0, 1, 1), (2.5, 1, 1), (4.0, 1, 0),
               (2.0, 1, 1)], kind="rmst", pooling="arm", horizon=3.0, shuffle_seed=1)
@example(rows=[(1.0, 0, 1), (2.0, 0, 1), (7.0, 0, 0), (1.0, 1, 1), (2.5, 1, 1), (4.0, 1, 0),
               (2.0, 1, 1)], kind="milestone", pooling="pooled", horizon=2.25, shuffle_seed=2)
@settings(max_examples=300, deadline=None)
def test_km_pseudo_values_are_metamorphic_in_row_order_arm_labels_and_time_scale(
    rows, kind, pooling, horizon, shuffle_seed
):
    """Per arm and pooled: shuffled rows give each subject the same bits, swapped arms give
    every value the same bits, and doubled times and horizon double each RMST value exactly
    and keep each milestone value; a refused trial stays refused under each change."""
    base = _km_pseudo_bits(rows, kind, horizon, pooling)
    order = random.Random(shuffle_seed).sample(range(len(rows)), len(rows))
    shuffled = _km_pseudo_bits([rows[k] for k in order], kind, horizon, pooling)
    swapped = _km_pseudo_bits([(t, 1 - a, e) for t, a, e in rows], kind, horizon, pooling)
    doubled = _km_pseudo_bits([(2.0 * t, a, e) for t, a, e in rows], kind, 2.0 * horizon, pooling)
    if base is None:
        assert (shuffled, swapped, doubled) == (None, None, None)
        return
    assert shuffled == [base[k] for k in order]
    assert swapped == base
    scale = 2.0 if kind == "rmst" else 1.0
    assert doubled == [(scale * float.fromhex(v)).hex() for v in base]
