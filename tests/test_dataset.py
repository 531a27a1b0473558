import gc
import math
import weakref
from bisect import bisect_right

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from survscore import (
    DataFormatError,
    EstimandSpec,
    PlotPanel,
    Subject,
    TrialDataset,
    WeightSpec,
    build_risk_table,
    exact_perm_p,
    inject_censoring,
    km_fit,
    mc_perm_p,
    mean_score_diff,
    milestone_test,
    parse_dataset,
    perm_moments,
    rmst_test,
    split_by_arm,
)
from survscore.rng import SplitMix64
from tests import oracles
from tests.conftest import TOY_CSV, tied_rows_st

rows_st = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=50).map(lambda x: round(x, 1)),
        st.integers(0, 1),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=25,
)


def _from_rows(rows):
    return TrialDataset(tuple(Subject(*r) for r in rows))


subjects_st = rows_st.map(_from_rows)


def test_parse_toy():
    ds = parse_dataset(TOY_CSV)
    assert ds.n == 12
    assert ds.n_arm1 == 6
    assert ds.subjects[0] == Subject(34.64, 0, 0)
    assert ds.subjects[1] == Subject(4.38, 0, 1)


def test_parse_single_row():
    ds = parse_dataset("time,arm,event\n5.0,1,1\n")
    assert (ds.n, ds.n_arm1) == (1, 1)


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,0,1", "time must be positive"),
        ("-1,0,1", "time must be positive"),
        ("abc,0,1", "non-numeric time"),
        ("inf,0,1", "non-finite time"),
        ("5.0,2,1", "arm must be 0 or 1"),
        ("5.0,treated,1", "arm must be 0 or 1"),
        ("5.0,0,2", "event must be 0 or 1"),
        ("5.0,0", "expected 3 fields"),
        ("5.0,0,1,9", "expected 3 fields"),
        # the csv module refuses a field over 131,072 characters
        pytest.param("1" * 131073 + ",0,1", "field larger than field limit", id="huge-field"),
    ],
)
def test_parse_bad_rows(row, message):
    with pytest.raises(DataFormatError, match=message) as exc:
        parse_dataset(f"time,arm,event\n1.0,0,1\n{row}\n")
    assert "line 3" in str(exc.value)


def test_parse_bad_header_and_empty():
    with pytest.raises(DataFormatError, match="header"):
        parse_dataset("t,a,e\n1,0,1\n")
    with pytest.raises(DataFormatError, match="empty input"):
        parse_dataset("")
    with pytest.raises(DataFormatError, match="no data rows"):
        parse_dataset("time,arm,event\n")


def test_subject_validation():
    with pytest.raises(ValueError):
        Subject(0.0, 0, 1)
    with pytest.raises(ValueError):
        Subject(1.0, 2, 1)
    with pytest.raises(ValueError):
        Subject(1.0, 0, -1)


def test_dataset_is_immutable():
    ds = parse_dataset(TOY_CSV)
    for name in ("times", "arms", "events", "subjects", "n", "other"):
        with pytest.raises(AttributeError):
            setattr(ds, name, ())
    with pytest.raises(AttributeError):
        del ds.times
    assert ds == parse_dataset(TOY_CSV)
    assert ds.subjects is ds.subjects  # built once, on first use


def test_parse_split_and_censor_build_no_subject(monkeypatch):
    def refuse(self):
        raise AssertionError("a Subject was built")

    monkeypatch.setattr(Subject, "__post_init__", refuse)
    ds = parse_dataset(TOY_CSV)
    assert (ds.n, ds.n_arm1, ds.n_events) == (12, 6, 7)
    assert ds.times[:2] == (34.64, 4.38)
    arm0, arm1 = split_by_arm(ds)
    assert (arm0.n, arm1.n) == (6, 6)
    assert inject_censoring(ds, 26.0, 7).n == 12
    assert ds.without(0).times == ds.times[1:]


def _csv(rows):
    return "time,arm,event\n" + "".join(f"{t!r},{a},{e}\n" for t, a, e in rows)


def _censored_records(ds, c_max, seed):
    """inject_censoring's documented rule, applied one Subject at a time."""
    rng = SplitMix64(seed)
    out = []
    for s in ds.subjects:
        u = c_max * rng.next_uniform()
        out.append(s if s.time <= u else Subject(u, s.arm, 0))
    return TrialDataset(tuple(out))


@given(rows_st, st.integers(0, 2**62), st.floats(min_value=0.5, max_value=60))
@settings(max_examples=60, deadline=None)
def test_parsed_columns_equal_records(rows, seed, c_max):
    parsed, built = parse_dataset(_csv(rows)), _from_rows(rows)
    assert parsed == built
    assert hash(parsed) == hash(built)
    for ds in (parsed, built):
        assert ds.times == tuple(t for t, _, _ in rows)
        assert ds.arms == tuple(a for _, a, _ in rows)
        assert ds.events == tuple(e for _, _, e in rows)
        assert all(type(t) is float for t in ds.times)
        assert all(type(x) is int for x in ds.arms + ds.events)  # never bool: bools print as True
        assert ds.subjects == tuple(Subject(*r) for r in rows)
    by_records = tuple(TrialDataset(s for s in built.subjects if s.arm == arm) for arm in (0, 1))
    assert split_by_arm(parsed) == split_by_arm(built) == by_records
    censored = inject_censoring(parsed, c_max, seed)
    assert censored == inject_censoring(built, c_max, seed) == _censored_records(built, c_max, seed)
    assert all(type(x) is int for x in censored.events)
    k = seed % len(rows)
    assert parsed.without(k) == _from_rows(rows[:k] + rows[k + 1 :])


def _columns(rt):
    return rt.times, rt.at_risk, rt.events, rt.at_risk1, rt.events1


def _on_arm(both, arm1, arm):
    """One arm's counts from a both-arm column and its arm-1 column."""
    return arm1 if arm == 1 else tuple(b - a for b, a in zip(both, arm1))


def test_risk_table_toy():
    rt = build_risk_table(parse_dataset(TOY_CSV))
    assert len(rt.times) == 7
    assert all(len(column) == 7 for column in _columns(rt))
    assert (rt.times[0], rt.at_risk[0], rt.events[0]) == (4.38, 12, 1)
    assert (rt.times[-1], rt.at_risk[-1], rt.events[-1]) == (24.98, 6, 1)
    # all 12 at risk at the first event time; 7 events, so 5 are censored
    assert sum(rt.events) == 7


def test_risk_table_tied_events_collapse():
    ds = TrialDataset((Subject(1.0, 0, 1), Subject(1.0, 1, 1)))
    rt = build_risk_table(ds)
    assert len(rt.times) == 1
    assert rt.at_risk[0] == 2
    assert rt.events[0] == 2


def test_risk_table_censored_at_event_time_stays_at_risk():
    ds = TrialDataset((Subject(2.0, 0, 1), Subject(2.0, 1, 0), Subject(3.0, 1, 1)))
    rt = build_risk_table(ds)
    # the censored subject counts at t=2: one at risk on arm 0, two on arm 1
    assert (rt.at_risk1[0], rt.at_risk[0] - rt.at_risk1[0]) == (2, 1)
    # and has left by t=3: none at risk on arm 0, one on arm 1
    assert (rt.at_risk1[1], rt.at_risk[1] - rt.at_risk1[1]) == (1, 0)


def test_risk_table_no_events():
    with pytest.raises(ValueError, match="no event times"):
        build_risk_table(TrialDataset((Subject(1.0, 0, 0),)))


def test_split_by_arm_toy():
    arm0, arm1 = split_by_arm(parse_dataset(TOY_CSV))
    assert (arm0.n, arm1.n) == (6, 6)
    assert all(s.arm == 0 for s in arm0.subjects)
    assert all(s.arm == 1 for s in arm1.subjects)


def test_split_single_arm_gives_empty_subset():
    ds = TrialDataset((Subject(1.0, 0, 1), Subject(2.0, 0, 0)))
    arm0, arm1 = split_by_arm(ds)
    assert arm0.n == 2
    assert arm1.n == 0


def test_two_sample_functions_share_one_arm_rule():
    # an arm of 2 was dropped by mean_score_diff (0.6, against 0.5 as arm 0) and counted
    # as arm 0 by the permutation tests
    values = [0.1, 0.5, 0.3, 0.9]
    calls = {
        "mean_score_diff": lambda arms: mean_score_diff(values, arms),
        "exact_perm_p": lambda arms: exact_perm_p(values, arms),
        "mc_perm_p": lambda arms: mc_perm_p(values, arms, 10, 0),
        "PlotPanel": lambda arms: PlotPanel("x", (1.0, 2.0, 3.0, 4.0), tuple(values),
                                            tuple(arms), (1, 1, 1, 1)),
    }
    for call in calls.values():
        for arms, text in (([0, 1, 2, 1], "arm must be 0 or 1, got 2"),
                           ([0, 0, 0, 0], "arm 1 has no subjects"),
                           ([1, 1, 1, 1], "arm 0 has no subjects")):
            with pytest.raises(ValueError, match=f"^{text}$"):
                call(arms)
        call([1, 0, 0, 1])  # both arms, labels 0 and 1: no refusal
    for name in ("mean_score_diff", "exact_perm_p", "mc_perm_p"):
        with pytest.raises(ValueError, match="^values and arms must have equal length$"):
            calls[name]([0, 1, 2])  # the length is checked before the labels
    for args, arm in (((values, 0), 1), (([1.0], 1), 0), (([], 0), 0), ((values, 4), 0)):
        with pytest.raises(ValueError, match=f"^arm {arm} has no subjects$"):
            perm_moments(*args)


def test_unhashable_arm_label_gets_the_shared_refusal():
    # set(arms) raised "TypeError: unhashable type: 'list'"
    values = [1.0, 2.0, 3.0]
    for call in (mean_score_diff, exact_perm_p, lambda v, a: mc_perm_p(v, a, 10, 0)):
        with pytest.raises(ValueError, match=r"^arm must be 0 or 1, got \[1\]$"):
            call(values, [0, [1], 1])


@pytest.mark.parametrize("n1", [-1, 3, 5])
def test_arm_one_count_outside_the_subjects_is_refused_as_such(n1):
    # a count above n read "arm 0 has no subjects", as if it were n
    with pytest.raises(ValueError, match=f"^arm-1 count {n1} out of range for 2 subjects$"):
        perm_moments([1.0, 2.0], n1)


@given(subjects_st)
@settings(max_examples=60, deadline=None)
def test_split_is_a_partition(ds):
    arm0, arm1 = split_by_arm(ds)
    assert sorted(arm0.subjects + arm1.subjects, key=lambda s: (s.time, s.arm, s.event)) == sorted(
        ds.subjects, key=lambda s: (s.time, s.arm, s.event)
    )


def _censored_in(ds, arm, lo, hi):
    """Censored subjects on ``arm`` with lo <= time < hi."""
    return sum(1 for s in ds.subjects if s.arm == arm and not s.event and lo <= s.time < hi)


@given(subjects_st)
@settings(max_examples=60, deadline=None)
def test_conservation_of_subjects(ds):
    if ds.n_events == 0:
        with pytest.raises(ValueError):
            build_risk_table(ds)
        return
    rt = build_risk_table(ds)
    bounds = [0.0, *rt.times, math.inf]
    for arm in (0, 1):
        accounted = sum(_on_arm(rt.events, rt.events1, arm))
        accounted += sum(_censored_in(ds, arm, lo, hi) for lo, hi in zip(bounds, bounds[1:]))
        assert accounted == sum(1 for s in ds.subjects if s.arm == arm)


@given(subjects_st)
@settings(max_examples=60, deadline=None)
def test_at_risk_counts_match_definition(ds):
    if ds.n_events == 0:
        return
    rt = build_risk_table(ds)
    for arm in (0, 1):
        at_risk = _on_arm(rt.at_risk, rt.at_risk1, arm)
        events = _on_arm(rt.events, rt.events1, arm)
        for t, n in zip(rt.times, at_risk):
            assert n == sum(1 for s in ds.subjects if s.arm == arm and s.time >= t)
        # at-risk recursion between consecutive event times
        for j in range(len(rt.times) - 1):
            assert at_risk[j + 1] == (
                at_risk[j] - events[j] - _censored_in(ds, arm, rt.times[j], rt.times[j + 1])
            )


@given(subjects_st, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_risk_table_invariant_under_row_permutation(ds, rnd):
    if ds.n_events == 0:
        return
    shuffled = list(ds.subjects)
    rnd.shuffle(shuffled)
    a = build_risk_table(ds)
    b = build_risk_table(TrialDataset(tuple(shuffled)))
    assert _columns(a) == _columns(b)


def test_parse_memo_keeps_one_dataset_per_text():
    parse_dataset.cache_clear()
    ds = parse_dataset(TOY_CSV)
    assert parse_dataset(TOY_CSV[:-1] + "\n") is ds  # an equal text, another str object
    other = parse_dataset(TOY_CSV + "\n")  # a trailing blank line: an equal dataset
    assert other == ds and other is not ds
    bad = "time,arm,event\n5.0,0,2\n"
    messages = []
    for _ in range(2):  # an error is not remembered: raised, with one message, every time
        with pytest.raises(DataFormatError) as exc:
            parse_dataset(bad)
        messages.append(str(exc.value))
    assert messages == ["line 2: event must be 0 or 1, got '2'"] * 2
    assert parse_dataset(TOY_CSV + "\n") is other


def test_dataset_tabulates_and_splits_once(toy):
    first, second = build_risk_table(toy), build_risk_table(toy)
    assert first == second and first.source is toy
    columns = zip(_columns(first) + (first.intervals,), _columns(second) + (second.intervals,))
    assert all(a is b for a, b in columns)
    assert split_by_arm(toy) is split_by_arm(toy)


def test_no_reference_cycle_through_a_dataset():
    """Nothing a dataset keeps points back at it, so it is freed without the cycle collector."""
    gc.disable()
    try:
        parse_dataset.cache_clear()
        ds = parse_dataset(TOY_CSV)
        WeightSpec.logrank().test(ds)
        km_fit(ds)
        rmst_test(ds, 18.0)
        milestone_test(ds, 18.0)
        EstimandSpec("rmst", tau=18.0).test(ds)
        split_by_arm(ds)
        ref = weakref.ref(ds)
        del ds
        assert ref() is not None  # the parse memo holds it
        parse_dataset.cache_clear()
        assert ref() is None
    finally:
        gc.enable()


@given(tied_rows_st)
@example([(2.0, 0, 1), (2.0, 1, 0), (2.0, 1, 1), (1.0, 0, 0), (4.0, 1, 0)])
@settings(max_examples=80, deadline=None)
def test_intervals_match_definition(rows):
    ds = _from_rows(rows)
    assume(ds.n_events)
    rt = build_risk_table(ds)
    expected = oracles.event_times_through(zip(ds.times, ds.events))
    assert list(rt.intervals) == expected
    assert list(rt.intervals) == [bisect_right(rt.times, t) for t in ds.times]
    for sub in split_by_arm(ds):  # each arm table indexes its own source
        if sub.n_events:
            arm_rt = build_risk_table(sub)
            assert arm_rt.source is sub and len(arm_rt.intervals) == sub.n
            assert list(arm_rt.intervals) == oracles.event_times_through(
                zip(sub.times, sub.events)
            )
