import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survscore import Subject, TrialDataset, inject_censoring

subjects_st = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=60).map(lambda x: round(x, 2)),
        st.integers(0, 1),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=30,
).map(lambda rows: TrialDataset(tuple(Subject(*r) for r in rows)))


def test_same_seed_same_output(toy):
    a = inject_censoring(toy, 26.0, 7)
    b = inject_censoring(toy, 26.0, 7)
    assert a == b
    c = inject_censoring(toy, 26.0, 8)
    assert c != a


@given(subjects_st, st.integers(0, 2**62), st.floats(min_value=0.5, max_value=100))
@settings(max_examples=80, deadline=None)
def test_dominance_properties(ds, seed, c_max):
    out = inject_censoring(ds, c_max, seed)
    assert out.n == ds.n
    for before, after in zip(ds.subjects, out.subjects):
        assert after.arm == before.arm
        assert after.time <= before.time
        assert after.event <= before.event
        if after.time < before.time:  # injected censoring
            assert after.event == 0
            assert 0.0 < after.time < c_max
        else:
            assert after == before


def test_huge_bound_rarely_changes_anything(toy):
    out = inject_censoring(toy, 1e9, 0)
    assert out == toy


def test_event_kept_when_time_equals_draw():
    # make the draw land above the event time: time <= u keeps the subject
    ds = TrialDataset((Subject(1e-9, 0, 1),))
    out = inject_censoring(ds, 26.0, 0)
    assert out.subjects[0].event == 1


def test_bad_bound():
    ds = TrialDataset((Subject(1.0, 0, 1),))
    for bound in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            inject_censoring(ds, bound, 0)


def test_draw_that_underflows_to_zero_is_refused():
    ds = TrialDataset((Subject(1.0, 0, 1),))
    # the smallest draw is c_max * 2**-53: a bound whose smallest draw rounds to 0.0 is
    # refused up front, at every seed, whether or not this seed's draws would underflow
    for bound in (5e-324, 2.0**-1022):
        for seed in (0, 3):
            with pytest.raises(ValueError, match=f"censoring bound {bound!r} is too small"):
                inject_censoring(ds, bound, seed)
    # one float above 2**-1022 the smallest draw rounds up to 5e-324: every draw is positive
    smallest = math.nextafter(2.0**-1022, 1.0)
    for seed in range(20):
        (time,) = inject_censoring(ds, smallest, seed).times
        assert 0.0 < time <= smallest
