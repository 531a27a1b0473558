import importlib.util
from pathlib import Path

import pytest
from hypothesis import strategies as st

from survscore import Subject, TrialDataset, parse_dataset, split_by_arm
from survscore.rng import SplitMix64

# Twelve-subject worked example used as the golden fixture throughout.
TOY_CSV = """\
time,arm,event
34.64,0,0
4.38,0,1
28.69,0,0
6.69,0,1
24.98,0,1
6.32,0,1
13.38,1,1
33.21,1,0
6.12,1,1
16.73,1,1
27.68,1,0
29.46,1,0
"""


# few distinct times, so times tie and subjects are censored exactly at an event time
tied_rows_st = st.lists(
    st.tuples(st.sampled_from((1.0, 2.0, 2.5, 4.0)), st.integers(0, 1), st.integers(0, 1)),
    min_size=1,
    max_size=12,
)


def datasets_with_events(rows):
    """The dataset of (time, arm, event) ``rows`` and its two arm subsets, those with an event."""
    ds = TrialDataset(tuple(Subject(*row) for row in rows))
    return [d for d in (ds, *split_by_arm(ds)) if d.n_events]


@pytest.fixture(scope="session")
def toy() -> TrialDataset:
    return parse_dataset(TOY_CSV)


@pytest.fixture
def toy_csv_path(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV, encoding="utf-8")
    return path


def random_dataset(seed, max_n=50, grid=4, p_event=0.7):
    """Seeded two-arm dataset with gridded times (so ties occur)."""
    rng = SplitMix64(seed)
    n = 4 + rng.next_below(max_n - 3)
    subjects = []
    for _ in range(n):
        time = (1 + rng.next_below(grid * 20)) / grid
        arm = rng.next_below(2)
        event = 1 if rng.next_uniform() < p_event else 0
        subjects.append(Subject(time, arm, event))
    # guarantee both arms and at least one event
    subjects[0] = Subject(subjects[0].time, 0, 1)
    subjects[1] = Subject(subjects[1].time, 1, subjects[1].event)
    return TrialDataset(tuple(subjects))


def random_untied_dataset(seed, max_n=40, p_event=0.7):
    """Seeded two-arm dataset with continuous times (no ties)."""
    rng = SplitMix64(seed)
    n = 4 + rng.next_below(max_n - 3)
    subjects = []
    for _ in range(n):
        time = 0.1 + rng.next_uniform() * 30.0
        subjects.append(Subject(time, rng.next_below(2), 1 if rng.next_uniform() < p_event else 0))
    subjects[0] = Subject(subjects[0].time, 0, 1)
    subjects[1] = Subject(subjects[1].time, 1, subjects[1].event)
    return TrialDataset(tuple(subjects))


def pseudo_friendly_dataset(seed, max_per_arm=15):
    """Dataset plus horizons safe for every leave-one-out fit.

    Each arm gets >= 4 subjects and >= 2 events at or below the returned
    tau, so KM refits stay defined and log-AHSW never sees S(tau) = 1,
    whichever single subject is removed and under either pooling.
    """
    rng = SplitMix64(seed)
    while True:
        subjects = []
        for arm in (0, 1):
            count = 4 + rng.next_below(max_per_arm - 3)
            for _ in range(count):
                time = 0.5 + rng.next_uniform() * 20.0
                event = 1 if rng.next_uniform() < 0.75 else 0
                subjects.append(Subject(time, arm, event))
        ds = TrialDataset(tuple(subjects))
        second_largest = []
        for arm in (0, 1):
            times = sorted(s.time for s in ds.subjects if s.arm == arm)
            second_largest.append(times[-2])
        tau = 0.8 * min(second_largest)
        events_below = [
            sum(1 for s in ds.subjects if s.arm == arm and s.event and s.time <= tau)
            for arm in (0, 1)
        ]
        if min(events_below) >= 2:
            return ds, tau


def load_script(name):
    """The module ``scripts/<name>.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def simulated_trial_csv(tmp_path):
    """``scripts/simulate_delayed_effect.py --n-per-arm 150 --seed 1``, written to tmp_path."""
    script = load_script("simulate_delayed_effect")
    out = tmp_path / "trial.csv"
    assert script.main(["--n-per-arm", "150", "--seed", "1", "--output", str(out)]) == 0
    return out
