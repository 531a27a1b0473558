"""Artificial independent censoring: overlay a uniform censoring time."""

import math

from .dataset import TrialDataset
from .rng import SplitMix64


def inject_censoring(ds: TrialDataset, c_max: float, seed: int) -> TrialDataset:
    """Censor each subject at an independent Uniform(0, c_max) draw.

    One draw per subject in dataset order (same generator as the
    permutation module).  A subject whose time equals the draw exactly
    keeps the event.  Output times never exceed input times; events can
    only flip 1 -> 0; arms are untouched.  ``c_max`` must be finite and
    positive.
    """
    if not (math.isfinite(c_max) and c_max > 0):
        raise ValueError("censoring bound must be finite and positive")
    rng = SplitMix64(seed)
    times, events = [], []
    for time, event in zip(ds.times, ds.events):
        u = c_max * rng.next_uniform()  # strictly inside (0, c_max), unless it underflows
        if time <= u:
            times.append(time)
            events.append(event)
        elif u > 0:
            times.append(u)
            events.append(0)
        else:
            raise ValueError(f"time must be positive, got {u!r}")
    return TrialDataset._from_columns(tuple(times), ds.arms, tuple(events))
