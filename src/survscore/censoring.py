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
    positive, and large enough that its smallest draw, c_max * 2**-53,
    does not round to 0.
    """
    if not (math.isfinite(c_max) and c_max > 0):
        raise ValueError("censoring bound must be finite and positive")
    if c_max * 2.0**-53 == 0.0:
        raise ValueError(f"censoring bound {c_max!r} is too small: a draw can round to 0")
    rng = SplitMix64(seed)
    times, events = [], []
    for time, event in zip(ds.times, ds.events):
        u = c_max * rng.next_uniform()  # positive: the draw is >= 2**-53, and rounding is monotone
        if time <= u:
            times.append(time)
            events.append(event)
        else:
            times.append(u)
            events.append(0)
    return TrialDataset._from_columns(tuple(times), ds.arms, tuple(events))
