"""Artificial independent censoring: overlay a uniform censoring time."""

import math

from .dataset import Subject, TrialDataset
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
    out = []
    for s in ds.subjects:
        u = c_max * rng.next_uniform()  # strictly inside (0, c_max)
        if s.time <= u:
            out.append(s)
        else:
            out.append(Subject(u, s.arm, 0))
    return TrialDataset(tuple(out))
