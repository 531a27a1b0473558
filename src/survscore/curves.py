"""Survival-curve estimators and exact restricted-mean integration.

Two curve families: the Kaplan-Meier step function and constant/piecewise
constant-hazard fits.  All integrals use exact piecewise closed forms (no
quadrature), so repeated evaluation is reproducible to rounding error.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add

from .dataset import RiskTable, TrialDataset, build_risk_table


@dataclass(frozen=True)
class StepSurvival:
    """Right-continuous step survival curve: S(t) = 1 before the first jump.

    ``follow_up`` is the last observed time of the generating data; the
    curve is undefined beyond it for integration purposes.
    """

    jump_times: tuple[float, ...]
    values: tuple[float, ...]  # survival just after each jump
    follow_up: float

    def __post_init__(self):
        if len(self.jump_times) != len(self.values):
            raise ValueError("jump_times and values must have equal length")
        if any(b <= a for a, b in zip(self.jump_times, self.jump_times[1:])):
            raise ValueError("jump times must be strictly ascending")
        prev = 1.0
        for v in self.values:
            if not 0.0 <= v <= prev:
                raise ValueError("survival values must be nonincreasing within [0, 1]")
            prev = v
        if self.jump_times and self.follow_up < self.jump_times[-1]:
            raise ValueError("follow_up precedes the last jump")

    def at(self, t: float) -> float:
        """S(t), right-continuous."""
        idx = bisect_right(self.jump_times, t)
        return 1.0 if idx == 0 else self.values[idx - 1]

    def left(self, t: float) -> float:
        """S(t-), the left limit."""
        idx = bisect_left(self.jump_times, t)
        return 1.0 if idx == 0 else self.values[idx - 1]


@dataclass(frozen=True)
class ParametricSurvival:
    """Constant-hazard survival, optionally piecewise over breakpoints.

    S(t) = exp(-H(t)) with H piecewise linear; continuous, S(0) = 1, and
    defined for every t >= 0 (extrapolates by construction).
    """

    breakpoints: tuple[float, ...]  # strictly ascending, all > 0; may be empty
    rates: tuple[float, ...]  # one per interval, len(breakpoints) + 1

    def __post_init__(self):
        if len(self.rates) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one rate per interval")
        if any(c <= 0 for c in self.breakpoints):
            raise ValueError("breakpoints must be positive")
        if any(b <= a for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        if any(r < 0 or not math.isfinite(r) for r in self.rates):
            raise ValueError("rates must be finite and nonnegative")

    def cumulative_hazard(self, t: float) -> float:
        return piecewise_hazard(self.breakpoints, self.rates, t)

    def at(self, t: float) -> float:
        return math.exp(-self.cumulative_hazard(t))


SurvivalCurve = StepSurvival | ParametricSurvival


def piecewise_hazard(breakpoints, rates, t: float) -> float:
    """H(t) of hazard ``rates`` between ``breakpoints``, which are taken as valid."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    total = 0.0
    start = 0.0
    for cut, rate in zip(breakpoints, rates):
        if t <= cut:
            return total + rate * (t - start)
        total += rate * (cut - start)
        start = cut
    return total + rates[-1] * (t - start)


def km_fit(ds: TrialDataset) -> StepSurvival:
    """Product-limit estimate over the dataset's risk table."""
    return km_from_table(build_risk_table(ds))  # raises when there are no events


def km_from_table(rt: RiskTable) -> StepSurvival:
    """Product-limit estimate over a risk table the caller already holds."""
    values = []
    surv = 1.0
    for d, n in zip(rt.events, rt.at_risk):
        surv *= 1.0 - d / n
        values.append(surv)
    return StepSurvival(rt.times, tuple(values), rt.source.follow_up)


def rmst(curve: SurvivalCurve, tau: float) -> float:
    """Exact integral of the survival curve over [0, tau].

    Step curves refuse tau beyond the generating data's follow-up rather
    than extrapolating; parametric curves integrate any horizon.
    """
    if tau < 0:
        raise ValueError("restriction time must be nonnegative")
    if tau == 0:
        return 0.0
    if isinstance(curve, StepSurvival):
        if tau > curve.follow_up:
            raise ValueError(
                f"restriction time beyond data: tau={tau:g} exceeds follow-up "
                f"{curve.follow_up:g}"
            )
        total = 0.0
        prev_t, surv = 0.0, 1.0
        for t, v in zip(curve.jump_times, curve.values):
            if t >= tau:
                break
            total += surv * (t - prev_t)
            prev_t, surv = t, v
        return total + surv * (tau - prev_t)
    return piecewise_rmst(curve.breakpoints, curve.rates, tau)


def piecewise_rmst(breakpoints, rates, tau: float) -> float:
    """Integral of exp(-H) over [0, tau], for valid ``breakpoints``, ``rates`` and tau >= 0."""
    total = 0.0
    surv = 1.0
    start = 0.0
    boundaries = breakpoints + (math.inf,)
    for cut, rate in zip(boundaries, rates):
        end = min(cut, tau)
        if end > start:
            dt = end - start
            if rate == 0.0:
                total += surv * dt
            else:
                total += surv * (1.0 - math.exp(-rate * dt)) / rate
                surv *= math.exp(-rate * dt)
        if cut >= tau:
            break
        start = cut
    return total


def fit_exponential(ds: TrialDataset) -> ParametricSurvival:
    """Constant-hazard MLE: events divided by total observed time."""
    return fit_piecewise_exponential(ds, ())


def fit_piecewise_exponential(ds: TrialDataset, breakpoints) -> ParametricSurvival:
    """Per-interval constant-hazard MLE over right-closed intervals.

    Events over person-time per interval, as ``interval_exposure`` counts
    them.  Zero person-time gives rate 0.
    """
    if ds.n == 0:
        raise ValueError("cannot fit an empty dataset")
    cuts = tuple(float(c) for c in breakpoints)
    if not all(map(math.isfinite, cuts)):
        raise ValueError("breakpoints must be finite")
    if any(c <= 0 for c in cuts) or any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError("breakpoints must be positive and strictly ascending")
    rates = []
    for person_time, events in interval_exposure(ds, cuts):
        # left to right, not sum(): it compensates from Python 3.12 on, moving bytes
        total = reduce(add, person_time, 0.0)
        rates.append(sum(events) / total if total > 0 else 0.0)
    return ParametricSurvival(cuts, tuple(rates))


def interval_exposure(ds: TrialDataset, cuts: tuple[float, ...]):
    """Each subject's person-time and event in every interval between ``cuts``.

    One (person-time, events) pair of per-subject lists, in dataset order,
    per right-closed interval (0, c1], (c1, c2], ..., (c_last, inf).  A
    subject contributes min(time, interval end) - interval start of
    person-time to every interval it enters; its event belongs to the
    interval containing its time.
    """
    times, events = ds.times, ds.events
    return [
        (
            [min(t, end) - start if t > start else 0.0 for t in times],
            [e if start < t <= end else 0 for t, e in zip(times, events)],
        )
        for start, end in zip((0.0,) + cuts, cuts + (math.inf,))
    ]
