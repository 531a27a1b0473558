"""Survival-curve estimators and exact restricted-mean integration.

Two curve families: the Kaplan-Meier step function and constant/piecewise
constant-hazard fits.  All integrals use exact piecewise closed forms (no
quadrature), so repeated evaluation is reproducible to rounding error.
tail_integrals() is the one KM tail integral that km_tests and pseudo share.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add

from .dataset import TrialDataset


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


@dataclass(frozen=True)
class ParametricSurvival:
    """Constant-hazard survival, optionally piecewise over breakpoints.

    S(t) = exp(-H(t)) with H piecewise linear; continuous, S(0) = 1, and
    defined for every t >= 0 (extrapolates by construction).
    """

    breakpoints: tuple[float, ...]  # finite, strictly ascending, all > 0; may be empty
    rates: tuple[float, ...]  # one per interval, len(breakpoints) + 1

    def __post_init__(self):
        if len(self.rates) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one rate per interval")
        object.__setattr__(self, "breakpoints", valid_breakpoints(self.breakpoints))
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
    """Product-limit estimate over the dataset's risk table.

    Fitted and validated once per dataset, which keeps it: the same curve
    on every call.
    """
    return ds._km  # raises when there are no events


def _product_limit(ds: TrialDataset) -> StepSurvival:
    """The fit ``km_fit`` keeps, from the dataset's risk-table columns.

    Its ``jump_times`` are the risk table's ``times``, the same tuple.
    """
    times, at_risk, events = ds._risk_columns[:3]
    values = []
    surv = 1.0
    for d, n in zip(events, at_risk):
        surv *= 1.0 - d / n
        values.append(surv)
    return StepSurvival(times, tuple(values), ds.follow_up)


def beyond_follow_up(horizon: float, follow_up: float) -> str | None:
    """The refusal of every Kaplan-Meier route at a horizon past follow-up, or None.

    A step curve is not extrapolated; a route adds its context in parentheses.
    """
    return f"horizon {horizon:g} beyond follow-up {follow_up:g}" if horizon > follow_up else None


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
        if refusal := beyond_follow_up(tau, curve.follow_up):
            raise ValueError(refusal)
        total = 0.0
        prev_t, surv = 0.0, 1.0
        for t, v in zip(curve.jump_times, curve.values):
            if t >= tau:
                break
            total += surv * (t - prev_t)
            prev_t, surv = t, v
        return total + surv * (tau - prev_t)
    return piecewise_rmst(curve.breakpoints, curve.rates, tau)


def tail_integrals(times, factors, h: float) -> list[float]:
    """For each level j up to the first time >= h, the integral over [start_j, h)
    of the step curve that is 1 on level j and takes ``factors[j:]`` at ``times[j:]``.

    Level j is [start_j, times[j]), with start_0 = 0 and start_j = times[j - 1].
    Summed backward with no division, so a factor of 0 is safe.
    """
    last = bisect_left(times, h)
    starts = [0.0, *times[:last]]
    tails = [h - starts[last]]
    for j in reversed(range(last)):
        tails.append(times[j] - starts[j] + factors[j] * tails[-1])
    return tails[::-1]


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
            x = rate * dt
            # the segment's (1 - exp(-x)) / rate, by expm1 so that a small x does not
            # cancel to 0; below x = 1 as dt times (1 - exp(-x)) / x, which is 1 where
            # x is 0, so that a rate of 0 or an x that underflows still gives dt
            if x < 1.0:
                area = dt * (-math.expm1(-x) / x) if x else dt
            else:
                area = -math.expm1(-x) / rate
            total += surv * area
            surv *= math.exp(-x)
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
    cuts = valid_breakpoints(breakpoints)
    rates = []
    for person_time, events in interval_exposure(ds, cuts):
        # left to right, not sum(): it compensates from Python 3.12 on, moving bytes
        total = reduce(add, person_time, 0.0)
        rates.append(sum(events) / total if total > 0 else 0.0)
    return ParametricSurvival(cuts, tuple(rates))


def valid_breakpoints(breakpoints) -> tuple[float, ...]:
    """``breakpoints`` as floats, refused unless finite, positive and strictly ascending."""
    cuts = tuple(float(c) for c in breakpoints)
    if not all(map(math.isfinite, cuts)):
        raise ValueError("breakpoints must be finite")
    if any(c <= 0 for c in cuts) or any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError("breakpoints must be positive and strictly ascending")
    return cuts


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
