"""Jackknife pseudo-values for survival estimands.

For a functional estimate F over a fitting group of size n, subject k's
pseudo-value is n * F(all) - (n - 1) * F(without k).  Estimands: restricted
mean survival (rmst), survival at a milestone time, window mean survival
(wmst), and the average hazard with survival weight (ahsw).  Backends:
Kaplan-Meier, exponential, piecewise exponential.  Fitting groups are
either each arm separately (the default) or the pooled sample.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import mul, sub

from .curves import (
    SurvivalCurve,
    beyond_follow_up,
    fit_piecewise_exponential,
    interval_exposure,
    piecewise_hazard,
    piecewise_rmst,
    rmst,
    tail_integrals,
    valid_breakpoints,
)
from .dataset import _NO_EVENTS, TrialDataset, check_arm_sizes, split_by_arm
from .logrank import TestResult, _unit_axis, mean_score_diff, perm_moments

ESTIMAND_KINDS = ("rmst", "milestone", "wmst", "ahsw")
BACKENDS = ("km", "exponential", "piecewise")
POOLINGS = ("arm", "pooled")


@dataclass(frozen=True)
class EstimandSpec:
    """Which survival functional to turn into pseudo-values, and how to fit.

    wmst allows tau1 = 0, in which case it coincides with rmst(tau2).
    ahsw is (1 - S(tau)) / rmst(tau), compared on the log scale unless
    ``log_scale`` is switched off.  Horizons must be finite; breakpoints
    finite, positive and strictly ascending.
    """

    kind: str
    tau: float | None = None  # rmst / ahsw horizon
    kappa: float | None = None  # milestone time
    tau1: float | None = None  # wmst window start (may be 0)
    tau2: float | None = None  # wmst window end
    log_scale: bool = True
    backend: str = "km"
    breakpoints: tuple[float, ...] = ()
    pooling: str = "arm"

    def __post_init__(self):
        if self.kind not in ESTIMAND_KINDS:
            raise ValueError(f"unknown estimand {self.kind!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.pooling not in POOLINGS:
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if self.kind in ("rmst", "ahsw"):
            if not _finite(self.tau) or self.tau <= 0:
                raise ValueError(f"{self.kind} needs a finite positive horizon tau")
        elif self.kind == "milestone":
            if not _finite(self.kappa) or self.kappa <= 0:
                raise ValueError("milestone needs a finite positive time kappa")
        else:  # wmst
            if not (_finite(self.tau1) and _finite(self.tau2)) or self.tau1 < 0:
                raise ValueError("wmst needs finite window times tau1 >= 0 and tau2")
            if not self.tau1 < self.tau2:
                raise ValueError("wmst needs tau1 < tau2")
        object.__setattr__(self, "breakpoints", valid_breakpoints(self.breakpoints))

    @property
    def benefit(self) -> str:
        """Which tail of the estimand favors arm 1: "lower" or "upper".

        A longer survival (rmst, milestone, wmst) is better; ahsw is an
        average hazard, so a smaller one is.
        """
        return "lower" if self.kind == "ahsw" else "upper"

    @property
    def horizon(self) -> float:
        """Largest time the backend curve is evaluated at."""
        if self.kind == "milestone":
            return self.kappa
        if self.kind == "wmst":
            return self.tau2
        return self.tau

    @property
    def label(self) -> str:
        """The estimand alone, e.g. RMST(18); describe() adds the fit."""
        if self.kind == "rmst":
            return f"RMST({self.tau:g})"
        if self.kind == "milestone":
            return f"milestone({self.kappa:g})"
        if self.kind == "wmst":
            return f"WMST({self.tau1:g},{self.tau2:g})"
        scale = "log " if self.log_scale else ""
        return f"{scale}AHSW({self.tau:g})"

    def describe(self) -> str:
        backend = {"km": "KM", "exponential": "exponential", "piecewise": "piecewise exp"}[
            self.backend
        ]
        return f"{self.label} [{backend}, {self.pooling}]"

    def scaled(self, ds: TrialDataset) -> tuple[float, ...]:
        """The pseudo-values of ``ds`` for this estimand, on the [-1, 1] axis."""
        return standardize_pseudo(pseudo_values(ds, self))

    def test(self, ds: TrialDataset) -> "TestResult":
        """The pseudo-value test of ``ds`` for this estimand."""
        check_arm_sizes(ds.n, ds.n_arm1)  # as every two-sample test: before any fit
        return pseudo_test(pseudo_values(ds, self))


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


@dataclass(frozen=True)
class PseudoSet:
    """Per-subject pseudo-values in dataset order.

    ``loo`` holds the leave-one-out functional estimate behind each value,
    ``functionals`` the full-sample estimate per fitting group.
    standardize_pseudo() maps the values onto [-1, 1].
    """

    source: TrialDataset
    spec: EstimandSpec
    values: tuple[float, ...]
    loo: tuple[float, ...]
    functionals: dict[str, float]


def _functional(at, integral, spec: EstimandSpec):
    """The estimand of every fit, as a lazy stream in the fits' order.

    ``at(h)`` and ``integral(h)`` give each fit's S(h) and integral over
    [0, h] as columns; an undefined ahsw is refused when the stream reaches it.
    """
    if spec.kind == "rmst":
        return iter(integral(spec.tau))
    if spec.kind == "milestone":
        return iter(at(spec.kappa))
    if spec.kind == "wmst":
        return map(sub, integral(spec.tau2), integral(spec.tau1))

    def ahsw(survival, area):
        if area == 0.0:
            raise ValueError(f"ahsw undefined: RMST({spec.tau:g}) = 0")
        if not spec.log_scale:
            return (1.0 - survival) / area
        if survival == 1.0:
            raise ValueError(f"ahsw undefined on the log scale: S({spec.tau:g}) = 1")
        return math.log((1.0 - survival) / area)

    return map(ahsw, at(spec.tau), integral(spec.tau))


def _curve_functional(curve: SurvivalCurve, spec: EstimandSpec) -> float:
    return next(_functional(lambda h: (curve.at(h),), lambda h: (rmst(curve, h),), spec))


def _km_leave_one_out(curve, factors, at_risk, events, group_times, group_events):
    """S(h) and RMST(h) of every leave-one-out Kaplan-Meier fit, as columns.

    The arguments are a group's fit and its subjects' times and events.
    Removing subject k (time t, event e) lowers the at-risk count by 1 at
    every event time <= t and the event count by e at t; the event times
    after t keep their factors 1 - d/n.  So the leave-one-out curve is a
    product of "shifted" factors 1 - d/(n - 1) up to the event time before
    t, one factor for the last event time at or before t (1, as if it were
    absent, when no event is left there), and the full fit's own factors
    after it.  Prefix products and integrals of the shifted curve, plus the
    suffix products of the full fit's ``factors`` and their tail_integrals() for
    a horizon h (backward, so nothing is divided and S = 0 is safe), give
    every subject's S(h) and RMST(h) from its count of event times <= t.
    Level j of a curve is its value after j jumps, on [start_j, t_j), with
    start_0 = 0.  Returns ``at(h)`` and ``integral(h)``: each builds its
    suffixes once and gives one entry per subject, in the group's order.
    """
    times = curve.jump_times
    pivots = [bisect_right(times, t) for t in group_times]
    starts = (0.0,) + times
    # shifted level j, for every j < number of event times: an event time
    # before the last has a later death at risk, so n - 1 >= d there
    shifted = list(accumulate(
        (1.0 - d / (n - 1) for d, n in zip(events[:-1], at_risk[:-1])), mul, initial=1.0
    ))
    # area[j]: integral of the shifted curve over [0, start_j)
    area = list(accumulate(map(mul, shifted, map(sub, times, starts)), initial=0.0))
    # each subject's level where its curve parts from the shifted one (its pivot)
    levels = [
        shifted[j - 1] * (1.0 - d / (at_risk[j - 1] - 1) if (d := events[j - 1] - e) else 1.0)
        if j else 1.0
        for j, e in zip(pivots, group_events)
    ]

    def at(h):
        # products[j]: S(h) of the curve that is 1 on level j, then takes the full fit's factors
        through = bisect_right(times, h)
        products = list(accumulate(reversed(factors[:through]), mul, initial=1.0))[::-1]
        return [
            shifted[through] if j > through else level * products[j]
            for j, level in zip(pivots, levels)
        ]

    def integral(h):
        # tails[j]: integral over [start_j, h) of that curve; tails[last] = h - start_last
        tails = tail_integrals(times, factors, h)
        last = len(tails) - 1
        return [
            area[last] + shifted[last] * tails[last] if j > last else area[j] + level * tails[j]
            for j, level in zip(pivots, levels)
        ]

    return at, integral


def _totals_without_each(xs: list[float]) -> list[float]:
    """sum(xs) without xs[i], for every i, as a prefix plus a suffix sum.

    Nothing is subtracted, so there is no cancellation, and a total left
    with only zeros is exactly 0.0.
    """
    prefix = list(accumulate(xs, initial=0.0))
    suffix = list(accumulate(reversed(xs), initial=0.0))[::-1]
    return [p + s for p, s in zip(prefix, suffix[1:])]


def _parametric_leave_one_out(ds: TrialDataset, cuts: tuple[float, ...]):
    """S(h) and RMST(h) of every leave-one-out piecewise-exponential fit, as columns.

    Hazards are constant between ``cuts``; with no cuts this is the
    exponential fit.  Subject k's fit keeps every interval's person-time
    and events of the others; an interval no other subject reaches gets
    person-time 0 and rate 0, as in a refit.  Returns ``at(h)`` and
    ``integral(h)`` as _km_leave_one_out() does, and the position of the
    first subject whose rates overflow, or None.
    """
    columns = []
    for person_time, events in interval_exposure(ds, cuts):
        total = sum(events)
        columns.append([
            (total - e) / time if time > 0 else 0.0
            for time, e in zip(_totals_without_each(person_time), events)
        ])
    # the full fit validated the cuts; a count over a positive person-time is
    # never negative or NaN, but it can still overflow
    overflow = min((c.index(math.inf) for c in columns if math.inf in c), default=None)
    rates = list(zip(*columns))
    return (
        lambda h: [math.exp(-piecewise_hazard(cuts, r, h)) for r in rates],
        lambda h: [piecewise_rmst(cuts, r, h) for r in rates],
        overflow,
    )


def _fit_group(ds: TrialDataset, spec: EstimandSpec, indices):
    """The group at ``indices``: its full-sample functional, its leave-one-out ones, a refusal.

    The leave-one-out functionals are a lazy stream in ``ds`` order.  The
    refusal is the position of the first subject whose fit the downdate
    refuses, and why; without a position or a reason it refuses none.
    """
    arm = ds.arms[indices[0]] if len(indices) < ds.n else None  # None: the whole trial
    if spec.backend == "km":
        curve, *columns = ds._km if arm is None else ds._arm_km[arm]  # _km raises without events
        reason = beyond_follow_up(spec.horizon, curve.follow_up) if curve.jump_times else _NO_EVENTS
        if reason:
            raise ValueError(reason)
        times, events = ([source[k] for k in indices] for source in (ds.times, ds.events))
        at, integral = _km_leave_one_out(curve, *columns, times, events)
        # without the group's latest subject, follow-up ends at the latest time of the
        # others (the same time, unless that subject is the only latest one)
        last = times.index(curve.follow_up)
        refusal = last, beyond_follow_up(spec.horizon, max(times[:last] + times[last + 1:]))
    else:
        subset = ds if arm is None else split_by_arm(ds)[arm]
        cuts = spec.breakpoints if spec.backend == "piecewise" else ()  # exponential: no cuts
        curve = fit_piecewise_exponential(subset, cuts)
        at, integral, overflow = _parametric_leave_one_out(subset, curve.breakpoints)
        refusal = overflow, "rates must be finite and nonnegative"
    return _curve_functional(curve, spec), _functional(at, integral, spec), refusal


def pseudo_values(ds: TrialDataset, spec: EstimandSpec) -> PseudoSet:
    """Jackknife pseudo-values for every subject, in dataset order.

    Each fitting group is fitted once; the leave-one-out functionals come
    from downdating that fit, exactly, rather than from n refits.
    """
    if spec.pooling == "arm":
        members = [[k for k, arm in enumerate(ds.arms) if arm == a] for a in (0, 1)]
        groups = [(f"arm {a}", indices) for a, indices in enumerate(members) if indices]
    else:
        groups = [("pooled", list(range(ds.n)))]

    values: list[float | None] = [None] * ds.n
    loo: list[float | None] = [None] * ds.n
    functionals: dict[str, float] = {}
    for label, indices in groups:
        n = len(indices)
        if n < 2:
            raise ValueError(f"fitting group {label} needs at least 2 subjects, has {n}")
        try:
            full, estimates, (refused, reason) = _fit_group(ds, spec, indices)
        except ValueError as exc:
            raise ValueError(f"{exc} (full fit, group {label})") from None
        functionals[label.replace(" ", "")] = full  # keyed arm0, arm1 or pooled
        n_events = sum(ds.events[k] for k in indices)
        for position, k in enumerate(indices):
            if spec.backend == "km" and n_events - ds.events[k] == 0:
                raise ValueError(
                    f"degenerate leave-one-out: removing subject {k} leaves no events"
                )
            try:
                if position == refused and reason:
                    raise ValueError(reason)
                estimate = next(estimates)
            except ValueError as exc:
                raise ValueError(f"{exc} (after removing subject {k})") from None
            loo[k] = estimate
            values[k] = n * full - (n - 1) * estimate
            if not math.isfinite(values[k]):
                raise ValueError(f"pseudo-value of subject {k} is not finite")

    return PseudoSet(ds, spec, tuple(values), tuple(loo), functionals)


def standardize_pseudo(ps: PseudoSet) -> tuple[float, ...]:
    """Pseudo-values on the one [-1, 1] axis of _unit_axis(), as scores: best -1, worst 1."""
    return _unit_axis(ps.values, ps.spec.benefit, "pseudo-value")


def pseudo_test(ps: PseudoSet) -> TestResult:
    """Mean pseudo-value difference with permutation-moment variance.

    Oriented by the estimand's ``benefit``, so that benefit on arm 1
    gives a small p.
    """
    statistic = mean_score_diff(ps.values, ps.source.arms)
    _, variance = perm_moments(ps.values, ps.source.n_arm1)
    method = f"pseudo-value {ps.spec.describe()}"
    return TestResult(method, statistic, variance, ps.spec.benefit, per_subject=ps)
