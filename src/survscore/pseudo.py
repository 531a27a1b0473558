"""Jackknife pseudo-values for survival estimands.

For a functional estimate F over a fitting group of size n, subject k's
pseudo-value is n * F(all) - (n - 1) * F(without k).  Estimands: restricted
mean survival (rmst), survival at a milestone time, window mean survival
(wmst), and the average hazard with survival weight (ahsw).  Backends:
Kaplan-Meier, exponential, piecewise exponential.  Fitting groups are
either each arm separately (the default) or the pooled sample.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .curves import (
    SurvivalCurve,
    fit_piecewise_exponential,
    interval_exposure,
    km_fit,
    piecewise_hazard,
    piecewise_rmst,
    rmst,
)
from .dataset import RiskTable, TrialDataset, build_risk_table, split_by_arm
from .logrank import TestResult, _unit_axis, mean_score_diff, perm_moments

ESTIMAND_KINDS = ("rmst", "milestone", "wmst", "ahsw")
BACKENDS = ("km", "exponential", "piecewise")
POOLINGS = ("arm", "pooled")


@dataclass(frozen=True)
class EstimandSpec:
    """Which survival functional to turn into pseudo-values, and how to fit.

    wmst allows tau1 = 0, in which case it coincides with rmst(tau2).
    ahsw is (1 - S(tau)) / rmst(tau), compared on the log scale unless
    ``log_scale`` is switched off.  Horizons and breakpoints must be
    finite.
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
        object.__setattr__(self, "breakpoints", tuple(float(c) for c in self.breakpoints))
        if not all(map(math.isfinite, self.breakpoints)):
            raise ValueError("breakpoints must be finite")

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


def _functional(at, integral, spec: EstimandSpec) -> float:
    """The estimand from a fit's survival function S(h) and its integral over [0, h]."""
    if spec.kind == "rmst":
        return integral(spec.tau)
    if spec.kind == "milestone":
        return at(spec.kappa)
    if spec.kind == "wmst":
        return integral(spec.tau2) - integral(spec.tau1)
    cumulative_incidence = 1.0 - at(spec.tau)
    area = integral(spec.tau)
    if area == 0.0:
        raise ValueError(f"ahsw undefined: RMST({spec.tau:g}) = 0")
    ratio = cumulative_incidence / area
    if not spec.log_scale:
        return ratio
    if cumulative_incidence == 0.0:
        raise ValueError(f"ahsw undefined on the log scale: S({spec.tau:g}) = 1")
    return math.log(ratio)


def _curve_functional(curve: SurvivalCurve, spec: EstimandSpec) -> float:
    return _functional(curve.at, lambda h: rmst(curve, h), spec)


def _check_follow_up(spec: EstimandSpec, follow_up: float) -> None:
    if spec.horizon > follow_up:
        raise ValueError(f"horizon {spec.horizon:g} beyond follow-up {follow_up:g}")


def _km_leave_one_out(rt: RiskTable, spec: EstimandSpec):
    """Leave-one-out functionals of a Kaplan-Meier fit, by position in ``rt.source``.

    Removing subject k (time t, event e) lowers the at-risk count by 1 at
    every event time <= t and the event count by e at t; the event times
    after t keep their factors 1 - d/n.  So the leave-one-out curve is a
    product of "shifted" factors 1 - d/(n - 1) up to the event time before
    t, one factor for the last event time at or before t (1, as if it were
    absent, when no event is left there), and the full fit's own factors
    after it.  Prefix products and integrals of the shifted curve, plus
    per-horizon suffix products and integrals of the full fit's factors
    (accumulated backwards, so nothing is divided and S = 0 is safe), give
    every subject's S(h) and RMST(h) in O(1) from its ``rt.intervals`` entry.
    Level j of a curve is its value after j jumps, on [start_j, t_j), with
    start_0 = 0.
    """
    times, at_risk, events = rt.times, rt.at_risk, rt.events
    starts = (0.0,) + times
    factors = [1.0 - d / n for d, n in zip(events, at_risk)]
    source_times, source_events = rt.source.times, rt.source.events
    ordered = sorted(source_times)
    # shifted level j, for every j < number of event times: an event time
    # before the last has a later death at risk, so n - 1 >= d there
    shifted = [1.0]
    for d, n in zip(events[:-1], at_risk[:-1]):
        shifted.append(shifted[-1] * (1.0 - d / (n - 1)))
    # area[j]: integral of the shifted curve over [0, start_j)
    area = list(accumulate(
        (s * (t - start) for s, t, start in zip(shifted, times, starts)), initial=0.0
    ))
    suffixes = {}

    def suffix(h):
        """(last, integrals, through, products) for horizon h, built once per h.

        ``last`` event times lie before h and ``through`` at or before it;
        integrals[j] and products[j] are the integral over [start_j, h) and
        the value at h of the curve that is 1 on level j and then takes the
        full fit's factors.
        """
        if h not in suffixes:
            last = bisect_left(times, h)
            integrals = [h - starts[last]]
            for j in reversed(range(last)):
                integrals.append(times[j] - starts[j] + factors[j] * integrals[-1])
            through = bisect_right(times, h)
            products = [1.0]
            for j in reversed(range(through)):
                products.append(factors[j] * products[-1])
            suffixes[h] = last, integrals[::-1], through, products[::-1]
        return suffixes[h]

    def estimate(position: int) -> float:
        time = source_times[position]
        # without the subject holding the unique largest time, follow-up
        # ends at the second largest; with a tie it stays
        _check_follow_up(spec, ordered[-2] if time == ordered[-1] else ordered[-1])
        pivot = rt.intervals[position]  # the level where the curves part
        level = 1.0
        if pivot:
            d = events[pivot - 1] - source_events[position]
            level = shifted[pivot - 1] * (1.0 - d / (at_risk[pivot - 1] - 1) if d else 1.0)

        def at(h):
            _, _, through, products = suffix(h)
            return shifted[through] if pivot > through else level * products[pivot]

        def integral(h):
            last, integrals, _, _ = suffix(h)
            if pivot > last:
                return area[last] + shifted[last] * (h - starts[last])
            return area[pivot] + level * integrals[pivot]

        return _functional(at, integral, spec)

    return estimate


def _totals_without_each(xs: list[float]) -> list[float]:
    """sum(xs) without xs[i], for every i, as a prefix plus a suffix sum.

    Nothing is subtracted, so there is no cancellation, and a total left
    with only zeros is exactly 0.0.
    """
    prefix = list(accumulate(xs, initial=0.0))
    suffix = list(accumulate(reversed(xs), initial=0.0))[::-1]
    return [p + s for p, s in zip(prefix, suffix[1:])]


def _parametric_leave_one_out(ds: TrialDataset, cuts: tuple[float, ...], spec: EstimandSpec):
    """Leave-one-out functionals of a piecewise-exponential fit, by position in ``ds``.

    Hazards are constant between ``cuts``; with no cuts this is the
    exponential fit.  Subject k's fit keeps every interval's person-time
    and events of the others; an interval no other subject reaches gets
    person-time 0 and rate 0, as in a refit.
    """
    columns = [
        (_totals_without_each(person_time), sum(events), events)
        for person_time, events in interval_exposure(ds, cuts)
    ]

    def estimate(position: int) -> float:
        rates = []
        for person_time, total_events, events in columns:
            time = person_time[position]
            rates.append((total_events - events[position]) / time if time > 0 else 0.0)
        # the full fit validated the cuts; a rate can still overflow
        if not all(0.0 <= rate < math.inf for rate in rates):
            raise ValueError("rates must be finite and nonnegative")
        return _functional(
            lambda h: math.exp(-piecewise_hazard(cuts, rates, h)),
            lambda h: piecewise_rmst(cuts, rates, h),
            spec,
        )

    return estimate


def _fit_group(ds: TrialDataset, spec: EstimandSpec):
    """One fitting group's full-sample functional, and its leave-one-out one.

    The second is a function of the subject's position in ``ds``.
    """
    if spec.backend == "km":
        curve = km_fit(ds)
        _check_follow_up(spec, curve.follow_up)
        return _curve_functional(curve, spec), _km_leave_one_out(build_risk_table(ds), spec)
    cuts = spec.breakpoints if spec.backend == "piecewise" else ()  # exponential: no cuts
    full = fit_piecewise_exponential(ds, cuts)
    return _curve_functional(full, spec), _parametric_leave_one_out(ds, full.breakpoints, spec)


def pseudo_values(ds: TrialDataset, spec: EstimandSpec) -> PseudoSet:
    """Jackknife pseudo-values for every subject, in dataset order.

    Each fitting group is fitted once; the leave-one-out functionals come
    from downdating that fit, exactly, rather than from n refits.
    """
    if spec.pooling == "arm":
        arm0, arm1 = split_by_arm(ds)
        groups = [
            ("arm0", [i for i, arm in enumerate(ds.arms) if arm == 0], arm0),
            ("arm1", [i for i, arm in enumerate(ds.arms) if arm == 1], arm1),
        ]
        groups = [g for g in groups if g[1]]
    else:
        groups = [("pooled", list(range(ds.n)), ds)]

    values: list[float | None] = [None] * ds.n
    loo: list[float | None] = [None] * ds.n
    functionals: dict[str, float] = {}
    for label, indices, subset in groups:
        n = len(indices)
        if n < 2:
            raise ValueError(f"fitting group {label} needs at least 2 subjects, has {n}")
        try:
            full, leave_one_out = _fit_group(subset, spec)
        except ValueError as exc:
            raise ValueError(f"{exc} (full fit, group {label})") from None
        functionals[label] = full
        n_events, events = subset.n_events, subset.events
        for position, k in enumerate(indices):
            if spec.backend == "km" and n_events - events[position] == 0:
                raise ValueError(
                    f"degenerate leave-one-out: removing subject {k} leaves no events"
                )
            try:
                estimate = leave_one_out(position)
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
