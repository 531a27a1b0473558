"""Jackknife pseudo-values for survival estimands.

For a functional estimate F over a fitting group of size n, subject k's
pseudo-value is n * F(all) - (n - 1) * F(without k).  Estimands: restricted
mean survival (rmst), survival at a milestone time, window mean survival
(wmst), and the average hazard with survival weight (ahsw).  Backends:
Kaplan-Meier, exponential, piecewise exponential.  Fitting groups are
either each arm separately (the default) or the pooled sample.
"""

import math
from dataclasses import dataclass, replace

from .curves import (
    SurvivalCurve,
    fit_exponential,
    fit_piecewise_exponential,
    km_fit,
    rmst,
)
from .dataset import TrialDataset, split_by_arm
from .logrank import TestResult, mean_score_diff, one_sided_p, perm_moments, z_value

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

    def describe(self) -> str:
        if self.kind == "rmst":
            what = f"RMST({self.tau:g})"
        elif self.kind == "milestone":
            what = f"milestone({self.kappa:g})"
        elif self.kind == "wmst":
            what = f"WMST({self.tau1:g},{self.tau2:g})"
        else:
            scale = "log " if self.log_scale else ""
            what = f"{scale}AHSW({self.tau:g})"
        backend = {"km": "KM", "exponential": "exponential", "piecewise": "piecewise exp"}[
            self.backend
        ]
        return f"{what} [{backend}, {self.pooling}]"

    def per_subject(self, ds: TrialDataset) -> "PseudoSet":
        """Standardized pseudo-values of ``ds`` for this estimand."""
        return standardize_pseudo(pseudo_values(ds, self))


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


@dataclass(frozen=True)
class PseudoSet:
    """Per-subject pseudo-values in dataset order.

    ``loo`` holds the leave-one-out functional estimate behind each value,
    ``functionals`` the full-sample estimate per fitting group.  ``scaled``
    is filled by standardize_pseudo(), oriented so that benefit on arm 1
    gives a lower scaled value, like a score.
    """

    source: TrialDataset
    spec: EstimandSpec
    values: tuple[float, ...]
    loo: tuple[float, ...]
    functionals: dict[str, float]
    scaled: tuple[float, ...] | None = None


def _fit(ds: TrialDataset, spec: EstimandSpec) -> SurvivalCurve:
    if spec.backend == "km":
        curve = km_fit(ds)
        if spec.horizon > curve.follow_up:
            raise ValueError(
                f"horizon {spec.horizon:g} beyond follow-up {curve.follow_up:g}"
            )
        return curve
    if spec.backend == "exponential":
        return fit_exponential(ds)
    return fit_piecewise_exponential(ds, spec.breakpoints)


def _functional(curve: SurvivalCurve, spec: EstimandSpec) -> float:
    if spec.kind == "rmst":
        return rmst(curve, spec.tau)
    if spec.kind == "milestone":
        return curve.at(spec.kappa)
    if spec.kind == "wmst":
        return rmst(curve, spec.tau2) - rmst(curve, spec.tau1)
    cumulative_incidence = 1.0 - curve.at(spec.tau)
    ratio = cumulative_incidence / rmst(curve, spec.tau)
    if not spec.log_scale:
        return ratio
    if cumulative_incidence == 0.0:
        raise ValueError(f"ahsw undefined on the log scale: S({spec.tau:g}) = 1")
    return math.log(ratio)


def _estimate(ds: TrialDataset, spec: EstimandSpec, context: str) -> float:
    try:
        return _functional(_fit(ds, spec), spec)
    except ValueError as exc:
        raise ValueError(f"{exc} ({context})") from None


def pseudo_values(ds: TrialDataset, spec: EstimandSpec) -> PseudoSet:
    """Jackknife pseudo-values for every subject, in dataset order."""
    if spec.pooling == "arm":
        arm0, arm1 = split_by_arm(ds)
        groups = [
            ("arm0", [i for i, s in enumerate(ds.subjects) if s.arm == 0], arm0),
            ("arm1", [i for i, s in enumerate(ds.subjects) if s.arm == 1], arm1),
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
        full = _estimate(subset, spec, f"full fit, group {label}")
        functionals[label] = full
        for position, k in enumerate(indices):
            reduced = subset.without(position)
            if spec.backend == "km" and reduced.n_events == 0:
                raise ValueError(
                    f"degenerate leave-one-out: removing subject {k} leaves no events"
                )
            estimate = _estimate(reduced, spec, f"after removing subject {k}")
            loo[k] = estimate
            values[k] = n * full - (n - 1) * estimate

    return PseudoSet(ds, spec, tuple(values), tuple(loo), functionals)


def standardize_pseudo(ps: PseudoSet) -> PseudoSet:
    """Affine map of pseudo-values onto [-1, 1], benefit pointing down.

    Computed jointly over both arms; the subject with the best outcome
    gets -1, so panels line up with log-rank score panels.  The map
    reverses the values when the estimand's benefit is "upper" and keeps
    their sign when it is "lower".
    """
    hi, lo = max(ps.values), min(ps.values)
    if hi == lo:
        raise ValueError("degenerate pseudo-value range: all values equal")
    span = hi - lo
    if ps.spec.benefit == "lower":
        scaled = tuple((2.0 * v - hi - lo) / span for v in ps.values)
    else:
        scaled = tuple((hi + lo - 2.0 * v) / span for v in ps.values)
    return replace(ps, scaled=scaled)


def pseudo_test(ps: PseudoSet, arms=None) -> TestResult:
    """Mean pseudo-value difference with permutation-moment variance.

    Oriented by the estimand's ``benefit``, so that benefit on arm 1
    gives a small p.
    """
    if arms is None:
        arms = ps.source.arms
    if len(arms) != len(ps.values):
        raise ValueError("arms and pseudo-values must have equal length")
    statistic = mean_score_diff(ps.values, arms)
    _, variance = perm_moments(ps.values, sum(arms))
    z = z_value(statistic, variance)
    return TestResult(
        method=f"pseudo-value {ps.spec.describe()}",
        statistic=statistic,
        variance=variance,
        z=z,
        p_one_sided=one_sided_p(z, ps.spec.benefit),
        per_subject=ps,
    )
