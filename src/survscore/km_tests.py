"""Closed-form Kaplan-Meier tests: RMST difference and milestone survival.

Both compare the per-arm product-limit curves directly, with Greenwood-type
variances, and orient their p-values by the benefit of the matching
EstimandSpec.  A variance term at an event time where everyone at risk dies
divides by zero; such terms are dropped and a warning is attached.
"""

from itertools import accumulate, repeat

from .curves import km_fit, rmst
from .dataset import TrialDataset, build_risk_table, split_by_arm
from .logrank import TestResult
from .pseudo import EstimandSpec, _curve_functional


def _arm_fits(ds: TrialDataset, horizon: float, what: str):
    ds.require_two_arms()
    arm0, arm1 = split_by_arm(ds)
    fits = []
    for label, sub in (("arm 0", arm0), ("arm 1", arm1)):
        rt = build_risk_table(sub)
        curve = km_fit(sub)
        if horizon > curve.follow_up:
            raise ValueError(
                f"{what} {horizon:g} beyond follow-up {curve.follow_up:g} on {label}"
            )
        fits.append((rt, curve))
    return fits


def _integrals_from(curve, tau):
    """Integral of the curve from each of its jump times up to tau; 0 past tau.

    The total RMST(tau) minus the area up to each jump, the areas summed
    over the curve's own steps.
    """
    total = rmst(curve, tau)
    jumps = curve.jump_times
    steps = zip((1.0,) + curve.values, jumps, (0.0,) + jumps)
    areas = accumulate(surv * (t - prev) for surv, t, prev in steps)
    return [total - area if t <= tau else 0.0 for t, area in zip(jumps, areas)]


def _difference_test(ds: TrialDataset, spec: EstimandSpec) -> TestResult:
    """Arm 1 minus arm 0 of the spec's KM functional, with a Greenwood-type variance.

    The spec is an rmst or a milestone estimand.  The variance sums
    c^2 d / (n (n - d)) over each arm's event times up to its horizon,
    where c at an event time is the curve's integral from there to tau
    (rmst) or its value at kappa (milestone).
    """
    horizon = spec.horizon
    rmst_kind = spec.kind == "rmst"
    fits = _arm_fits(ds, horizon, "restriction time" if rmst_kind else "milestone time")
    estimates = [_curve_functional(curve, spec) for _, curve in fits]
    statistic = estimates[1] - estimates[0]

    variance = 0.0
    warnings = []
    for (rt, curve), label in zip(fits, ("arm 0", "arm 1")):
        coefficients = _integrals_from(curve, horizon) if rmst_kind else repeat(curve.at(horizon))
        for t, n, d, c in zip(rt.times, rt.at_risk, rt.events, coefficients):
            if t > horizon:
                continue
            if n == d:
                warnings.append(
                    f"variance term at t={t:g} on {label} dropped: "
                    "all subjects at risk had events"
                )
                continue
            if c != 0.0:
                variance += c * c * d / (n * (n - d))

    method = f"{spec.label} difference [KM]"
    return TestResult(method, statistic, variance, spec.benefit, warnings=tuple(warnings))


def rmst_test(ds: TrialDataset, tau: float) -> TestResult:
    """Difference in restricted mean survival up to tau, arm 1 minus arm 0."""
    return _difference_test(ds, EstimandSpec("rmst", tau=tau))


def milestone_test(ds: TrialDataset, kappa: float) -> TestResult:
    """Difference in survival probability at time kappa, arm 1 minus arm 0."""
    return _difference_test(ds, EstimandSpec("milestone", kappa=kappa))
