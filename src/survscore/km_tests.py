"""Closed-form Kaplan-Meier tests: RMST difference and milestone survival.

Both compare the per-arm product-limit curves directly, with Greenwood-type
variances, and orient their p-values by the benefit of the matching
EstimandSpec.  A variance term at an event time where everyone at risk dies
divides by zero; such terms are dropped and a warning is attached.
"""

from itertools import accumulate, repeat

from .curves import km_from_table, rmst
from .dataset import TrialDataset, build_risk_table, split_by_arm
from .logrank import TestResult, one_sided_p, z_value
from .pseudo import EstimandSpec


def _arm_fits(ds: TrialDataset, horizon: float, what: str):
    ds.require_two_arms()
    arm0, arm1 = split_by_arm(ds)
    fits = []
    for label, sub in (("arm 0", arm0), ("arm 1", arm1)):
        rt = build_risk_table(sub)
        curve = km_from_table(rt)
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


def _difference_test(ds, spec, what, method, functional, coefficients) -> TestResult:
    """Arm 1 minus arm 0 of a KM functional, with a Greenwood-type variance.

    The variance sums c^2 d / (n (n - d)) over each arm's event times up
    to the spec's horizon, where ``coefficients(curve)`` gives c at every
    event time of the arm's risk table.
    """
    horizon = spec.horizon
    fits = _arm_fits(ds, horizon, what)
    estimates = [functional(curve) for _, curve in fits]
    statistic = estimates[1] - estimates[0]

    variance = 0.0
    warnings = []
    for (rt, curve), label in zip(fits, ("arm 0", "arm 1")):
        for t, n, d, c in zip(rt.times, rt.at_risk, rt.events, coefficients(curve)):
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

    z = z_value(statistic, variance)
    return TestResult(
        method=method,
        statistic=statistic,
        variance=variance,
        z=z,
        p_one_sided=one_sided_p(z, spec.benefit),
        warnings=tuple(warnings),
    )


def rmst_test(ds: TrialDataset, tau: float) -> TestResult:
    """Difference in restricted mean survival up to tau, arm 1 minus arm 0."""
    return _difference_test(
        ds,
        EstimandSpec("rmst", tau=tau),
        "restriction time",
        f"RMST({tau:g}) difference [KM]",
        lambda curve: rmst(curve, tau),
        lambda curve: _integrals_from(curve, tau),
    )


def milestone_test(ds: TrialDataset, kappa: float) -> TestResult:
    """Difference in survival probability at time kappa, arm 1 minus arm 0."""
    return _difference_test(
        ds,
        EstimandSpec("milestone", kappa=kappa),
        "milestone time",
        f"milestone({kappa:g}) difference [KM]",
        lambda curve: curve.at(kappa),
        lambda curve: repeat(curve.at(kappa)),
    )
