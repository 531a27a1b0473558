"""Closed-form Kaplan-Meier tests: RMST difference and milestone survival.

Both compare the per-arm product-limit curves directly, with Greenwood-type
variances, and orient their p-values by the benefit of the matching
EstimandSpec.  A variance term at an event time where everyone at risk dies
divides by zero; such terms are dropped and a warning is attached.
"""

from itertools import chain, repeat
from operator import mul

from .curves import beyond_follow_up, km_fit, tail_integrals
from .dataset import TrialDataset, build_risk_table, check_arm_sizes, split_by_arm
from .logrank import TestResult
from .pseudo import EstimandSpec, _curve_functional


def _difference_test(ds: TrialDataset, spec: EstimandSpec) -> TestResult:
    """Arm 1 minus arm 0 of the spec's KM functional, with a Greenwood-type variance.

    The spec is an rmst or a milestone estimand.  The variance sums
    c^2 d / (n (n - d)) over each arm's event times up to its horizon,
    where c at event time t_j is S(kappa) (milestone) or the curve's integral
    from t_j to tau, S(t_j) times tail_integrals' entry j + 1 (rmst).
    """
    horizon, rmst_kind = spec.horizon, spec.kind == "rmst"
    check_arm_sizes(ds.n, ds.n_arm1)
    estimates, variance, warnings = [], 0.0, []
    for label, arm in zip(("arm 0", "arm 1"), split_by_arm(ds)):
        try:
            curve = km_fit(arm)
            if refusal := beyond_follow_up(horizon, curve.follow_up):
                raise ValueError(refusal)
        except ValueError as exc:
            raise ValueError(f"{exc} ({label})") from None
        estimates.append(_curve_functional(curve, spec))
        rt = build_risk_table(arm)
        if rmst_kind:
            factors = [1.0 - d / n for d, n in zip(rt.events, rt.at_risk)]
            tails = tail_integrals(rt.times, factors, horizon)[1:]
            coefficients = chain(map(mul, curve.values, tails), repeat(0.0))
        else:
            coefficients = repeat(estimates[-1])
        for t, n, d, c in zip(rt.times, rt.at_risk, rt.events, coefficients):
            if t > horizon:
                break
            if n == d:
                warnings.append(
                    f"variance term at t={t:g} on {label} dropped: all subjects at risk had events"
                )
            else:
                variance += c * c * d / (n * (n - d))

    method = f"{spec.label} difference [KM]"
    return TestResult(method, estimates[1] - estimates[0], variance, spec.benefit,
                      warnings=tuple(warnings))


def rmst_test(ds: TrialDataset, tau: float) -> TestResult:
    """Difference in restricted mean survival up to tau, arm 1 minus arm 0."""
    return _difference_test(ds, EstimandSpec("rmst", tau=tau))


def milestone_test(ds: TrialDataset, kappa: float) -> TestResult:
    """Difference in survival probability at time kappa, arm 1 minus arm 0."""
    return _difference_test(ds, EstimandSpec("milestone", kappa=kappa))
