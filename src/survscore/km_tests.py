"""Closed-form Kaplan-Meier tests: RMST difference and milestone survival.

Both compare the arms' product-limit curves, read off the pooled risk-table
columns, with Greenwood-type variances, and orient their p-values by the
benefit of the matching EstimandSpec.  A variance term at an event time where
everyone at risk dies divides by zero; such terms are dropped with a warning.
"""

from itertools import chain, repeat
from operator import mul

from .curves import beyond_follow_up, tail_integrals
from .dataset import _NO_EVENTS, TrialDataset
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
    estimates, variance, warnings = [], 0.0, []
    for label, (curve, factors, at_risk, deaths) in zip(("arm 0", "arm 1"), ds._arm_km):
        refusal = beyond_follow_up(horizon, curve.follow_up) if curve.jump_times else _NO_EVENTS
        if refusal:
            raise ValueError(f"{refusal} ({label})")
        estimates.append(_curve_functional(curve, spec))
        if rmst_kind:
            tails = tail_integrals(curve.jump_times, factors, horizon)[1:]
            coefficients = chain(map(mul, curve.values, tails), repeat(0.0))
        else:
            coefficients = repeat(estimates[-1])
        for t, n, d, c in zip(curve.jump_times, at_risk, deaths, coefficients):
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
