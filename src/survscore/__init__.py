"""Per-subject scores and pseudo-values for two-arm survival tests.

Weighted log-rank tests decompose into per-subject scores; Kaplan-Meier
and parametric estimand tests (restricted mean, milestone, window mean,
average hazard with survival weight) decompose into jackknife
pseudo-values.  Rescaled onto a common [-1, 1] axis, the two families
become directly comparable, with matching asymptotic and permutation
inference.
"""

from .censoring import inject_censoring
from .curves import (
    ParametricSurvival,
    StepSurvival,
    fit_exponential,
    fit_piecewise_exponential,
    km_fit,
    rmst,
)
from .dataset import (
    DataFormatError,
    RiskTable,
    Subject,
    TrialDataset,
    build_risk_table,
    parse_dataset,
    split_by_arm,
)
from .km_tests import milestone_test, rmst_test
from .logrank import (
    ScoreSet,
    TestResult,
    WeightSpec,
    compute_scores,
    compute_weights,
    mean_score_diff,
    perm_moments,
    standardize,
    u_and_v,
    wlrt_test,
)
from .permutation import (
    MonteCarloP,
    exact_perm_p,
    mc_perm_p,
)
from .pseudo import (
    EstimandSpec,
    PseudoSet,
    pseudo_test,
    pseudo_values,
    standardize_pseudo,
)
from .rng import SplitMix64
from .svgplot import PanelPoint, PlotPanel, render_svg

__version__ = "0.1.0"

__all__ = [
    "DataFormatError",
    "EstimandSpec",
    "MonteCarloP",
    "PanelPoint",
    "ParametricSurvival",
    "PlotPanel",
    "PseudoSet",
    "RiskTable",
    "ScoreSet",
    "SplitMix64",
    "StepSurvival",
    "Subject",
    "TestResult",
    "TrialDataset",
    "WeightSpec",
    "build_risk_table",
    "compute_scores",
    "compute_weights",
    "exact_perm_p",
    "fit_exponential",
    "fit_piecewise_exponential",
    "inject_censoring",
    "km_fit",
    "mc_perm_p",
    "mean_score_diff",
    "milestone_test",
    "parse_dataset",
    "perm_moments",
    "pseudo_test",
    "pseudo_values",
    "render_svg",
    "rmst",
    "rmst_test",
    "split_by_arm",
    "standardize",
    "standardize_pseudo",
    "u_and_v",
    "wlrt_test",
]
