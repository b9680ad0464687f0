"""fairmix: fairness auditing and optimization for random classifier ensembles.

A random ensemble applies one of M deterministic classifiers, drawn
from a probability vector p, to each decision. This package computes
the resulting per-instance benefit probabilities analytically, audits
group fairness (acceptance rate, TPR, TNR, PPV, NPV, counterfactual
treatment checks, intra-group dispersion), and solves for mixture
weights that equalize the linear metrics — exactly where mixing
provably preserves fairness — while demonstrating that it does not for
the ratio metrics.
"""

from .classifiers import (
    Classifier,
    LinearClassifier,
    TableClassifier,
    load_prediction_matrix,
    prediction_matrix,
    save_prediction_matrix,
)
from .dataset import (
    Dataset,
    build_counterfactual_pairs,
    group_indices,
    load_dataset,
    save_dataset,
)
from .distributional import (
    DispersionReport,
    GroupDispersion,
    dispersion,
)
from .ensemble import (
    ClosureReport,
    Ensemble,
    SampleResult,
    acceptance_probability,
    closure_check,
    ensemble_gap,
    ensemble_group_rate,
    ensemble_report,
    member_counts,
    mixture_accuracy,
    sample,
)
from .errors import CompatibilityError, DataFormatError, FairmixError
from .metrics import (
    DEFAULT_TOLERANCE,
    FairnessReport,
    GroupMetric,
    LINEAR_KINDS,
    MetricKind,
    RATIO_KINDS,
    accuracy,
    classifier_report,
    fairness_gap,
    indicator_profile,
    treatment_violations,
)
from .optimizer import (
    GridOracleResult,
    MixtureSolution,
    Objective,
    PPVWitness,
    ThresholdRule,
    best_fair_single_threshold,
    build_mixture_program,
    grid_oracle,
    ppv_counterexample_search,
    solve_fair_mixture,
)
from .scenarios import (
    Scenario,
    ScenarioCheck,
    figure1,
    figure2,
    figure3,
    figure4,
    scenario_by_name,
    verify_scenario,
)
from .simplex import (
    LinearProgram,
    SimplexResult,
    SolveStatus,
    simplex_solve,
)

__version__ = "0.1.0"

__all__ = [
    "CompatibilityError",
    "ClosureReport",
    "Classifier",
    "DEFAULT_TOLERANCE",
    "DataFormatError",
    "Dataset",
    "DispersionReport",
    "Ensemble",
    "FairmixError",
    "FairnessReport",
    "GridOracleResult",
    "GroupDispersion",
    "GroupMetric",
    "LINEAR_KINDS",
    "LinearClassifier",
    "LinearProgram",
    "MetricKind",
    "MixtureSolution",
    "Objective",
    "PPVWitness",
    "RATIO_KINDS",
    "SampleResult",
    "Scenario",
    "ScenarioCheck",
    "SimplexResult",
    "SolveStatus",
    "TableClassifier",
    "ThresholdRule",
    "accuracy",
    "acceptance_probability",
    "best_fair_single_threshold",
    "build_counterfactual_pairs",
    "build_mixture_program",
    "classifier_report",
    "closure_check",
    "dispersion",
    "ensemble_gap",
    "ensemble_group_rate",
    "ensemble_report",
    "fairness_gap",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "grid_oracle",
    "group_indices",
    "indicator_profile",
    "load_dataset",
    "load_prediction_matrix",
    "member_counts",
    "mixture_accuracy",
    "ppv_counterexample_search",
    "prediction_matrix",
    "sample",
    "save_dataset",
    "save_prediction_matrix",
    "scenario_by_name",
    "simplex_solve",
    "solve_fair_mixture",
    "treatment_violations",
    "verify_scenario",
    "__version__",
]
