"""Tree-structured varying-coefficient regression for Gaussian outcomes.

Fits regression models whose coefficients are piecewise-constant
functions of the other covariates, grown greedily as binary trees;
estimates the effective degrees of freedom the greedy search spends;
and prunes the model path by a BIC that charges that search cost.
"""

from .core import Dataset, LinearFit, gaussian_log_lik, solve_least_squares
from .dof import (
    DofSpec,
    McDofConfig,
    McDofTable,
    TsvcPathFitter,
    dof_mfp,
    dof_naive,
    mc_dof,
    reference_table,
)
from .errors import (
    DegenerateFitError,
    DimensionMismatchError,
    DomainError,
    EmptyLeafError,
    MissingDofError,
    NoAdmissibleSplitError,
    NoConvergenceError,
    NonPositiveValuesError,
    OffGridError,
    RankDeficientError,
    TsvcError,
    ValidationError,
)
from .mfp import (
    FpTerm,
    InteractionTerm,
    MfpFit,
    best_fp,
    derive_dof_formula,
    mfp_select,
)
from .model import (
    CoefficientTree,
    ModelPath,
    SplitRule,
    TsvcModel,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    predict,
)
from .selection import PruneEntry, PruneReport, bic, prune_path
from .simulate import (
    ScenarioConfig,
    SimSummary,
    generate_scenario,
    predictive_log_lik,
    run_simulation,
)
from .tree import build_design, fit_path, fit_paths, grow_one_split

__version__ = "0.1.0"

__all__ = [
    "Dataset", "LinearFit", "gaussian_log_lik", "solve_least_squares",
    "DofSpec", "McDofConfig", "McDofTable", "TsvcPathFitter", "dof_mfp",
    "dof_naive", "mc_dof", "reference_table",
    "DegenerateFitError", "DimensionMismatchError", "DomainError", "EmptyLeafError",
    "MissingDofError", "NoAdmissibleSplitError", "NoConvergenceError",
    "NonPositiveValuesError", "OffGridError", "RankDeficientError", "TsvcError",
    "ValidationError",
    "FpTerm", "InteractionTerm", "MfpFit", "best_fp", "derive_dof_formula", "mfp_select",
    "CoefficientTree", "ModelPath", "SplitRule", "TsvcModel", "model_from_dict",
    "model_from_json", "model_to_dict", "model_to_json", "predict",
    "PruneEntry", "PruneReport", "bic", "prune_path",
    "ScenarioConfig", "SimSummary", "generate_scenario", "predictive_log_lik",
    "run_simulation",
    "build_design", "fit_path", "fit_paths", "grow_one_split",
]
