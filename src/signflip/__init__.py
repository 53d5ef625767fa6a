"""Sign-flip score tests for generalized linear models.

Robust hypothesis tests built by sign-flipping per-observation score
contributions, with an effective-score correction for estimated
nuisance parameters, quadratic-form statistics for multi-dimensional
tested parameters, classical baselines (Rao score, HC0 sandwich Wald,
quasi-Poisson, one-sample t) and a simulation harness for
type-I-error and power studies.
"""

from .baselines import (
    one_sample_t,
    parametric_score_test,
    quasi_score_test,
    rao_test,
    sandwich_estimate,
    sandwich_wald_test,
)
from .datasets import warpbreaks
from .design import DesignMatrix, build_design, read_csv
from .engine import (
    TestResult,
    decide,
    effective_contributions,
    flip_statistics_quadratic,
    flip_statistics_scalar,
    flip_test,
    p_value,
)
from .exceptions import DesignError, NumericalError, SignFlipError
from .families import (
    Binomial,
    Family,
    Gaussian,
    Poisson,
    family_from_name,
)
from .flips import FlipPlan, MODES, keyed_rng, make_flip_plan
from .glm import (
    Fit,
    InfoBlocks,
    ScoreSet,
    fit_full,
    fit_null,
    information_blocks,
    score_contributions,
)
from .simulate import (
    RejectionCurve,
    SCENARIOS,
    SimConfig,
    gen_hetero_normal,
    gen_mvn_covariates,
    gen_negbin_response,
    read_config_file,
    run_scenario,
    scenario_config,
    write_curve_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Binomial",
    "DesignError",
    "DesignMatrix",
    "Family",
    "FlipPlan",
    "Fit",
    "Gaussian",
    "InfoBlocks",
    "MODES",
    "NumericalError",
    "Poisson",
    "RejectionCurve",
    "SCENARIOS",
    "ScoreSet",
    "SignFlipError",
    "SimConfig",
    "TestResult",
    "build_design",
    "decide",
    "effective_contributions",
    "family_from_name",
    "fit_full",
    "fit_null",
    "flip_statistics_quadratic",
    "flip_statistics_scalar",
    "flip_test",
    "gen_hetero_normal",
    "gen_mvn_covariates",
    "gen_negbin_response",
    "information_blocks",
    "keyed_rng",
    "make_flip_plan",
    "one_sample_t",
    "p_value",
    "parametric_score_test",
    "quasi_score_test",
    "rao_test",
    "read_config_file",
    "read_csv",
    "run_scenario",
    "sandwich_estimate",
    "sandwich_wald_test",
    "scenario_config",
    "score_contributions",
    "warpbreaks",
    "write_curve_csv",
]
