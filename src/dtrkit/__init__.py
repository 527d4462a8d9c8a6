"""Estimation and evaluation of optimal multi-stage treatment regimes.

The package fits stage-wise decision rules from trajectory data by two
estimators, a regression-based backward recursion (Q-learning) and a
doubly-robust contrast estimator (A-learning), evaluates the population
value of any candidate regime analytically or by forward simulation, and
runs the Monte Carlo misspecification studies comparing the two.
"""

from .alearn import ALearnResult, a_pseudo_outcome, alearn_fit, alearn_stage_solve, propensity_eval
from .calibrate import CalibrationResult, calibrate_equiv_misspec, check_tstat_balance
from .data import (
    Dataset,
    DecisionRule,
    FeatureMap,
    KnownPropensity,
    LogisticPropensity,
    Regime,
    StageFit,
    StageSpec,
    apply_regime,
    build_design,
    read_dataset_csv,
    write_dataset_csv,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DtrError,
    ExtremePropensityWarning,
    FeatureScopeError,
    InvalidParameterError,
    NonConvergenceError,
    ParseError,
    SingularSystemError,
    StudyError,
)
from .evaluate import (
    StudyConfig,
    StudyResults,
    regime_value_analytic,
    run_mc_study,
    value_gcomputation,
)
from .numerics import (
    FitResult,
    logistic_fit,
    norm_pdf,
    solve_linear,
    trunc_norm_moments,
    wls_fit,
)
from .qlearn import QLearnResult, q_pseudo_outcome, qlearn_fit
from .rng import RngStream, make_stream
from .scenarios import (
    MoodieParams,
    OneDecisionParams,
    TwoDecisionParams,
    derive_stage1_truth,
    gen_moodie,
    gen_one_decision,
    gen_two_decision,
    induced_q1_closed_form,
    scenario_params,
    scenario_registry,
    true_psi,
    true_regime,
)

__version__ = "0.1.0"
