"""Longitudinal targeted estimation of trial effects under balanced
concomitant-medication interventions, with a discrete-time simulation engine
and Monte-Carlo ground-truth oracle."""

from .engine import (
    ArmEstimate,
    EstimateReport,
    EstimationError,
    GFit,
    clever_weight_path,
    contrast,
    fit_g,
    support_diagnostics,
    tmle_arm,
)
from .interventions import (
    POLICY_NAMES,
    ArmPolicy,
    InterventionSpec,
    USE_OBSERVED_G,
    arm_pair,
    dynamic_z,
    fit_stochastic_gstar,
    observational_z,
    policy_arms,
    policy_pairs,
    policy_specs,
    static_z,
)
from .learners import (
    FitError,
    FittedModel,
    SelectorFit,
    fit_binary_glm,
    fit_discrete_super_learner,
    fit_intercept_fluctuation,
)
from .panel import (
    DataError,
    EventTable,
    SettingError,
    TrialPanel,
    at_risk_mask,
    ingest_long_events,
    read_event_csv,
    read_panel_csv,
    validate_panel,
    write_panel_csv,
)
from .sim import (
    OracleContrast,
    OracleResult,
    ScenarioConfig,
    drop_in_trajectory,
    fit_reference_gstar,
    oracle_risk_difference,
    oracle_risk_differences,
    resolve_scenario,
    scenario_presets,
    simulate_counterfactual_mean,
    simulate_trial,
)

__version__ = "0.1.0"
