"""Tripartite nonlocality, entanglement and l1-coherence of GHZ-like states
seen by uniformly accelerated observers under amplitude damping."""

from .channels import DampingParams, KrausPair, amplitude_damping_kraus, apply_damping
from .closedform import CATALOG, CoverageError, cf_eval
from .engine import damped_scenario_state, is_x_structured, numeric_batch, numeric_measures
from .qcore import (
    ConfigError,
    DensityOperator,
    LabelError,
    ModeLabel,
    ModeRegister,
    ParameterError,
    SizeError,
    ValidationReport,
    partial_trace,
    validate_density,
)
from .sweep import (
    BoundaryResult,
    SweepConfig,
    SweepGrid,
    SweepRecord,
    emit_figure_data,
    find_boundary,
    run_audit,
    run_sweep,
    sum_rule_samples,
)
from .unruh import (
    BETA_MAX,
    GhzParams,
    SCENARIOS,
    Scenario,
    ScenarioKind,
    UnruhParams,
    scenario,
    scenario_reduced_state,
)

__version__ = "0.1.0"
