"""driftlab: simulation, estimation, and control of multi-objective
score dynamics under affine drift-diffusion strategies."""

from .core import (
    DegenerateVariance,
    DimensionMismatch,
    DomainError,
    DriftModel,
    InsufficientData,
    InterferenceMatrix,
    InvalidExpectedLength,
    NonFinite,
    NonSquare,
    OutOfRangeScore,
    PredictionReport,
    RankDeficientDesign,
    RecordFormatError,
    Regime,
    SessionSet,
    SpectrumReport,
    StrategySpec,
    TailTooLong,
    TooShort,
    Trajectory,
    dumps_trajectories,
    group_by_strategy,
    loads_trajectories,
    read_trajectories,
    validate_trajectory,
)
from .simulator import SimConfig, drift, em_step, preset, preset_catalog, simulate_session, simulate_set
from .inference import fit_drift, interference_matrix, predictive_r2
from .spectral import classify_regime, eigen_spectrum
from .pareto import equilibrium_estimate, pareto_efficiency
from .controller import (
    ControlEvent,
    ControllerConfig,
    EventKind,
    Phase,
    check_interventions,
    phased_schedule_default,
    run_controlled,
)
from .scorer import ScoreBreakdown, score_all, score_efficiency, score_functionality, score_security

__version__ = "0.1.0"
