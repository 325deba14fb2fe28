"""circleflow: spectral simulation of composition-driven Brownian circle flows."""

from .basis import (
    BasisPair,
    DerivedScaling,
    ScaledBasis,
    ScalingSequence,
    basis_coefficients,
    hlambda_norm,
    inclusion_hs_norm,
    inclusion_tail_bound,
    q_lambda_trace,
    verify_rapid_decay,
)
from .bell import (
    BellTable,
    HSBoundReport,
    LipschitzReport,
    bell_polynomial,
    compose_derivative,
    expansion_term_count,
    hs_bound_certificate,
    lipschitz_certificate,
    warp_expansion_terms,
)
from .circlefn import (
    AffineCircleMap,
    CircleFunction,
    compose,
    grid_points,
    sobolev_embedding_constant,
)
from .ensemble import (
    ConfigError,
    EnsembleSummary,
    RunConfig,
    contrast_h32,
    run_ensemble,
    run_experiment,
    validation_checks,
)
from .flow import (
    FlowCheckReport,
    FlowState,
    PathRecord,
    PathSample,
    SimulationDiverged,
    SolverConfig,
    concatenate,
    diffeo_radius,
    flow_compose_check,
    integrate,
    simulate_path,
    stratonovich_correction,
    truncation_scale,
)
from .noise import NoiseStream, field_values

__version__ = "0.1.0"
