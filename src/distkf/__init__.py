"""distkf: distributed steady-state Kalman estimation over sensor networks.

The centralized fixed-gain Kalman filter is decomposed losslessly into
per-sensor filters driven only by local measurements; a consensus
coupling designed from the graph Laplacian spectrum fuses them so that
the network average of the node estimates equals the optimal estimate at
every step, with an exactly computable asymptotic error covariance.
"""

from .analysis import (
    AugmentedSystem,
    CovarianceReport,
    asymptotic_covariance,
    build_augmented,
    performance_ratios,
)
from .consensus import (
    BernoulliDropStrategy,
    ConsensusDesign,
    StaticStrategy,
    bernoulli_drop_strategy,
    check_condition,
    compute_gamma,
    design_consensus,
    mahler_measure,
    solve_mare,
    static_strategy,
    verify_gain,
)
from .decomposition import (
    DecompositionBundle,
    ReducedBundle,
    build_bundle,
    build_F,
    build_G,
    build_lambda,
    design_S_beta,
    reduce_model,
)
from .errors import (
    BadNoiseError,
    ConfigError,
    DimensionMismatchError,
    DisconnectedGraphError,
    DistkfError,
    GainInfeasibleError,
    IllConditionedError,
    InfeasibleConditionError,
    InfeasibleDesignError,
    InfeasibleZetaError,
    NoConvergenceError,
    NotDetectableError,
    NotObservableError,
    NumericalError,
    PoleClashError,
    UnstableAugmentedError,
)
from .kalman import KalmanDesign, design_kalman, design_local_kf
from .pipeline import design_pipeline, local_baselines
from .plant import (
    SensorGraph,
    SplitModel,
    SystemModel,
    build_graph,
    build_system,
    complete_graph,
    geometric_adjacency,
    ring_graph,
    split_model,
)
from .scenarios import (
    Scenario,
    builtin_scenario,
    example1_scenario,
    example2_scenario,
    heat_transition,
    interpolation_rows,
    load_scenario,
    parse_scenario,
)
from .simulator import (
    DesignSet,
    MonteCarloResult,
    SimulationTrace,
    TrialConfig,
    message_dimension,
    resolve_variant,
    run_monte_carlo,
    run_trial,
    write_mse_csv,
    write_trace_csv,
)

__version__ = "0.1.0"
