"""Deterministic simulation and verification of output-mask privacy in
continuous-time multiagent dynamics."""

from .adversary import (
    EavesdropperView,
    ReconstructionResult,
    make_linear_row_field,
    reconstruct_initial,
)
from .analysis import (
    AttractorCheck,
    DiagnosticsReport,
    attractor_verdicts,
    check_pinning_condition,
    consensus_value,
    conservation_series,
    fj_equilibrium,
    jacobi_eigenvalues,
    mask_gap_series,
    max_increase,
    sync_error_series,
    vmm_series,
)
from .dynamics import (
    AverageConsensus,
    FriedkinJohnsen,
    LorenzDrift,
    MaskedSystem,
    PinnedSync,
    SaturatedNet,
    TanhDrift,
    estimate_lipschitz_q,
    exosystem_field,
    field_masked,
    field_unmasked,
)
from .masks import (
    MaskAxiomReport,
    MaskBank,
    MaskKind,
    MaskParams,
    check_mask_axioms,
    choose_params,
    mask_norm_bounds,
    privacy_metric,
)
from .netgraph import (
    AssumptionReport,
    Digraph,
    GraphConstructionError,
    adjacency,
    build_graph,
    check_no_covering,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    is_irreducible,
    is_weight_balanced,
    laplacian,
    left_null_vector,
    spectral_radius,
)
from .scenario import Scenario, ScenarioError, build_scenario, config_hash, load_bundled, load_config
from .solver import BlowUpError, IntegratorConfig, Trajectory, integrate, solve_comparison_ode

__version__ = "0.1.0"
