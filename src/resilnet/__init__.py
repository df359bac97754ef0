"""resilnet: vulnerability-aware edge-weight design for oscillator networks."""

from .graphs import (
    DisconnectedGraphError,
    GraphConstructionError,
    SingularLaplacianError,
    SpectralBundle,
    WeightedGraph,
    algebraic_connectivity,
    build_graph,
    commute_time,
    complete_graph_edges,
    effective_resistance,
    is_connected,
    resistance_matrix,
    spectral_bundle,
    transition_matrix,
)
from .vulnerability import (
    VulnerabilityReport,
    commute_decomposition,
    lower_bound,
    vulnerability_gradient,
    vulnerability_measure,
    vulnerability_report,
    worst_case,
)
from .designs import (
    CertificateResult,
    PathUsageCounts,
    complete_graph_optimum,
    optimality_certificate,
    path_usage_counts,
    shortest_path_optimum,
    tree_optimum,
)
from .optimize import (
    DesignProblem,
    InfeasibleDesignError,
    SolverResult,
    epsilon_from_sync,
    solve_min_max,
    solve_single_node,
)
from .sdp import SdpData, assemble_sdp, decode_point, encode_point, write_sdpa
from .dynamics import (
    EmpiricalMeasure,
    NoiseSpec,
    SteadyState,
    TrajectoryEnsemble,
    empirical_vulnerability,
    integrate_linearized,
    integrate_nonlinear,
    make_noise,
    steady_state,
)
from .gridcase import GridCase, load_case, write_case
from .scenarios import ScenarioReport, emit_report, scenario_one, scenario_two

__version__ = "0.1.0"
