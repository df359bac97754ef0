"""resilnet: vulnerability-aware edge-weight design for oscillator networks."""

from .graphs import (
    DisconnectedGraphError,
    GraphConstructionError,
    SingularLaplacianError,
    SpectralBundle,
    WeightedGraph,
    algebraic_connectivity,
    build_graph,
    complete_graph_edges,
    resistance_matrix,
    spectral_bundle,
)
from .vulnerability import (
    commute_decomposition,
    lower_bound,
    vulnerability_gradient,
    vulnerability_measure,
    worst_case,
)
from .designs import (
    CertificateResult,
    complete_graph_optimum,
    optimality_certificate,
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
