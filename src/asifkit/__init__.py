"""Run-time assurance toolkit: a minimal-deviation quadratic-program safety
filter over control barrier functions, a closed-loop simulation harness, and
assurance-case tooling for tracking the evidence behind the safety claims."""

from .asif import (
    INFEASIBLE_FALLBACK,
    MODIFIED,
    PASSTHROUGH,
    FilterResult,
    QpProblem,
    assemble_qp,
    check_kkt,
    filter_control,
    solve_qp,
)
from .barrier import (
    GEOFENCE_1D,
    GEOFENCE_2D_CIRCLE,
    SPEED_LIMIT,
    BarrierConstraint,
    cbf_row,
    eval_grad_h,
    eval_h,
    filter_rows,
)
from .controllers import (
    AdversarialController,
    MlpSpec,
    NnController,
    PdController,
    desired_control,
    load_controller,
    mlp_forward,
)
from .dynamics import (
    DOUBLE_INTEGRATOR_1D,
    DOUBLE_INTEGRATOR_2D,
    ControlInput,
    PlantModel,
    PlantState,
    disturbance_stream,
    sample_disturbance,
    step_rk4,
)
from .errors import (
    AsifKitError,
    EmptyTrace,
    InvalidConfig,
    InvalidDisturbance,
    InvalidLedger,
    InvalidModel,
    InvalidState,
    NonFiniteCommand,
    NonFiniteRow,
    NonFiniteState,
    ParseError,
    SingularGradient,
    StructurallyInfeasible,
)
from .harness import (
    UNFILTERED,
    EpisodeTrace,
    SafetyMetrics,
    ScenarioConfig,
    compute_metrics,
    load_scenario,
    read_trace,
    run_batch,
    run_episode,
    write_trace,
)

__version__ = "0.1.0"
