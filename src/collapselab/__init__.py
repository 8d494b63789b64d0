"""collapselab: a desk-scale laboratory for spontaneous-collapse dynamics,
spin-1 singlet locality tests, and Kochen-Specker colorability."""

from .errors import (
    CollapseLabError,
    ConfigError,
    GridAdequacyError,
    InvariantViolationError,
    NumericalError,
    StepConditionError,
    ZeroNormError,
)
from .hilbert import (
    DensityMatrix,
    Operator,
    StateVector,
    SubsystemShape,
    apply_on_subsystem,
    hermitian_eig,
    partial_trace,
    tensor_product,
)
from .grw import (
    Grid,
    GrwParams,
    JumpEvent,
    Trajectory,
    apply_jump,
    evolve_trajectory,
    jump_density,
    localization_operator,
    sample_jump_times,
)
from .lindblad import (
    LindbladConfig,
    compare_mixtures,
    ensemble_compare,
    integrate,
    lindblad_rhs,
    trace_distance,
)
from .spin import (
    Direction,
    OrthoTriple,
    TripleOutcome,
    outcome_independence_check,
    parameter_independence_check,
    singlet_joint_measure,
    singlet_state,
    spin_matrices,
    squared_spin,
    triple_measurement,
)
from .ks import (
    Assignment,
    OrthogonalityStructure,
    Ray,
    RaySet,
    SearchCertificate,
    build_structure,
    check_assignment,
    ck_argument_trace,
    search_coloring,
)

__version__ = "0.1.0"
