"""collapselab: a desk-scale laboratory for spontaneous-collapse dynamics,
spin-1 singlet locality tests, and Kochen-Specker colorability."""

import os

# One OpenBLAS thread unless the user chose a count.  This must run before
# numpy is first imported, which reads the variable once.  The package's
# BLAS calls are small GEMMs and eigensolves whose idle helper threads spin
# after each call, costing CPU time and occasional wall-time stalls; the
# free-H oracle's long Taylor substeps keep its GEMMs fast on one core.
# Pool workers inherit the variable.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    Block,
    Grid,
    GrwParams,
    JumpEvent,
    Trajectory,
    apply_jump,
    evolve_block,
    evolve_equivariant,
    evolve_trajectory,
    jump_density,
    localization_operator,
    sample_jump_times,
)
from .lindblad import (
    LindbladConfig,
    Mixture,
    ensemble_compare,
    integrate_with_snapshots,
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
