"""collapselab: a desk-scale laboratory for spontaneous-collapse dynamics,
spin-1 singlet locality tests, and Kochen-Specker colorability.

The exported names of the engine modules resolve on first use, so
importing the package (or its command line) loads neither numpy nor any
engine; each is imported by the first name taken from it.
"""

import importlib
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

_EXPORTS = {
    "hilbert": (
        "DensityMatrix", "Operator", "StateVector", "SubsystemShape", "apply_on_subsystem",
        "hermitian_eig", "partial_trace", "tensor_product",
    ),
    "grw": (
        "Block", "Grid", "GrwParams", "JumpEvent", "Trajectory", "apply_jump", "evolve_block",
        "evolve_equivariant", "evolve_trajectory", "jump_density", "sample_jump_times",
    ),
    "lindblad": (
        "LindbladConfig", "Mixture", "ensemble_compare", "integrate_with_snapshots",
        "lindblad_rhs", "trace_distance",
    ),
    "spin": (
        "Direction", "OrthoTriple", "TripleOutcome", "outcome_independence_check",
        "parameter_independence_check", "singlet_state", "spin_matrices", "squared_spin",
        "triple_measurement",
    ),
    "ks": (
        "Assignment", "OrthogonalityStructure", "Ray", "RaySet", "SearchCertificate",
        "build_structure", "check_assignment", "ck_argument_trace", "search_coloring",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "CollapseLabError", "ConfigError", "GridAdequacyError", "InvariantViolationError",
    "NumericalError", "StepConditionError", "ZeroNormError", *_MODULE_OF,
]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
