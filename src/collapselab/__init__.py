"""collapselab: a desk-scale laboratory for spontaneous-collapse dynamics,
spin-1 singlet locality tests, and Kochen-Specker colorability.

The engines are imported from their modules (``collapselab.grw``,
``collapselab.spin``, ...); the package itself exports only the error
classes, so importing it (or its command line) loads neither numpy nor
any engine.
"""

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
    WorkerLostError,
    ZeroNormError,
)

__all__ = [
    "CollapseLabError", "ConfigError", "GridAdequacyError", "InvariantViolationError",
    "NumericalError", "StepConditionError", "WorkerLostError", "ZeroNormError",
]

__version__ = "0.1.0"
