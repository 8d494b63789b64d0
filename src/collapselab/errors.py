"""Exception types shared across the package."""


class CollapseLabError(Exception):
    """Base class for package-specific failures."""


class ConfigError(CollapseLabError, ValueError):
    """Invalid or inconsistent run configuration."""


class NumericalError(CollapseLabError):
    """A numerical precondition or adequacy bound was violated."""


class GridAdequacyError(NumericalError):
    """The grid cannot support the requested localization width or state."""


class StepConditionError(NumericalError):
    """Integrator step too large for the requested dynamics."""


class ZeroNormError(NumericalError):
    """An operation produced a state of (numerically) zero norm."""


class WorkerLostError(CollapseLabError):
    """A pool worker died before it returned its task (killed, as for memory)."""


class InvariantViolationError(CollapseLabError):
    """An internal consistency check failed; indicates a bug."""
