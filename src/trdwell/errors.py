"""Exception types shared across the package."""


class TrdwellError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TrdwellError, ValueError):
    """An input lies outside the mathematical domain of the operation."""


class DegenerateMicrostate(TrdwellError, ValueError):
    """Coefficient triple with ab - c^2/4 <= 0, or a bilinear form that collapsed."""


class ScanNotSettled(TrdwellError, RuntimeError):
    """A grid scan did not settle within its range (the divergence-onset scan)."""


class StepUnderflow(TrdwellError, ValueError):
    """An energy step would leave (0, U); kept for callers that name it, nothing raises it."""


class OptimizationFailure(TrdwellError, RuntimeError):
    """An extremal report failed its own check: a supremum not positive or above its bound."""


class Infeasible(TrdwellError, ValueError):
    """No admissible solution exists for the requested connection."""
