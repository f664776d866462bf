"""Typed errors. Messages name the violated contract so the CLI can map them
to exit codes (parse errors vs precondition violations vs tolerance failures)."""


class InterspecError(Exception):
    """Base class for all library errors."""


class SpecParseError(InterspecError):
    """A JSON spec file, expression string or CLI literal failed to parse."""


class BasisMismatchError(InterspecError):
    """Vectors/operators/spaces with different basis tags were combined."""


class FamilySpecError(SpecParseError):
    """A scale-family description violates its invariants."""


class SymbolGrowthError(InterspecError):
    """A diagonal symbol grows faster than any polynomial."""


class UnsupportedSymbolError(InterspecError):
    """A multiplication symbol is outside the supported class."""


class NotCertifiedError(InterspecError):
    """Operation requires a certified continuous extension on the given pair."""


class CertificateBoundError(InterspecError):
    """A section norm exceeded the bound its continuity certificate promises."""


class NotRegularError(InterspecError):
    """Defect numbers are defined only at regular points."""


class NotInResolventError(InterspecError):
    """lambda is not in the per-pair resolvent set; carries the point report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SolveToleranceError(InterspecError):
    """A resolvent solve could not meet its residual contract within n_max."""


class NeumannRadiusError(InterspecError):
    """Requested point lies outside the certified Neumann disk."""


class EigenvalueCollisionError(InterspecError):
    """lambda is an eigenvalue of the requested extension."""


class NoBoundStateError(InterspecError):
    """Bound-state estimate requested for a coupling without a bound state."""


class ProductUndefinedError(InterspecError):
    """No admissible interspace triple exists: the partial product is undefined."""
