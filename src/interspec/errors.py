"""Typed errors. Messages name the violated contract so the CLI can map them
to exit codes (parse errors vs precondition violations vs tolerance failures)."""

import reprlib


class InterspecError(Exception):
    """Base class for all library errors."""


class SpecParseError(InterspecError):
    """A JSON spec file, expression string or CLI literal failed to parse."""


_JSON_NAMES = {dict: "object", list: "array", str: "string", bool: "boolean", int: "integer",
               float: "number"}


def json_typed(value, kind: type, what: str):
    """``value`` when its JSON type is ``kind``, one of dict, list, str, bool,
    int and float (which an int also passes; a bool is no number), else a
    `SpecParseError` that names ``what``."""
    if isinstance(value, bool) != (kind is bool) or \
            not isinstance(value, (int, float) if kind is float else kind):
        raise SpecParseError(f"{what} {reprlib.repr(value)} is not a JSON {_JSON_NAMES[kind]}")
    return value


class PreconditionError(InterspecError):
    """A call's precondition does not hold; the message names the contract."""


class BasisMismatchError(InterspecError):
    """Vectors/operators/spaces with different basis tags were combined."""


class FamilySpecError(SpecParseError):
    """A scale-family description violates its invariants."""


class SymbolGrowthError(InterspecError):
    """A diagonal symbol grows faster than any polynomial."""


class UnsupportedSymbolError(InterspecError):
    """A multiplication symbol is outside the supported class."""


class NotCertifiedError(PreconditionError):
    """Operation requires a certified continuous extension on the given pair."""


class CertificateBoundError(InterspecError):
    """A section norm exceeded the bound its continuity certificate promises."""


class NotRegularError(PreconditionError):
    """Defect numbers are defined only at regular points."""


class NotInResolventError(PreconditionError):
    """lambda is not in the per-pair resolvent set; carries the point report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SolveToleranceError(InterspecError):
    """A resolvent solve could not meet its residual contract within n_max."""


class NeumannRadiusError(PreconditionError):
    """Requested point lies outside the certified Neumann disk."""


class EigenvalueCollisionError(PreconditionError):
    """lambda is an eigenvalue of the requested extension."""


class NoBoundStateError(PreconditionError):
    """Bound-state estimate requested for a coupling without a bound state."""


class ProductUndefinedError(PreconditionError):
    """No admissible interspace triple exists: the partial product is undefined."""
