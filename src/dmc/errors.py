"""Exception types shared across the package."""


class DmcError(Exception):
    """Base class for all package errors."""


class BadInput(DmcError, ValueError):
    """Malformed space or functional input (lengths, labels, mismatched spaces)."""


class EmptySupport(DmcError):
    pass


class UnnormalizedPmf(DmcError):
    pass


class ExactModeOverflow(DmcError):
    pass


class IndexOutOfRange(DmcError):
    pass


class NotCentered(DmcError):
    pass


class NegativeTime(DmcError):
    pass


class NonPositiveFunctional(DmcError):
    pass


class NotIID(DmcError):
    pass


class ArityError(DmcError):
    pass


class DegenerateVariance(DmcError):
    pass


class BadKernel(DmcError):
    pass


class BadParameters(DmcError):
    pass


class EnumOverflow(DmcError):
    pass


class TooFewSamples(DmcError):
    pass


class BadDensity(DmcError):
    pass


class TruncationFailure(DmcError):
    pass
