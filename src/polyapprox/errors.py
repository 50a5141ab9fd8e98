"""Exception hierarchy shared by all modules."""


class PolyApproxError(Exception):
    """Base class for all package errors."""


class InvalidDescriptor(PolyApproxError):
    """A number descriptor fails its construction invariants."""


class PrecisionExhausted(PolyApproxError):
    """The precision cap was reached before a certified decision."""


class BudgetExceeded(PolyApproxError):
    """An enumeration limit was exceeded."""


class BracketFailure(PolyApproxError):
    """A root bracket could not be established or maintained."""


class DependentInput(PolyApproxError):
    """An input family required to be linearly independent is not."""


class EmptyWindow(PolyApproxError):
    """A record window required to be nonempty is empty."""


class IndexOutOfRange(PolyApproxError, IndexError):
    """A record index lies outside the computed sequence."""


class OddN(PolyApproxError):
    """The block matrix construction requires even n."""


class NoCertifiedSamples(PolyApproxError):
    """A graph statistic was requested but no sample is certified."""
