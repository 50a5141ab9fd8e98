"""Exception hierarchy shared by all modules."""


class PolyApproxError(Exception):
    """Base class for all package errors."""


class InvalidDescriptor(PolyApproxError):
    """A number descriptor fails its construction invariants."""


class PrecisionExhausted(PolyApproxError):
    """The precision cap was reached before a certified decision."""

    def __init__(self, message, cap=None):
        super().__init__(message)
        self.cap = cap


class BudgetExceeded(PolyApproxError):
    """An enumeration budget was exceeded before starting the scan."""


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


class DomainWarning(UserWarning):
    """A bound was evaluated outside its stated parameter range.

    Reported, never raised: the value is still computed.
    """
