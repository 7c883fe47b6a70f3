"""Exception types shared across the package."""


class PscertError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PscertError):
    """Function applied outside its domain (log/division over an interval touching 0)."""


class PrecisionExhausted(PscertError):
    """The precision cap was reached before the requested width was met."""


class AmbiguousEnclosure(PscertError):
    """Interval too wide to resolve a discrete question soundly."""


class RingMismatch(PscertError):
    """Operands belong to different coefficient rings."""


class DivisionFailure(PscertError):
    """Exact division failed where the algebra guarantees it must succeed."""


class BadPrime(PscertError):
    """A prime argument violates the stated preconditions."""


class GcdNotOne(PscertError):
    """Exponent set fails the gcd = 1 normalization requirement."""


class DegreeMismatch(PscertError):
    """Non-homogeneous input where a homogeneous polynomial is required."""


class PreconditionUnverifiable(PscertError):
    """Interval enclosures are too wide to verify a bound's hypotheses."""


class VerificationFailed(PscertError):
    """An independent re-check of a computed result failed."""


class WidthUnreachable(PrecisionExhausted):
    """Root isolation could not reach the requested enclosure width."""
