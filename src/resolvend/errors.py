"""Exception hierarchy.

Everything raised on purpose by this library derives from ResolvendError,
so callers (and the CLI) can separate usage errors from genuine failures.
"""


class ResolvendError(Exception):
    """Base class for all library errors."""


class InvalidGroupError(ResolvendError):
    """Group constructor rejected the invariant factors."""


class InvalidElementError(ResolvendError):
    """Element coordinates malformed for the group at hand."""


class ConductorError(ResolvendError):
    """Requested root order does not divide the session conductor."""


class InvalidAutomorphismError(ResolvendError):
    """Galois exponent not coprime to the conductor."""


class NotARootError(ResolvendError):
    """Discrete logarithm requested for a value outside the root group."""


class ParityError(ResolvendError):
    """Different valuation is odd, so no square-root valuation exists."""


class NotInvertibleError(ResolvendError):
    """Inverse requested for a value with no representable inverse."""


class SingularResolvendError(ResolvendError):
    """A resolvent vanishes, so the resolvend is not invertible."""


class FractionalPowerError(ResolvendError):
    """Fractional power not representable in the coefficient algebra."""


class NotGaloisOrbitError(ResolvendError):
    """No group element realizes the requested coefficient automorphism."""


class TamenessError(ResolvendError):
    """Ramification degree incompatible with the residue field."""


class NotAGeneratorError(ResolvendError):
    """Map failed the generator certificate, so no decomposition exists."""


class PreconditionError(ResolvendError):
    """Numeric precondition of an operation failed."""


class SearchFailureError(ResolvendError):
    """Bounded search exhausted without a certified witness."""
