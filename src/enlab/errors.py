"""Exception types shared across the package."""

from __future__ import annotations


class EnlabError(Exception):
    """Base class for all errors raised by this package."""


class InvariantError(EnlabError):
    """A validated object violates one of its structural invariants; the
    subclass names the invariant."""


class NonRefiningFiltration(InvariantError):
    pass


class ProbabilityNotOne(InvariantError):
    pass


class ZeroProbabilityOutcome(InvariantError):
    pass


class NotAdapted(InvariantError):
    pass


class SchemaError(EnlabError):
    """Malformed model file. ``field`` points at the offending entry."""

    def __init__(self, message: str, field: str = ""):
        self.field = field
        super().__init__(f"{message} (field: {field})" if field else message)


class UsageError(EnlabError):
    """A run setting from outside the program is malformed; the command
    line exits with status 2.  ``field`` names the offending parameter."""

    def __init__(self, message: str, field: str = ""):
        self.field = field
        super().__init__(message)


class DimensionTooLarge(EnlabError):
    pass


class NotHonest(EnlabError):
    pass


class NotClassH(EnlabError):
    pass


class DivisionGuard(EnlabError):
    """A division by (1 - survival) was attempted where the guard fired.

    The theory predicts this never happens strictly after the random time
    on a full-support space; a raised guard therefore signals a genuine
    defect somewhere upstream, never a tolerable edge case.
    """


class InternalCheckFailed(EnlabError):
    """A hard identity asserted by the engine failed.

    These identities are exact theorems of the finite model; failure means
    a bug, not bad data.
    """


class GenerationExhausted(EnlabError):
    pass


class InvalidWitness(EnlabError):
    pass


class InvalidDrift(EnlabError):
    pass
