"""Exception types shared across the package."""


class CuspnormError(Exception):
    """Base class for all domain errors raised by this package."""


class Inconsistent(CuspnormError):
    """A system of congruences has no common solution."""


class NotUnimodular(CuspnormError):
    """A matrix required to lie in SL2(Z) does not."""


class InvalidPrimeSet(CuspnormError):
    """A prime set contains a prime not dividing the level."""


class InternalSolveFailure(CuspnormError):
    """A solve or decision that theory guarantees failed its exact check.

    Surfacing this instead of silently retrying is a correctness tripwire.
    """


class InvalidM(CuspnormError):
    """M**2 does not divide N (or M does not divide N where required)."""


class BudgetExceeded(CuspnormError):
    """An enumeration window exceeded its configured size cap."""


class PrereqFailed(CuspnormError):
    """A precondition on the inputs of a check was not met."""


class ConfigError(CuspnormError):
    """Malformed sweep or harness configuration."""


class InfeasibleConstraints(CuspnormError):
    """A constraint polytope is empty."""


class UnboundedPolytope(CuspnormError):
    """A constraint polytope is unbounded, so maxima need not exist."""


class OutOfRange(CuspnormError):
    """A numeric argument lies outside the supported range."""
