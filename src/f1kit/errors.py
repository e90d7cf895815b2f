"""Exception hierarchy and the desk-scale guard.

Every failure mode that a caller can provoke with bad or oversized input
has its own class so tests can assert on the exact condition.  All of them
derive from F1KitError.
"""

import os


class F1KitError(Exception):
    """Base class for all errors raised by this package."""


class TooManyGenerators(F1KitError):
    """Face enumeration refused: 2^generators exceeds the documented cap."""


class MembershipUndecidedWithinBound(F1KitError):
    """Monoid membership search exhausted its coefficient bound.

    The package no longer raises it: membership is always decided.  The
    class stays so that code which catches it keeps importing.
    """


class MixedTorsionSmash(F1KitError):
    """Smash of an affine monoid with a group that has torsion units."""


class InfiniteHomSet(F1KitError):
    """Requested an exact count of a hom set that is not finite."""


class OutOfScale(F1KitError):
    """Input exceeds the documented desk scale for the operation."""


class NotPrime(F1KitError):
    """Brute-force counting requires a prime field size."""


class ZeroPolynomial(F1KitError):
    """Vanishing order of the zero polynomial is undefined."""


class NonDivisible(F1KitError):
    """Exact polynomial division left a remainder."""


class ShapeMismatch(F1KitError):
    """Matrix or sign-vector shapes incompatible with the stated ranks."""


class InvalidComposition(F1KitError):
    """Parts do not sum to the ambient size or are not positive."""


class CocycleInvalid(F1KitError):
    """Sign table violates normalization or the 2-cocycle identity."""


class ThetaNotHomomorphism(F1KitError):
    """Component representation fails matrix(v)*matrix(w) = matrix(vw)."""


class AxiomsFailed(F1KitError):
    """A group-object diagram check failed where a passing model is required."""


class NotASubgroup(F1KitError):
    """Claimed subgroup components are not closed inside the ambient model."""


class TypeNotMaximal(F1KitError):
    """Quotient construction needs a two-part composition (k, n-k)."""


class SelectorError(F1KitError):
    """Model selector string or model file could not be parsed."""


_SCALE_ENV = "F1KIT_MAX_SCALE"


def scale_cap(default: int) -> int:
    """Return the desk-scale cap for an operation.

    The default is the documented cap; the F1KIT_MAX_SCALE environment
    variable, when set to a positive integer, overrides it (both ways:
    raising it for bigger experiments, lowering it for stress tests).
    """
    raw = os.environ.get(_SCALE_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise OutOfScale(f"{_SCALE_ENV} must be an integer, got {raw!r}")
    if value <= 0:
        raise OutOfScale(f"{_SCALE_ENV} must be positive, got {value}")
    return value
