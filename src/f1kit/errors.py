"""Exception hierarchy and the one desk-scale guard.

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


def guard(name: str, what: str, estimate: int, cap: int, error: type = OutOfScale) -> None:
    """Refuse work before it starts: raise error when estimate > cap x scale.

    Every scale guard in the package comes through here.  estimate counts
    something that grows in proportion to the work, spelled out by what;
    cap is the guard's default, its own unit of work.  F1KIT_MAX_SCALE,
    a positive integer or fraction (2, 1/100, 0.5) read exactly, scales
    every cap by the same factor; unset, it is 1.  Estimates are integers,
    so comparing with the floor of cap x scale gives the same answer.
    """
    raw = os.environ.get(_SCALE_ENV)
    limit = cap
    if raw is not None:
        from fractions import Fraction
        try:
            scale = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            scale = 0
        if scale <= 0:
            raise OutOfScale(f"{_SCALE_ENV} must be a positive integer or fraction, got {raw!r}")
        limit = int(cap * scale)
    if estimate > limit:
        raise error(f"{name} guard: {what} = {estimate} exceeds cap {limit} "
                    f"(scale caps with {_SCALE_ENV})")
