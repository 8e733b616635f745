"""Exception types shared across the library."""


class AlgebroidError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(AlgebroidError):
    """Inversion of the zero element of a field."""


class SolverLimitation(AlgebroidError):
    """An exact computation is out of the supported range (for instance
    factoring a polynomial with non-rational coefficients over an
    extension of Q, or a nested field tower).  Raised instead of returning
    unverified output."""


class UnitIdeal(AlgebroidError):
    """The ideal contains a unit where a proper ideal is required."""


class ZeroPoly(AlgebroidError):
    """A nonzero polynomial argument is required."""


class NotPrimitive(AlgebroidError):
    """The weight entries have gcd bigger than one."""


class TruncationExhausted(AlgebroidError):
    """A truncated computation hit its precision cap before a decision,
    or no pivot has a free basis: every coordinate hyperplane meets the
    curve away from the origin."""


class InfinitePivot(AlgebroidError):
    """Every coordinate has infinite intersection number, so no pivot
    has a free basis."""


class UnequalBase(AlgebroidError):
    """The two polynomials compared parametrically have different
    intersection numbers, so the comparison is ill-posed."""


class ContextViolation(AlgebroidError):
    """The parametric test hit its unguarded case: the unique exceptional
    value gives infinite intersection number yet the combination lies in the
    radical, which cannot happen in the decision loop's calling context."""


class WrongDimension(AlgebroidError):
    """The input ideal does not define a curve (dimension is not one)."""


class InfiniteWeight(AlgebroidError):
    """Some coordinate has infinite intersection number after
    normalization: it vanishes on some but not all branches, a reducible
    case that no certificate kind covers yet."""


class NotPrime(AlgebroidError):
    """The ideal claimed prime by the caller demonstrably is not."""


class NonRadicalSuspected(AlgebroidError):
    """The input failed a check that every radical input passes, or a
    loop that ends on radical inputs hit its cap."""


class CertificateSearchFailed(AlgebroidError):
    """Reducibility was established but no checkable certificate of the
    supported kinds could be constructed."""


class ParseError(AlgebroidError):
    """Malformed polynomial text or ideal file."""
