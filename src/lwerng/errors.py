"""Exception types shared across the package."""


class LwerngError(Exception):
    """Base class for all lwerng errors."""


class InvalidModulus(LwerngError):
    """Modulus fails the transform or width requirements."""


class InconsistentLayout(LwerngError):
    """A parameter-set dimension (n or eta) is not positive, n is above
    256, or 2*eta is not below q."""


class DimensionMismatch(LwerngError):
    """Matrix/vector dimensions do not agree."""


class InsufficientTrials(LwerngError):
    """Too few trials for the distinguishing experiment."""


class InsufficientBits(LwerngError):
    """Too few bits for a statistical test."""


class DegenerateState(LwerngError):
    """Register bank cannot produce output (collapsed master or all-zero state)."""


class IdenticalSeeds(LwerngError):
    """Two parties were given the same entropy input."""
