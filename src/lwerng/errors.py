"""Exception types shared across the package, and its integer-argument rule."""


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


def check_int(name: str, value, low: int = None, error: type = ValueError) -> None:
    """The integer-argument rule: `value` must be a Python int, not a bool (nor a
    numpy integer or a float), and at least `low` if given; else `error` names
    `name`.  Entry points check it before any side effect."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name}={value!r} must be an int")
    if low is not None and value < low:
        raise error(f"{name}={value!r} must be an int >= {low}")
