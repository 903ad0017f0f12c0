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


def named(name: str, value) -> str:
    """`name=value` for a message.  An int wider than 64 bits (str() stops at 4300
    digits) shows as its width, and a value whose repr raises as its type."""
    wide = isinstance(value, int) and value.bit_length() > 64
    try:
        shown = f"<{value.bit_length()}-bit int>" if wide else repr(value)
    except Exception:
        shown = f"<{type(value).__name__}>"
    return f"{name}={shown}"


def check_int(name: str, value, low: int = None, error: type = ValueError,
              high: int = None) -> None:
    """The integer-argument rule: `value` must be a Python int, not a bool (nor a
    numpy integer or a float), and in [`low`, `high`] where given; else `error`
    names `name` and the bound.  Entry points check it before any side effect."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{named(name, value)} must be an int")
    if low is not None and value < low:
        raise error(f"{named(name, value)} must be an int >= {low}")
    if high is not None and value > high:
        # a mask's bound runs to thousands of digits: write it 2^k - 1
        bound = f"2^{high.bit_length()} - 1" if high >> 64 and not high & (high + 1) else high
        raise error(f"{named(name, value)} must be an int <= {bound}")
