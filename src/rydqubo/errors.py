"""Shared exception types and the integer and finite-real rules of every input check.

Numpy integers pass as Python ints; bools, ``np.bool_`` included, never pass.
"""

import math
import numbers
import operator
from dataclasses import fields


class RydquboError(Exception):
    """Base class for every error raised by this package."""


class InputError(RydquboError):
    """Malformed, inconsistent, or out-of-range input data."""


class GraphError(InputError):
    """An atom graph violates one of its structural invariants."""


class CapExceeded(RydquboError):
    """A resource guard was hit (enumeration size, coefficient range, atom budget)."""


class SimulationError(RydquboError):
    """State-vector propagation failed an accuracy guard."""


class EmptySelection(RydquboError):
    """Post-selection removed every measurement outcome."""


def require_int(value, what: str, least: int | None = None, error: type = InputError) -> int:
    """``value`` as a Python int, raising ``error`` unless it is an integer >= ``least``."""
    # A plain int skips the type test: compile checks every edge endpoint.  The
    # Integral test precedes __index__, which numpy < 2 gives np.bool_ with a warning.
    ok = type(value) is int
    if not ok and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value, ok = operator.index(value), True
    if not ok or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{what} must be an integer{bound}, got {value!r}")
    return value


def is_real_type(kind: type) -> bool:
    """Whether values of type ``kind`` are real numbers; bools are not."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def require_real(value, what: str, least: float | None = None) -> float:
    """``value`` as a float, raising InputError unless it is a finite real >= ``least``."""
    try:
        out = float(value) if is_real_type(type(value)) else math.nan
    except OverflowError:
        out = math.inf
    if not math.isfinite(out) or (least is not None and out < least):
        bound = "" if least is None else f" >= {least}"
        raise InputError(f"{what} must be a finite real number{bound}, got {value!r}")
    return out


def require_finite(record) -> None:
    """Store every field of a frozen numeric dataclass as a finite float, or raise InputError."""
    for item in fields(record):
        object.__setattr__(record, item.name, require_real(getattr(record, item.name), item.name))
