"""Shared exception types and the finite-value guard."""

import math
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


def require_finite(record) -> None:
    """Raise InputError naming the first field of a numeric dataclass that is NaN or infinite."""
    for item in fields(record):
        value = getattr(record, item.name)
        if not math.isfinite(value):
            raise InputError(f"{item.name} must be finite, got {value}")
