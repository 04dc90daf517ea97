"""Integer QUBO cost functions: representation, evaluation, and exact minima.

Variables are 0-indexed integers in [0, n) throughout the Python API.
The JSON interchange format uses 1-based indices (see :func:`qubo_from_dict`).

Bit configurations are read in two orders.  Here, and in the solver's
independent-set masks, an index is LSB-first: bit k gives variable or atom
k.  :func:`check_assignment` reads a variable assignment or a configuration
to decode, and ``_assignment_from_index`` converts such an index to bits.
The simulator's state index and measured bitstrings are MSB-first, atom k
being bit n-1-k, so the bitstring reads in atom order: ``sim._bitstrings``
formats them and ``sim.StateDistribution`` parses them itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import CapExceeded, InputError, require_int

Assignment = tuple[int, ...]
"""One bit per variable, index position = variable index."""

INT64_MAX = 2**63 - 1
DEFAULT_BRUTE_FORCE_CAP = 24

# Chunk size for vectorised enumeration: n int64 bit planes of this length
# stay near ten MB at n = 24.
ENUM_CHUNK = 1 << 16


def _coerce_coefficient(value: object, where: str) -> int:
    out = require_int(value, where)
    if abs(out) > INT64_MAX:
        raise CapExceeded(f"{where}: coefficient {out} exceeds the 64-bit range")
    return out


def _coerce_index(value: object, n: int, where: str) -> int:
    value = require_int(value, f"{where}: variable index")
    if not 0 <= value < n:
        raise InputError(f"{where}: variable index {value} out of range [0, {n})")
    return value


@dataclass
class QuboInstance:
    """Sparse integer quadratic cost function over binary variables.

    Represents  f(x) = sum_i linear[i] * x_i + sum_{i<j} quadratic[i,j] * x_i * x_j
    with x_i in {0, 1}.  Coefficients are 64-bit-bounded integers; exceeding
    that range is a hard error rather than wraparound.  Zero coefficients are
    dropped so two instances describing the same polynomial compare equal.

    Instances are immutable by convention and safe to share across threads.
    """

    n: int
    linear: dict[int, int] = field(default_factory=dict)
    quadratic: dict[tuple[int, int], int] = field(default_factory=dict)
    scale: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        self.n = require_int(self.n, "variable count", 1)
        lin: dict[int, int] = {}
        for i, c in dict(self.linear).items():
            i = _coerce_index(i, self.n, "linear")
            c = _coerce_coefficient(c, f"linear[{i}]")
            if c != 0:
                lin[i] = c
        quad: dict[tuple[int, int], int] = {}
        for key, c in dict(self.quadratic).items():
            try:
                i, j = key
            except (TypeError, ValueError) as exc:
                raise InputError(f"quadratic key {key!r} is not a pair") from exc
            i = _coerce_index(i, self.n, "quadratic")
            j = _coerce_index(j, self.n, "quadratic")
            if not i < j:
                raise InputError(f"quadratic key ({i}, {j}) must satisfy i < j")
            c = _coerce_coefficient(c, f"quadratic[{i},{j}]")
            if c != 0:
                quad[(i, j)] = c
        self.linear = lin
        self.quadratic = quad
        scale = Fraction(self.scale)
        if scale <= 0:
            raise InputError(f"scale must be positive, got {scale}")
        self.scale = scale

    def abs_coefficient_sum(self) -> int:
        """Upper bound on |f(x)|; also drives enumeration overflow checks."""
        return sum(abs(c) for c in self.linear.values()) + sum(
            abs(c) for c in self.quadratic.values()
        )

    def __repr__(self) -> str:
        return (
            f"QuboInstance(n={self.n}, linear_terms={len(self.linear)}, "
            f"quadratic_terms={len(self.quadratic)})"
        )


def check_assignment(n: int, assignment: Sequence[int] | str) -> Assignment:
    """Canonical bits of a configuration of ``n`` variables or atoms.

    A string must be exactly n characters from "01"; any other iterable
    must hold n entries equal to 0 or 1 that are not strings, so bools,
    numpy integers and ``1.0`` pass.  Anything else raises InputError.
    """
    if isinstance(assignment, str):
        # strip leaves a character other than 0 or 1 in place.
        if len(assignment) == n and not assignment.strip("01"):
            return tuple(1 if ch == "1" else 0 for ch in assignment)
    else:
        try:
            bits = tuple(assignment)
            if len(bits) == n and all(b in (0, 1) for b in bits):
                return tuple(1 if b else 0 for b in bits)
        except (TypeError, ValueError):
            pass
    raise InputError(f"expected {n} bits of 0/1, got {assignment!r}")


def evaluate(q: QuboInstance, assignment: Sequence[int] | str) -> int:
    """Exact integer cost of ``assignment`` under ``q``.

    Python integers widen as needed, so no intermediate overflow is possible.
    """
    bits = check_assignment(q.n, assignment)
    total = 0
    for i, c in q.linear.items():
        total += c * bits[i]
    for (i, j), c in q.quadratic.items():
        total += c * bits[i] * bits[j]
    return total


def normalize_to_integers(
    linear: Mapping[int, Fraction | int],
    quadratic: Mapping[tuple[int, int], Fraction | int],
) -> QuboInstance:
    """Scale rational coefficients by the LCM of their denominators.

    Scaling by a positive factor leaves the argmin set unchanged, so the
    returned integer instance has the same minimisers as the rational input.
    The factor is recorded in ``scale``.  Coefficients are integers (numpy's
    too), ``Fraction`` or ``Decimal``; bools and strings are refused, and so
    are floats: callers decide how to rationalise measured values.
    """

    def to_fraction(value: object, where: str) -> Fraction:
        if isinstance(value, (float, np.floating)):
            raise InputError(
                f"{where}: float {value!r} rejected; convert to Fraction explicitly"
            )
        try:
            # Fraction also reads a bool as an int and a string such as "1/3".
            if not isinstance(value, (str, bool)):
                return Fraction(value)
        except (TypeError, ValueError, OverflowError):
            pass
        raise InputError(f"{where}: not a rational number: {value!r}")

    lin = {i: to_fraction(c, f"linear[{i}]") for i, c in linear.items()}
    quad = {k: to_fraction(c, f"quadratic[{k}]") for k, c in quadratic.items()}
    lin = {i: c for i, c in lin.items() if c != 0}
    quad = {k: c for k, c in quad.items() if c != 0}
    if not lin and not quad:
        raise InputError("empty instance: no nonzero coefficients given")

    indices = set(lin)
    for key in quad:
        try:
            i, j = key
        except (TypeError, ValueError) as exc:
            raise InputError(f"quadratic key {key!r} is not a pair") from exc
        indices.update((i, j))
    n = max(require_int(i, "variable index", 0) for i in indices) + 1

    scale = math.lcm(*(c.denominator for c in (*lin.values(), *quad.values())))
    scaled_lin = {i: c * scale for i, c in lin.items()}
    scaled_quad = {k: c * scale for k, c in quad.items()}
    for where, c in (*scaled_lin.items(), *scaled_quad.items()):
        if abs(c) > INT64_MAX:
            raise CapExceeded(
                f"coefficient {c} for {where!r} exceeds the 64-bit range after scaling by {scale}"
            )
    return QuboInstance(
        n=n,
        linear={i: int(c) for i, c in scaled_lin.items()},
        quadratic={k: int(c) for k, c in scaled_quad.items()},
        scale=Fraction(scale),
    )


def _assignment_from_index(index: int, n: int) -> Assignment:
    return tuple((index >> i) & 1 for i in range(n))


def brute_force_minima(
    q: QuboInstance, cap: int = DEFAULT_BRUTE_FORCE_CAP
) -> tuple[int, tuple[Assignment, ...]]:
    """Exhaustively enumerate all 2**n assignments.

    Returns the minimum cost and every assignment attaining it, sorted
    lexicographically.  This is the independent oracle the rest of the
    package is checked against, so it stays deliberately simple: one
    vectorised loop over chunks of assignment indices, exact at any
    coefficient size.
    """
    if q.n > require_int(cap, "cap", 0):
        raise CapExceeded(f"brute force requested for n={q.n} above cap {cap}")
    total = 1 << q.n
    # int64 sums are exact while abs_coefficient_sum() <= 2**62; past that an
    # object array adds each term (c * bit fits int64) as a Python integer.
    dtype = np.int64 if q.abs_coefficient_sum() <= 2**62 else object
    shifts = np.arange(q.n, dtype=np.int64)[:, None]
    best: int | None = None
    argmin_indices: list[int] = []
    for lo in range(0, total, ENUM_CHUNK):
        hi = min(lo + ENUM_CHUNK, total)
        # Row k holds bit k of every index in [lo, hi).
        bits = np.arange(lo, hi, dtype=np.int64) >> shifts & 1
        vals = np.zeros(hi - lo, dtype=dtype)
        for i, c in q.linear.items():
            vals += c * bits[i]
        for (i, j), c in q.quadratic.items():
            vals += c * (bits[i] * bits[j])
        chunk_min = int(vals.min())
        if best is None or chunk_min < best:
            best = chunk_min
            argmin_indices = []
        if chunk_min == best:
            argmin_indices.extend(int(k) + lo for k in np.nonzero(vals == chunk_min)[0])
    assert best is not None
    assignments = sorted(_assignment_from_index(k, q.n) for k in argmin_indices)
    return best, tuple(assignments)


def qubo_to_dict(q: QuboInstance) -> dict:
    """JSON-ready form. Variable indices are 1-based in this format.

    A ``scale`` other than 1 is written as a fraction string, "12" or "3/2".
    """
    doc = {
        "n": q.n,
        "linear": {str(i + 1): c for i, c in sorted(q.linear.items())},
        "quadratic": [
            {"i": i + 1, "j": j + 1, "w": w} for (i, j), w in sorted(q.quadratic.items())
        ],
    }
    if q.scale != 1:
        doc["scale"] = str(q.scale)
    return doc


def qubo_from_dict(data: Mapping) -> QuboInstance:
    """Parse the JSON interchange form; enforces 1-based indices and i < j."""
    if not isinstance(data, Mapping):
        raise InputError(f"QUBO document must be an object, got {type(data).__name__}")
    unknown = set(data) - {"n", "linear", "quadratic", "scale"}
    if unknown:
        raise InputError(f"unknown QUBO fields: {sorted(unknown)}")
    if "n" not in data:
        raise InputError("QUBO document missing field 'n'")
    n = require_int(data["n"], "'n'", 1)

    raw_linear = data.get("linear", {})
    if not isinstance(raw_linear, Mapping):
        raise InputError("'linear' must be an object mapping indices to coefficients")
    linear: dict[int, int] = {}
    for key, value in raw_linear.items():
        try:
            i = int(key)
        except (TypeError, ValueError) as exc:
            raise InputError(f"linear key {key!r} is not an integer") from exc
        # One spelling per variable: "01", "+1", " 1 " and "1_0" would alias.
        if key != str(i):
            raise InputError(f"linear key {key!r} is not a plain decimal integer")
        if not 1 <= i <= n:
            raise InputError(f"linear index {i} out of range [1, {n}]")
        linear[i - 1] = value

    quadratic: dict[tuple[int, int], int] = {}
    entries = data.get("quadratic", [])
    if not isinstance(entries, (list, tuple)):
        raise InputError("'quadratic' must be a list of {i, j, w} objects")
    for entry in entries:
        if not isinstance(entry, Mapping) or set(entry) != {"i", "j", "w"}:
            raise InputError(f"malformed quadratic entry: {entry!r}")
        i, j = require_int(entry["i"], "quadratic index"), require_int(entry["j"], "quadratic index")
        if not 1 <= i < j <= n:
            raise InputError(f"quadratic entry ({i}, {j}) needs 1 <= i < j <= {n}")
        if (i - 1, j - 1) in quadratic:
            raise InputError(f"duplicate quadratic entry for ({i}, {j})")
        quadratic[(i - 1, j - 1)] = entry["w"]

    raw_scale = data.get("scale", "1")
    try:
        scale = Fraction(raw_scale) if isinstance(raw_scale, str) else None
    except (ValueError, ZeroDivisionError):
        scale = None
    if scale is None:
        raise InputError(f"'scale' must be a fraction string such as \"12\" or \"3/2\", got {raw_scale!r}")
    return QuboInstance(n=n, linear=linear, quadratic=quadratic, scale=scale)
