"""Physical layout layer: blockade arithmetic, unit-disk checks, layout I/O.

Units follow the hardware convention throughout: lengths in micrometers,
frequencies and energies in (2 pi) MHz, times in microseconds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Mapping

from .compiler import AtomGraph, role_from_dict
from .errors import InputError, require_finite, require_int, require_real
from .qubo import qubo_from_dict

DEFAULT_C6 = 1023e3  # (2 pi) MHz um^6
DEFAULT_MIN_SPACING = 3.0  # um, below the tightest bundled pair


@dataclass(frozen=True)
class PhysicalParams:
    """Van der Waals coefficient and laser control values."""

    c6: float = DEFAULT_C6
    omega: float = 0.0
    delta: float = 5.0

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.c6 > 0:
            raise InputError(f"c6 must be positive, got {self.c6}")


def blockade_radius(params: PhysicalParams) -> float:
    """Distance below which a pair acts as an edge: (c6 / sqrt(omega^2 + delta^2))^(1/6)."""
    denom = math.hypot(params.omega, params.delta)
    if denom == 0:
        raise InputError("blockade radius undefined when omega and delta are both zero")
    return (params.c6 / denom) ** (1.0 / 6.0)


def pair_interaction(params: PhysicalParams, distance: float) -> float:
    """Van der Waals energy c6 / r^6 of one atom pair."""
    distance = require_real(distance, "pair distance")
    if not distance > 0:
        raise InputError(f"pair distance must be positive, got {distance}")
    try:
        energy = params.c6 / distance**6
    except (OverflowError, ZeroDivisionError):  # r^6 beyond the float range, or below it
        energy = math.inf
    if not math.isfinite(energy):
        raise InputError(f"pair distance {distance} um is out of range: c6 / r^6 is not a finite float")
    return energy


@dataclass
class Layout:
    """2D coordinates in micrometers, keyed by atom id."""

    positions: dict[int, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned: dict[int, tuple[float, float]] = {}
        for atom, pos in dict(self.positions).items():
            atom = require_int(atom, "atom id")
            try:
                x, y = pos
            except (TypeError, ValueError) as exc:
                raise InputError(f"position of atom {atom} is not an (x, y) pair") from exc
            cleaned[atom] = (require_real(x, f"x of atom {atom}"), require_real(y, f"y of atom {atom}"))
        self.positions = cleaned

    def distance(self, a: int, b: int) -> float:
        xa, ya = self.positions[a]
        xb, yb = self.positions[b]
        return math.hypot(xa - xb, ya - yb)

    def check_atoms(self, n: int) -> None:
        """Raise InputError unless the layout places exactly atoms 0..n-1."""
        missing = [a for a in range(n) if a not in self.positions]
        if missing:
            raise InputError(f"layout is missing atoms {missing}")
        extra = sorted(a for a in self.positions if not 0 <= a < n)
        if extra:
            raise InputError(f"layout places atoms {extra} that the graph does not have")


def _place(positions: dict, atom, x: float, y: float) -> None:
    """Add one atom to ``positions``, refusing an id placed twice."""
    if atom in positions:
        raise InputError(f"layout places atom {atom!r} twice")
    positions[atom] = (x, y)


def layout_from_dict(data: Mapping) -> Layout:
    positions: dict = {}
    try:
        for e in data["positions"]:
            _place(positions, e["id"], e["x"], e["y"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed layout document: {exc}") from exc
    return Layout(positions)


def layout_from_csv(text: str) -> Layout:
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows or rows[0].replace(" ", "") != "id,x,y":
        raise InputError("layout CSV must start with header 'id,x,y'")
    positions: dict = {}
    for row in rows[1:]:
        parts = row.split(",")
        if len(parts) != 3:
            raise InputError(f"malformed layout CSV row: {row!r}")
        try:
            atom, x, y = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise InputError(f"malformed layout CSV row: {row!r}") from exc
        _place(positions, atom, x, y)
    return Layout(positions)


# ----------------------------------------------------------------------
# Unit-disk validation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Distance audit of a layout against its graph.

    Edges must sit at distance <= d_r exactly; non-edges must clear
    d_r * (1 + margin).  Violation lists are sorted worst first.
    """

    ok: bool
    d_r: float
    margin: float
    min_spacing: float
    max_edge_distance: float | None
    min_nonedge_distance: float | None
    min_pair_distance: float | None
    edge_violations: tuple[tuple[int, int, float], ...]
    nonedge_violations: tuple[tuple[int, int, float], ...]
    spacing_violations: tuple[tuple[int, int, float], ...]

    @property
    def min_edge_slack(self) -> float | None:
        if self.max_edge_distance is None:
            return None
        return self.d_r - self.max_edge_distance

    @property
    def min_nonedge_slack(self) -> float | None:
        if self.min_nonedge_distance is None:
            return None
        return self.min_nonedge_distance - self.d_r * (1.0 + self.margin)

    def to_dict(self) -> dict:
        return {
            "pass": self.ok,
            "d_r_um": self.d_r,
            "margin": self.margin,
            "min_spacing_um": self.min_spacing,
            "max_edge_distance_um": self.max_edge_distance,
            "min_nonedge_distance_um": self.min_nonedge_distance,
            "min_pair_distance_um": self.min_pair_distance,
            "min_edge_slack_um": self.min_edge_slack,
            "min_nonedge_slack_um": self.min_nonedge_slack,
            "edge_violations": [list(v) for v in self.edge_violations],
            "nonedge_violations": [list(v) for v in self.nonedge_violations],
            "spacing_violations": [list(v) for v in self.spacing_violations],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def validate_unit_disk(
    graph: AtomGraph,
    layout: Layout,
    params: PhysicalParams | None = None,
    margin: float = 0.0,
    d_r: float | None = None,
) -> ValidationReport:
    """Check that coordinates realise exactly the graph's edge set.

    ``d_r`` defaults to the blockade radius of ``params``.  ``margin``
    widens only the non-edge requirement; declared edges are held to the
    radius itself, with remaining slack reported.  Atoms closer than
    ``DEFAULT_MIN_SPACING`` are spacing violations.
    """
    params = params or PhysicalParams()
    radius = blockade_radius(params) if d_r is None else require_real(d_r, "d_r")
    if not radius > 0:
        raise InputError(f"d_r must be positive, got {radius}")
    margin = require_real(margin, "margin", 0)
    layout.check_atoms(graph.atom_count)

    edge_violations = []
    nonedge_violations = []
    spacing_violations = []
    max_edge = None
    min_nonedge = None
    min_pair = None
    for a in range(graph.atom_count):
        for b in range(a + 1, graph.atom_count):
            d = layout.distance(a, b)
            min_pair = d if min_pair is None else min(min_pair, d)
            if d < DEFAULT_MIN_SPACING:
                spacing_violations.append((a, b, d))
            if (a, b) in graph.edges:
                max_edge = d if max_edge is None else max(max_edge, d)
                if d > radius:
                    edge_violations.append((a, b, d))
            else:
                min_nonedge = d if min_nonedge is None else min(min_nonedge, d)
                if d <= radius * (1.0 + margin):
                    nonedge_violations.append((a, b, d))

    edge_violations.sort(key=lambda v: -v[2])
    nonedge_violations.sort(key=lambda v: v[2])
    spacing_violations.sort(key=lambda v: v[2])
    ok = not edge_violations and not nonedge_violations and not spacing_violations
    return ValidationReport(
        ok=ok,
        d_r=radius,
        margin=margin,
        min_spacing=DEFAULT_MIN_SPACING,
        max_edge_distance=max_edge,
        min_nonedge_distance=min_nonedge,
        min_pair_distance=min_pair,
        edge_violations=tuple(edge_violations),
        nonedge_violations=tuple(nonedge_violations),
        spacing_violations=tuple(spacing_violations),
    )


# ----------------------------------------------------------------------
# Bundled layouts
# ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def _dataset() -> dict:
    text = resources.files("rydqubo").joinpath("data/layouts.json").read_text("utf-8")
    return json.loads(text)


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_dataset()["graphs"]))


def _canonical_name(name: str) -> str:
    cleaned = name.strip().upper().replace("′", "P").replace("'", "P")
    candidates = {cleaned, cleaned.replace("_", ""), cleaned.replace(" ", "")}
    for key in _dataset()["graphs"]:
        normalized = key.upper()
        if normalized in candidates or normalized.replace("_", "") in candidates:
            return key
    raise InputError(f"unknown layout {name!r}; available: {', '.join(builtin_names())}")


def load_builtin_layout(name: str) -> tuple[AtomGraph, Layout]:
    """One of the bundled demonstration graphs with its coordinates.

    Edges are derived from the coordinates with the dataset's pinned edge
    radius, then checked against the declared roles by the graph validator;
    the structural tests pin the exact expected edge sets.
    """
    data = _dataset()
    entry = data["graphs"][_canonical_name(name)]
    radius = float(data["edge_rule_um"])
    roles = []
    labels = []
    positions = {}
    for atom_id, atom in enumerate(entry["atoms"]):
        roles.append(role_from_dict(atom["role"]))
        labels.append(atom["label"])
        x, y = atom["pos"]
        positions[atom_id] = (float(x), float(y))
    n = len(roles)
    edges = set()
    for a in range(n):
        for b in range(a + 1, n):
            d = math.dist(positions[a], positions[b])
            if d <= radius + 1e-9:
                edges.add((a, b))
    source = qubo_from_dict(entry["qubo"]) if entry.get("qubo") else None
    graph = AtomGraph(roles, edges, source=source, labels=labels)
    return graph, Layout(positions)
