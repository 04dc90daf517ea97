"""Translate QUBO instances into blockade atom graphs and decode readouts.

Four gadget kinds cover every integer cost function:

* data copies: a variable with target linear coefficient -c (c > 0) becomes
  c mutually non-adjacent atoms, all carrying the variable's value;
* offsets: a target coefficient c >= 0 becomes one data atom plus c + 1
  auxiliary atoms attached only to it;
* even wires: a chain of 2M auxiliary atoms between two variables realises
  one unit of +x_i*x_j;
* odd wires: a chain of 2M+1 atoms realises x_i + x_j - x_i*x_j, so each
  negative coupling unit also lowers both endpoint targets by one.

``compile_qubo`` stitches these together into an ``AtomGraph``, whose one
adjacency is a bitmask per atom.  A graph is its atoms' roles and its edges:
each variable's copies and each wire's descriptor are read off them, never
declared.  ``try_decode`` maps a measured atom configuration back to
variable values by data-copy unanimity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Mapping, Sequence

from .errors import CapExceeded, GraphError, InputError, require_int
from .qubo import Assignment, QuboInstance, check_assignment, qubo_from_dict, qubo_to_dict

DEFAULT_MAX_ATOMS = 5000


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class DataCopy:
    """Atom carrying the value of a variable; several copies may exist."""

    var: int
    copy_index: int


@dataclass(frozen=True)
class Offset:
    """Auxiliary atom attached to a single data atom to raise its coefficient."""

    var: int
    offset_index: int


@dataclass(frozen=True)
class WireAtom:
    """Member of a coupling chain between two variables."""

    wire: int
    chain_position: int


@dataclass(frozen=True)
class AFConstraintAtom:
    """Member of an auxiliary chain whose readout must alternate.

    These appear only in bundled layouts that reroute crossings; adjacent
    pairs of them define the post-selection rule (see ``AtomGraph.af_pairs``).
    """

    wire: int
    chain_position: int


AtomRole = DataCopy | Offset | WireAtom | AFConstraintAtom

# The two integer fields of each role kind, with their descriptions and lower
# bounds.  An offset's variable needs no bound: it must match a copy's.
_ROLE_FIELDS = {
    DataCopy: (attrgetter("var", "copy_index"), ("data copy variable index", 0), ("copy index", None)),
    Offset: (attrgetter("var", "offset_index"), ("offset variable index", None), ("offset index", None)),
    WireAtom: (attrgetter("wire", "chain_position"), ("wire id", None), ("chain position", None)),
    AFConstraintAtom: (attrgetter("wire", "chain_position"), ("wire id", None), ("chain position", None)),
}


@dataclass(frozen=True)
class WireDescriptor:
    """Summary of one variable-to-variable chain."""

    wire: int
    endpoints: tuple[int, int]
    parity: Parity
    length: int


def _default_label(role: AtomRole, indexed: bool = True) -> str:
    """``x1^(2)``-style label; ``indexed=False`` drops the ``^(k)`` suffix."""
    if isinstance(role, DataCopy):
        stem, index = f"x{role.var + 1}", role.copy_index
    elif isinstance(role, Offset):
        stem, index = f"a{role.var + 1}", role.offset_index
    elif isinstance(role, WireAtom):
        stem, index = f"W{role.wire + 1}", role.chain_position
    else:
        stem, index = f"W~{role.wire + 1}", role.chain_position
    return f"{stem}^({index})" if indexed else stem


def _checked_role(role: AtomRole) -> AtomRole:
    """``role`` with every integer field a Python int, or GraphError.

    Bools are refused: an offset of variable False would match a copy of
    variable 0.
    """
    spec = _ROLE_FIELDS.get(type(role))
    if spec is None:
        raise GraphError(f"unknown atom role {role!r}")
    first, second = spec[0](role)
    if type(first) is int and type(second) is int:
        return role  # the bound on a copy's variable is checked with the copies
    return type(role)(
        *(require_int(v, what, least, GraphError) for v, (what, least) in zip((first, second), spec[1:]))
    )


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class AtomGraph:
    """Immutable atom graph with role annotations.

    Atom ids are the indices 0..atom_count-1 in declaration order; measured
    bitstrings use the same order.  The adjacency is ``masks``: bit b of
    ``masks[a]`` is set when atoms a and b share an edge.  ``neighbors`` and
    ``edges`` are read off the masks, and so are ``var_copies`` and ``wires``
    off the roles.  Construction validates the structural invariants (offset
    attachment, chain contiguity, copy non-adjacency) and raises
    :class:`GraphError` on violation.
    """

    def __init__(
        self,
        roles: Sequence[AtomRole],
        edges,
        source: QuboInstance | None = None,
        labels: Sequence[str] | None = None,
    ):
        roles = tuple(_checked_role(role) for role in roles)
        n_atoms = len(roles)
        masks = [0] * n_atoms
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError) as exc:
                raise GraphError(f"edge {edge!r} is not a pair") from exc
            # Compiled graphs pass plain ints; only other endpoints take the full check.
            if type(a) is not int:
                a = require_int(a, "edge endpoint", None, GraphError)
            if type(b) is not int:
                b = require_int(b, "edge endpoint", None, GraphError)
            if a == b:
                raise GraphError(f"self-loop on atom {a}")
            if not (0 <= a < n_atoms and 0 <= b < n_atoms):
                raise GraphError(f"edge ({a}, {b}) references a missing atom")
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        self.roles: tuple[AtomRole, ...] = roles
        self.masks: tuple[int, ...] = tuple(masks)
        self.source = source
        if labels is None:
            self.labels: tuple[str, ...] = tuple(_default_label(r) for r in roles)
        else:
            self.labels = tuple(labels)
            if bad := [s for s in self.labels if not isinstance(s, str)]:
                raise GraphError(f"atom labels must be strings, got {bad[0]!r}")
            if len(self.labels) != n_atoms:
                raise GraphError("label count does not match atom count")
        if len(set(self.labels)) != n_atoms:
            raise GraphError("atom labels must be unique")

        copies: dict[int, list[int]] = {}
        for atom, role in enumerate(roles):
            if isinstance(role, DataCopy):
                var = require_int(role.var, "data copy variable index", 0, GraphError)
                copies.setdefault(var, []).append(atom)
        self.var_copies: dict[int, tuple[int, ...]] = {
            v: tuple(ids) for v, ids in sorted(copies.items())
        }
        self.n_vars = (max(copies) + 1) if copies else 0
        self._validate()

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def atom_count(self) -> int:
        return len(self.roles)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Each edge once, as (a, b) with a < b."""
        return frozenset((a, b) for a, m in enumerate(self.masks) for b in _bits(m >> a << a))

    @cached_property
    def _copy_masks(self) -> dict[int, int]:
        """Variable -> bitmask of its data copies."""
        return {v: sum(1 << a for a in ids) for v, ids in self.var_copies.items()}

    @cached_property
    def wires(self) -> tuple[WireDescriptor, ...]:
        """The coupling chains that join two variables, in wire-id order.

        A chain is listed when its head touches every copy of exactly one
        variable i and its tail every copy of exactly one variable j; a
        one-atom chain must touch every copy of exactly two variables, taken
        in ascending order.  Its length sets the parity.  Chains that end
        elsewhere, such as the rerouted ones of G5P and G6P, are not listed.
        """
        chains: dict[int, dict[int, int]] = {}
        for atom, role in enumerate(self.roles):
            if isinstance(role, WireAtom):
                chains.setdefault(role.wire, {})[role.chain_position] = atom

        def touched(atom: int) -> tuple[int, ...]:
            return tuple(v for v, m in self._copy_masks.items() if not m & ~self.masks[atom])

        out = []
        for wire, positions in sorted(chains.items()):
            length = len(positions)
            head, tail = touched(positions[1]), touched(positions[length])
            ends = head if length == 1 else head + tail if len(head) == len(tail) == 1 else ()
            if len(ends) == 2:
                parity = Parity.ODD if length % 2 else Parity.EVEN
                out.append(WireDescriptor(wire, ends, parity, length))
        return tuple(out)

    def neighbors(self, atom: int) -> frozenset[int]:
        return frozenset(_bits(self.masks[atom]))

    def af_pairs(self) -> tuple[tuple[int, int], ...]:
        """Edges joining two alternation-constrained atoms.

        A measurement honours the constraint when the two bits of every such
        pair differ; post-selection and ground-set filtering use this rule.
        """
        out = [
            (a, b)
            for a, b in sorted(self.edges)
            if isinstance(self.roles[a], AFConstraintAtom)
            and isinstance(self.roles[b], AFConstraintAtom)
        ]
        return tuple(out)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        masks, copy_masks = self.masks, self._copy_masks
        for v in range(self.n_vars):
            if v not in self.var_copies:
                raise GraphError(f"variable {v} has no data copy")

        for atom, role in enumerate(self.roles):
            if isinstance(role, Offset):
                degree = masks[atom].bit_count()
                if degree != 1:
                    raise GraphError(
                        f"offset atom {atom} must have exactly one edge, has {degree}"
                    )
                target_role = self.roles[masks[atom].bit_length() - 1]
                if not (isinstance(target_role, DataCopy) and target_role.var == role.var):
                    raise GraphError(
                        f"offset atom {atom} must attach to a data copy of its variable"
                    )
                if len(self.var_copies.get(role.var, ())) != 1:
                    raise GraphError(
                        f"offset atom {atom} attached to multi-copy variable {role.var}"
                    )

        # Data copies of one variable never touch each other.
        for v, ids in self.var_copies.items():
            for a in ids:
                if touching := masks[a] & copy_masks[v]:
                    b = next(_bits(touching))
                    raise GraphError(f"data copies {a} and {b} of variable {v} are adjacent")

        # Chains: contiguous positions, consecutive atoms adjacent, one kind per id.
        chains: dict[int, dict[int, int]] = {}
        chain_kinds: dict[int, type] = {}
        for atom, role in enumerate(self.roles):
            if isinstance(role, (WireAtom, AFConstraintAtom)):
                positions = chains.setdefault(role.wire, {})
                if role.chain_position in positions:
                    raise GraphError(
                        f"duplicate chain position {role.chain_position} in wire {role.wire}"
                    )
                positions[role.chain_position] = atom
                kind = type(role)
                if chain_kinds.setdefault(role.wire, kind) is not kind:
                    raise GraphError(f"wire {role.wire} mixes atom kinds")
        for wire_id, positions in chains.items():
            length = len(positions)
            if sorted(positions) != list(range(1, length + 1)):
                raise GraphError(f"wire {wire_id} positions are not contiguous from 1")
            for p in range(1, length):
                if not masks[positions[p]] >> positions[p + 1] & 1:
                    raise GraphError(
                        f"wire {wire_id} atoms at positions {p} and {p + 1} are not adjacent"
                    )

    # ------------------------------------------------------------------
    # Equality / serialisation
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomGraph):
            return NotImplemented
        return (
            self.roles == other.roles
            and self.masks == other.masks
            and self.labels == other.labels
            and self.source == other.source
        )

    def __repr__(self) -> str:
        return f"AtomGraph(atoms={self.atom_count}, edges={len(self.edges)}, vars={self.n_vars})"


def _role_to_dict(role: AtomRole) -> dict:
    if isinstance(role, DataCopy):
        return {"kind": "data", "var": role.var + 1, "copy": role.copy_index}
    if isinstance(role, Offset):
        return {"kind": "offset", "var": role.var + 1, "index": role.offset_index}
    if isinstance(role, WireAtom):
        return {"kind": "wire", "wire": role.wire, "position": role.chain_position}
    return {"kind": "af", "wire": role.wire, "position": role.chain_position}


def _int_field(data: Mapping, key: str, least: int | None = None) -> int:
    """``data[key]``, which must be a JSON integer (not a float or boolean) >= ``least``."""
    return require_int(data[key], key, least, ValueError)


def role_from_dict(data: Mapping) -> AtomRole:
    try:
        kind = data["kind"]
        if kind == "data":
            return DataCopy(var=_int_field(data, "var", 1) - 1, copy_index=_int_field(data, "copy"))
        if kind == "offset":
            return Offset(var=_int_field(data, "var", 1) - 1, offset_index=_int_field(data, "index"))
        if kind in ("wire", "af"):
            chain = WireAtom if kind == "wire" else AFConstraintAtom
            return chain(wire=_int_field(data, "wire"), chain_position=_int_field(data, "position"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed atom role: {data!r}") from exc
    raise InputError(f"unknown atom role kind: {data!r}")


def _variables_block(graph: AtomGraph) -> dict:
    return {str(v + 1): list(ids) for v, ids in graph.var_copies.items()}


def _wires_block(graph: AtomGraph) -> list:
    return [
        {"id": w.wire, "parity": w.parity.value, "i": i + 1, "j": j + 1, "length": w.length}
        for w in graph.wires
        for i, j in [w.endpoints]
    ]


def _same_json(a, b) -> bool:
    """JSON equality that tells true from 1 and 1 from 1.0, ignoring the key order of objects."""
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return type(a) is type(b) and a == b


def graph_to_dict(graph: AtomGraph) -> dict:
    """JSON-ready form; round-trips losslessly through ``graph_from_dict``.

    The ``variables`` block (variable -> data copy atom ids, 1-based keys)
    and the ``wires`` block (one entry per ``AtomGraph.wires`` descriptor,
    1-based ``i`` and ``j``) are derived from the atoms and edges; on input
    each may be omitted, and must equal the derived block when present.
    """
    return {
        "version": 1,
        "variables": _variables_block(graph),
        "atoms": [
            {"id": i, "label": graph.labels[i], "role": _role_to_dict(role)}
            for i, role in enumerate(graph.roles)
        ],
        "edges": [list(e) for e in sorted(graph.edges)],
        "wires": _wires_block(graph),
        "source": qubo_to_dict(graph.source) if graph.source is not None else None,
    }


def graph_from_dict(data: Mapping) -> AtomGraph:
    if not isinstance(data, Mapping):
        raise InputError("graph document must be an object")
    try:
        atoms = list(data["atoms"])
        edges = [tuple(e) for e in data.get("edges", [])]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed graph document: {exc}") from exc
    for entry in atoms:
        if not isinstance(entry, Mapping) or "role" not in entry:
            raise InputError(f"atom entry {entry!r} must be an object with a 'role'")
    ids = [require_int(entry.get("id"), "atom id") for entry in atoms]
    if sorted(ids) != list(range(len(atoms))):
        raise InputError("atom ids must be exactly 0..N-1")
    ordered = sorted(atoms, key=lambda entry: entry["id"])
    roles = [role_from_dict(entry["role"]) for entry in ordered]
    labels = [entry.get("label", "") for entry in ordered]
    if all(isinstance(lbl, str) for lbl in labels) and not all(labels):
        labels = None  # regenerate defaults rather than accept blanks
    source = data.get("source")
    q = qubo_from_dict(source) if source is not None else None
    graph = AtomGraph(roles, edges, source=q, labels=labels)
    for key, derive in (("variables", _variables_block), ("wires", _wires_block)):
        if key in data and not _same_json(data[key], derive(graph)):
            raise InputError(f"the graph's {key!r} block does not match its atoms and edges; omit it to derive it")
    return graph


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


def _effective_targets(q: QuboInstance) -> list[int]:
    """Linear coefficient each variable's gadget must realise, in one pass over the couplings.

    Every unit of negative coupling incident to a variable adds one unwanted
    unit of +x through its odd wire, so the gadget target is the raw
    coefficient minus the total negative coupling weight.
    """
    targets = [q.linear.get(v, 0) for v in range(q.n)]
    for (i, j), w in q.quadratic.items():
        if w < 0:
            targets[i] += w
            targets[j] += w
    return targets


@dataclass(frozen=True)
class WireLengthPolicy:
    """Chain lengths used for each coupling unit.

    Defaults are minimal; longer chains change constants only, which is what
    makes them usable for geometric routing.
    """

    even_atoms: int = 2
    odd_atoms: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "even_atoms", require_int(self.even_atoms, "even_atoms", 2))
        object.__setattr__(self, "odd_atoms", require_int(self.odd_atoms, "odd_atoms", 1))
        if self.even_atoms % 2:
            raise InputError(f"even_atoms must be even, got {self.even_atoms}")
        if self.odd_atoms % 2 == 0:
            raise InputError(f"odd_atoms must be odd, got {self.odd_atoms}")


def planned_atom_count(q: QuboInstance, policy: WireLengthPolicy | None = None) -> int:
    """Atom budget of ``compile_qubo`` without building the graph."""
    policy = policy or WireLengthPolicy()
    total = sum(-t if t < 0 else t + 2 for t in _effective_targets(q))
    for w in q.quadratic.values():
        total += w * policy.even_atoms if w > 0 else -w * policy.odd_atoms
    return total


def compile_qubo(
    q: QuboInstance,
    policy: WireLengthPolicy | None = None,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> AtomGraph:
    """Build the atom graph whose ground configurations encode argmin(q).

    Per variable: a data gadget of |target| copies when the target
    coefficient is negative, otherwise one data atom with target + 1
    offsets.  Per coupling unit: one even (positive) or odd (negative)
    chain whose ends attach to every copy of both endpoint variables.

    The ground-state equivalence with ``brute_force_minima(q)`` is the
    package's central contract; ``solver.certify_equivalence`` checks it
    instance by instance rather than assuming it.
    """
    policy = policy or WireLengthPolicy()
    max_atoms = require_int(max_atoms, "max_atoms", 0)
    # Every variable takes at least one atom; checking that first keeps the
    # per-variable budget count below from looping over a huge n.
    if q.n > max_atoms:
        raise CapExceeded(f"compiled graph would need at least {q.n} atoms (cap {max_atoms})")
    planned = planned_atom_count(q, policy)
    if planned > max_atoms:
        raise CapExceeded(f"compiled graph would need {planned} atoms (cap {max_atoms})")

    roles: list[AtomRole] = []
    labels: list[str] = []
    edges: list[tuple[int, int]] = []

    def add(group: list[AtomRole]) -> range:
        """Append one gadget's atoms; a one-atom gadget gets an unindexed label."""
        base = len(roles)
        roles.extend(group)
        labels.extend(_default_label(role, indexed=len(group) > 1) for role in group)
        return range(base, base + len(group))

    copies: list[range] = []
    for v, target in enumerate(_effective_targets(q)):
        if target < 0:
            copies.append(add([DataCopy(var=v, copy_index=k) for k in range(1, 1 - target)]))
        else:
            copies.append(add([DataCopy(var=v, copy_index=1)]))
            for atom in add([Offset(var=v, offset_index=k) for k in range(1, target + 2)]):
                edges.append((copies[v][0], atom))

    # Even and odd units are the same chain; only the length differs.
    units = [
        (i, j, policy.even_atoms if weight > 0 else policy.odd_atoms)
        for (i, j), weight in sorted(q.quadratic.items())
        for _ in range(abs(weight))
    ]
    for wire_id, (i, j, length) in enumerate(units):
        chain = add([WireAtom(wire=wire_id, chain_position=p) for p in range(1, length + 1)])
        edges.extend((atom - 1, atom) for atom in chain[1:])
        for end, var in ((chain[0], i), (chain[-1], j)):
            edges.extend((copy, end) for copy in copies[var])

    return AtomGraph(roles, edges, source=q, labels=labels)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def try_decode(graph: AtomGraph, bits: Sequence[int] | str) -> Assignment | None:
    """Read variable values off a measured configuration, or None.

    Each variable's data copies must print the same value; wire, offset and
    constraint atoms carry no variable information.  Returns None when some
    variable's copies disagree.
    """
    values = check_assignment(graph.atom_count, bits)
    out = []
    for v in range(graph.n_vars):
        seen = {values[a] for a in graph.var_copies[v]}
        if len(seen) != 1:
            return None
        out.append(seen.pop())
    return tuple(out)
