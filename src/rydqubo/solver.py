"""Exact diagonal ground states of atom graphs.

With the drive off and detuning positive, low energy means many excited
atoms and no excited blockaded pair, so ground configurations are exactly
the maximum independent sets.  Energies are reported in detuning units to
keep degeneracy detection exact: every ground energy is an integer.  Hard
blockade is the only model: a finite pair penalty u > delta has the same
ground set, since de-exciting one atom of an excited blockaded pair lowers
the energy.

Every search reads the graph's adjacency bitmasks, ``AtomGraph.masks``, and
one branch and bound, ``_mis_size``, computes every MIS size.
``enumerate_ground_configs`` lists every ground configuration, following a
branch only while it can still reach the MIS size.  ``certify_equivalence``
clamps copy classes instead, a variable's copies with one neighbourhood: the
other atoms fall apart into components (wires, offset stars, ...) whose MIS
sizes are tabulated once per state of the few classes each one touches, and
alpha(G | y) is a sum of table entries for each of the 2^m class states y.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

# try_decode, unused here, and enumerate_ground_configs stay reachable as
# solver attributes: bench/spans.py's PATCHES wraps both by name.
from .compiler import AtomGraph, DataCopy, _bits, try_decode  # noqa: F401
from .errors import CapExceeded, InputError, require_int
from .qubo import Assignment, DEFAULT_BRUTE_FORCE_CAP, QuboInstance, brute_force_minima
from .qubo import _assignment_from_index

DEFAULT_ENUM_CAP = 30

Config = tuple[int, ...]
"""One bit per atom, index position = atom id."""


def _mis_size(masks: Sequence[int], avail: int, size: int = 0, best: int = 0) -> int:
    """``size`` plus the MIS size of the vertices in ``avail``, or ``best`` if larger.

    Sizes only, no sets.  A vertex with at most one neighbour left is taken
    without branching, since some maximum set contains it; paths and stars,
    the wire chains and offset gadgets, need no branch.
    """
    while avail:
        m = avail
        pick, pick_degree = -1, 1
        while m:
            low = m & -m
            v = low.bit_length() - 1
            nbrs = masks[v] & avail
            degree = nbrs.bit_count()
            if degree <= 1:
                avail &= ~(nbrs | low)
                size += 1
                break
            if degree > pick_degree:
                pick, pick_degree = v, degree
            m ^= low
        else:
            if size + avail.bit_count() <= best:
                return best
            bit = 1 << pick
            best = _mis_size(masks, avail & ~(masks[pick] | bit), size + 1, best)
            return _mis_size(masks, avail & ~bit, size, best)
    return size if size > best else best


def _maximum_sets(masks: Sequence[int], avail: int, size: int) -> list[int]:
    """Every maximum independent set of the atoms in ``avail``, whose MIS size is ``size``.

    Branches on the lowest atom, taking it or leaving it out only when
    ``_mis_size`` shows that the branch still reaches the target size, so
    every branch ends in a set and the work is at most two size searches per
    atom of each set.  An atom with no neighbour left is in every such set.
    """
    found: list[int] = []

    def grow(avail: int, size: int, chosen: int) -> None:
        if not avail:
            found.append(chosen)
            return
        bit = avail & -avail
        nbrs = masks[bit.bit_length() - 1] & avail
        rest = avail & ~(nbrs | bit)
        if _mis_size(masks, rest) == size - 1:
            grow(rest, size - 1, chosen | bit)
        if nbrs and _mis_size(masks, avail ^ bit) == size:
            grow(avail ^ bit, size, chosen)

    grow(avail, size, 0)
    return found


def enumerate_ground_configs(
    graph: AtomGraph, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, tuple[Config, ...]]:
    """All minimum-energy atom configurations of ``graph``.

    These are the maximum independent sets, with energy ``-|MIS|`` in delta
    units.  They are derived from the size search ``_mis_size``: its alpha
    fixes the target size, and ``_maximum_sets`` follows only the branches
    that still reach it.  Results are canonically sorted and deterministic.
    """
    n = graph.atom_count
    if n > require_int(cap, "cap", 0):
        raise CapExceeded(f"exact search capped at {cap} atoms, got {n}")
    masks, every = graph.masks, (1 << n) - 1
    size = _mis_size(masks, every)
    configs = tuple(sorted(_assignment_from_index(m, n) for m in _maximum_sets(masks, every, size)))
    return -size, configs


# ----------------------------------------------------------------------
# Clamped ground sets
# ----------------------------------------------------------------------


def _copy_classes(graph: AtomGraph) -> list[tuple[int, int, int]]:
    """Each variable's data copies grouped by neighbourhood: (variable, atoms, neighbours).

    Both sets are bitmasks, in order of variable and then of first copy.
    Copies of one variable are never adjacent, so a maximum set holding one
    copy of a class could take the rest: no maximum set splits a class.
    """
    groups: dict[tuple[int, int], int] = {}
    for v, ids in graph.var_copies.items():
        for atom in ids:
            key = (v, graph.masks[atom])
            groups[key] = groups.get(key, 0) | 1 << atom
    return [(v, atoms, reach) for (v, reach), atoms in groups.items()]


def _component_tables(
    graph: AtomGraph, classes: list[tuple[int, int, int]], cap: int
) -> tuple[dict[tuple[int, ...], list[int]], int, int]:
    """MIS-size tables of the atoms left over once the copy classes are clamped.

    The atoms that are not data copies split into connected components.  A
    component's MIS size depends only on the classes it touches, so its table
    holds it for each state of them (entry s sets the k-th touched class when
    bit k of s is set).  Tables keyed by the same classes are summed, and each
    class's copies enter as ``[0, copies]``.  Also returns the component count
    and the largest component's atom count, which must not exceed ``cap``.
    """
    masks = graph.masks
    rest = (1 << graph.atom_count) - 1 - sum(atoms for _, atoms, _ in classes)  # all but copies
    components = []
    while rest:
        component, frontier = 0, rest & -rest
        while frontier:
            component |= frontier
            grown = 0
            for v in _bits(frontier):
                grown |= masks[v]
            frontier = grown & rest & ~component
        rest ^= component
        components.append(component)
    largest = max((c.bit_count() for c in components), default=0)
    if largest > cap:
        raise CapExceeded(f"exact search capped at {cap} atoms per component, got {largest}")

    tables = {(c,): [0, atoms.bit_count()] for c, (_, atoms, _) in enumerate(classes)}
    reach = [r for _, _, r in classes]
    for component in components:
        touched = tuple(c for c, r in enumerate(reach) if r & component)
        blocked = [0]  # entry s: the atoms next to the classes state s sets
        for c in touched:
            blocked += [b | reach[c] for b in blocked]
        total = tables.setdefault(touched, [0] * len(blocked))
        for state, b in enumerate(blocked):
            total[state] += _mis_size(masks, component & ~b)
    return tables, len(components), largest


def _subset_sums(values: list[int], bits: int, sign: int = 1) -> None:
    """For each bit k < ``bits``, add ``sign`` * values[s without k] to each values[s] with k.

    In place.  With sign 1, values[s] becomes the sum of the inputs over the
    subsets of s; sign -1 inverts that, splitting a table into per-subset terms.
    """
    for k in range(bits):
        bit = 1 << k
        for s in range(len(values)):
            if s & bit:
                values[s] += sign * values[s ^ bit]


def _clamped_ground_set(
    graph: AtomGraph, classes: list[tuple[int, int, int]], cap: int
) -> tuple[int, set[Assignment], list[Config], int, int]:
    """-alpha(G), the decoded set, the sorted split configurations and the component counts.

    alpha(G | y), the largest independent set holding exactly the copies of
    the classes y sets, sums one entry of each component table: each table is
    split into one term per subset of its classes, and the terms are summed
    over the subsets of every y at once.  A y setting two adjacent classes
    has no such set, and a pair term of -(atoms + 1) sinks it below y = 0.
    An optimal y whose classes agree for each variable decodes to an
    assignment; the maximum sets of any other are listed, within ``cap`` atoms.
    """
    tables, components, largest = _component_tables(graph, classes, cap)
    for c, (_, _, reach) in enumerate(classes):
        for d in range(c):
            if reach & classes[d][1]:
                tables.setdefault((d, c), [0, 0, 0, 0])[3] -= graph.atom_count + 1
    alphas = [0] * (1 << len(classes))
    for touched, table in tables.items():
        terms = list(table)
        _subset_sums(terms, len(touched), sign=-1)
        subsets = [0]  # entry s: the classes state s sets, as a mask
        for c in touched:
            subsets += [y | 1 << c for y in subsets]
        for y, term in zip(subsets, terms):
            alphas[y] += term
    _subset_sums(alphas, len(classes))
    best = max(alphas)

    spans = [0] * graph.n_vars  # each variable's classes, as a mask over y
    for c, (v, _, _) in enumerate(classes):
        spans[v] |= 1 << c
    decoded, split = set(), []
    for y, alpha in enumerate(alphas):
        if alpha == best:
            held = [y & span for span in spans]
            if all(h == 0 or h == span for h, span in zip(held, spans)):
                decoded.add(tuple(int(h != 0) for h in held))
            else:
                split.append(y)
    n, configs = graph.atom_count, []
    if split and n > cap:
        raise CapExceeded(f"exact search capped at {cap} atoms, got {n}")
    for y in split:
        # The copies y sets are left with no neighbour, so every maximum set holds them.
        avail = (1 << n) - 1
        for c, (_, atoms, reach) in enumerate(classes):
            avail &= ~(reach if y >> c & 1 else atoms)
        configs += [_assignment_from_index(s, n) for s in _maximum_sets(graph.masks, avail, best)]
    return -best, decoded, sorted(configs), components, largest


# ----------------------------------------------------------------------
# Certification against the brute-force oracle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of checking a graph's decoded ground set against the oracle."""

    passed: bool
    ground_energy: int
    qubo_min_value: int
    decoded: tuple[Assignment, ...]
    expected: tuple[Assignment, ...]
    spurious: tuple[Assignment, ...]
    missing: tuple[Assignment, ...]
    inconsistent_configs: tuple[Config, ...]

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "ground_energy_delta_units": self.ground_energy,
            "qubo_min_value": self.qubo_min_value,
            "decoded": [list(a) for a in self.decoded],
            "expected": [list(a) for a in self.expected],
            "spurious": [list(a) for a in self.spurious],
            "missing": [list(a) for a in self.missing],
            "inconsistent_configs": [list(c) for c in self.inconsistent_configs],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def certify_equivalence(
    q: QuboInstance,
    graph: AtomGraph,
    enum_cap: int = DEFAULT_ENUM_CAP,
    brute_cap: int = DEFAULT_BRUTE_FORCE_CAP,
) -> CertificateReport:
    """Check that the graph's decoded ground set equals ``brute_force_minima(q)``.

    The decoded set is the argmax of alpha(G | y) over the 2^m states of the
    m copy classes (one per variable in every compiled graph), tallied from
    per-component tables whose atoms ``enum_cap`` bounds.  Ground
    configurations that split a variable's copies fail the certification and
    are listed in ``inconsistent_configs``, within ``enum_cap`` atoms of the
    whole graph.  ``brute_cap`` bounds the variables and the classes before
    any search.  Each call logs one DEBUG record on the ``rydqubo`` logger:
    the component count, the largest component's atoms, the class states
    tallied and the oracle's assignments.
    """
    enum_cap = require_int(enum_cap, "enum_cap", 0)
    brute_cap = require_int(brute_cap, "brute_cap", 0)
    if graph.n_vars != q.n:
        raise InputError(f"graph encodes {graph.n_vars} variables but the instance has {q.n}")
    if q.n > brute_cap:
        raise CapExceeded(f"brute force requested for n={q.n} above cap {brute_cap}")
    classes = _copy_classes(graph)
    if len(classes) > brute_cap:
        raise CapExceeded(f"clamped search capped at {brute_cap} copy classes, got {len(classes)}")
    energy, decoded, inconsistent, components, largest = _clamped_ground_set(
        graph, classes, enum_cap
    )
    min_value, argmin = brute_force_minima(q, cap=brute_cap)
    # Until something loads logging no handler exists to take the record, so
    # the package never loads it itself.
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("rydqubo").debug(
            "certify: components=%d largest=%d assignments=%d oracle=%d",
            components, largest, 1 << len(classes), 1 << q.n,
        )
    expected = set(argmin)
    spurious = tuple(sorted(decoded - expected))
    missing = tuple(sorted(expected - decoded))
    passed = not spurious and not missing and not inconsistent
    return CertificateReport(
        passed=passed,
        ground_energy=energy,
        qubo_min_value=min_value,
        decoded=tuple(sorted(decoded)),
        expected=tuple(sorted(expected)),
        spurious=spurious,
        missing=missing,
        inconsistent_configs=tuple(inconsistent),
    )


# ----------------------------------------------------------------------
# Weighted independent sets by vertex duplication
# ----------------------------------------------------------------------


def mwis_expand(
    weights: Sequence[int], edges: Iterable[tuple[int, int]]
) -> AtomGraph:
    """Unfold a vertex-weighted graph into an unweighted atom graph.

    A vertex of weight w becomes w mutually non-adjacent copies inheriting
    all of the vertex's edges.  Copies share their neighbourhood exactly, so
    every maximum independent set is copy-unanimous and ``try_decode`` recovers
    the maximum weighted independent sets of the input.
    """
    parsed = [require_int(w, "vertex weight", 1) for w in weights]
    if not parsed:
        raise InputError("weighted graph needs at least one vertex")
    n = len(parsed)

    roles = []
    copy_ids: list[list[int]] = []
    for v, w in enumerate(parsed):
        ids = []
        for k in range(1, w + 1):
            ids.append(len(roles))
            roles.append(DataCopy(var=v, copy_index=k))
        copy_ids.append(ids)

    out_edges: set[tuple[int, int]] = set()
    for edge in edges:
        try:
            a, b = edge
        except (TypeError, ValueError) as exc:
            raise InputError(f"edge {edge!r} is not a pair") from exc
        a, b = require_int(a, "edge endpoint"), require_int(b, "edge endpoint")
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise InputError(f"edge {edge!r} is not valid for {n} vertices")
        for ca in copy_ids[a]:
            for cb in copy_ids[b]:
                out_edges.add((min(ca, cb), max(ca, cb)))
    return AtomGraph(roles, out_edges)
