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
``enumerate_ground_configs`` lists every ground configuration, derived from
that size search: a branch is followed only while it can still reach the
MIS size.  ``certify_equivalence`` lists them only when it must.  When every
variable's data copies share one neighbourhood (every compiled graph), no
maximum set splits a variable's copies, so it clamps the copies instead: the
other atoms fall apart into components (wires, offset stars, ...) whose MIS
sizes are tabulated once per assignment of the few variables each one
touches, and alpha(G | x) is a sum of table entries for each of the 2^n
assignments x.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .compiler import AtomGraph, DataCopy, Parity, _bits, try_decode
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
    the closed forms of ``wire_table`` and the offset rule, need no branch.
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
    if n > cap:
        raise CapExceeded(f"exact search capped at {cap} atoms, got {n}")
    masks, every = graph.masks, (1 << n) - 1
    size = _mis_size(masks, every)
    configs = tuple(sorted(_assignment_from_index(m, n) for m in _maximum_sets(masks, every, size)))
    return -size, configs


# ----------------------------------------------------------------------
# Clamped ground sets
# ----------------------------------------------------------------------


def _twin_copies(graph: AtomGraph) -> bool:
    """True when all data copies of each variable have one neighbourhood.

    A maximum independent set then never splits a variable's copies: copies
    are mutually non-adjacent, so the missing ones could join the set.
    """
    return all(len({graph.masks[a] for a in ids}) == 1 for ids in graph.var_copies.values())


def _component_tables(
    graph: AtomGraph, cap: int
) -> tuple[dict[tuple[int, ...], list[int]], int, int]:
    """MIS-size tables of the atoms left over once the data copies are clamped.

    Needs twin copies (``_twin_copies``).  The atoms that are not data copies
    split into connected components.  A component's MIS size depends only on
    the variables whose copies it touches, so its table holds that size for
    each assignment of them; entry s sets the k-th touched variable when bit
    k of s is set.  Tables of components touching the same variables are
    summed, and each variable's own copies enter as the table ``[0, copies]``.

    Returns the tables keyed by the touched variables, the component count
    and the largest component's atom count, which must not exceed ``cap``.
    """
    masks = graph.masks
    copies = [graph.var_copies[v] for v in range(graph.n_vars)]
    reach = [masks[ids[0]] for ids in copies]
    rest = (1 << graph.atom_count) - 1
    for ids in copies:
        for atom in ids:
            rest ^= 1 << atom
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

    tables = {(v,): [0, len(ids)] for v, ids in enumerate(copies)}
    for component in components:
        touched = tuple(v for v, r in enumerate(reach) if r & component)
        blocked = [0]  # entry s: the atoms next to the copies state s sets
        for v in touched:
            blocked += [b | reach[v] for b in blocked]
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


def _clamped_ground_set(graph: AtomGraph, cap: int) -> tuple[int, set[Assignment], int, int]:
    """alpha(G) and every assignment x with alpha(G | x) = alpha(G).

    alpha(G | x), the largest independent set holding exactly the copies of
    the variables x sets, is the sum of one entry of each component table.
    Each table is split into one term per subset of its variables, and those
    terms are summed over the subsets of every x at once.  An x that sets
    two variables with adjacent copies has no such set: a pair term of
    -(atoms + 1) sinks it below every x that has one.
    Returns -alpha(G), the argmax, the component count and the largest
    component's atom count.
    """
    tables, components, largest = _component_tables(graph, cap)
    n = graph.n_vars
    # Twin copies: one copy of each variable stands for all of them.
    first = [graph.var_copies[v][0] for v in range(n)]
    for v in range(n):
        for w in range(v):
            if graph.masks[first[v]] >> first[w] & 1:
                tables.setdefault((w, v), [0, 0, 0, 0])[3] -= graph.atom_count + 1
    alphas = [0] * (1 << n)
    for touched, table in tables.items():
        terms = list(table)
        _subset_sums(terms, len(touched), sign=-1)
        subsets = [0]  # entry s: the variables state s sets, as a mask
        for v in touched:
            subsets += [x | 1 << v for x in subsets]
        for x, term in zip(subsets, terms):
            alphas[x] += term
    _subset_sums(alphas, n)
    best = max(alphas)
    decoded = {_assignment_from_index(x, n) for x, a in enumerate(alphas) if a == best}
    return -best, decoded, components, largest


# ----------------------------------------------------------------------
# Wire energy tables
# ----------------------------------------------------------------------


def wire_table(
    parity: Parity, m: int, endpoint_state: tuple[int, int]
) -> tuple[int, tuple[Config, ...]]:
    """Conditional ground energy of one chain with clamped endpoints.

    Returns the energy in delta units (minus the maximum number of excitable
    chain atoms) and the chain configurations attaining it.  Even chains have
    2m atoms and charge one unit exactly when both endpoints are 1; odd
    chains have 2m+1 atoms and reward only the 00 endpoint state.
    """
    if parity is Parity.EVEN:
        if m < 1:
            raise InputError(f"even wire table needs m >= 1, got {m}")
        length = 2 * m
    elif parity is Parity.ODD:
        if m < 0:
            raise InputError(f"odd wire table needs m >= 0, got {m}")
        length = 2 * m + 1
    else:
        raise InputError(f"unknown parity {parity!r}")
    bi, bj = endpoint_state
    if bi not in (0, 1) or bj not in (0, 1):
        raise InputError(f"endpoint state must be bits, got {endpoint_state!r}")

    best = -1
    found: list[Config] = []
    for mask in range(1 << length):
        bits = _assignment_from_index(mask, length)
        if bi and bits[0]:
            continue
        if bj and bits[-1]:
            continue
        if any(bits[p] and bits[p + 1] for p in range(length - 1)):
            continue
        size = sum(bits)
        if size > best:
            best = size
            found = [bits]
        elif size == best:
            found.append(bits)
    return -best, tuple(sorted(found))


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

    The graph alone chooses how the ground set is found:

    * twin data copies (every compiled graph): no ground configuration
      splits a variable's copies, so ``inconsistent_configs`` is empty, and
      the decoded set is the argmax of alpha(G | x) over the 2^n
      assignments, tallied from per-component tables.  ``enum_cap`` bounds
      the atoms of the largest component;
    * copies with different neighbourhoods: every ground configuration is
      listed and decoded, and ``enum_cap`` bounds the whole graph's atoms.
      A decode inconsistency counts as a certification failure rather than
      an exception.

    ``brute_cap`` is checked before any search.  Each call logs one DEBUG
    record on the ``rydqubo`` logger: the path taken, the component count,
    the largest component's atoms, the assignments tallied (on the listing
    path: the ground configurations decoded, from one whole-graph component)
    and the oracle's assignments.
    """
    if graph.n_vars != q.n:
        raise InputError(
            f"graph encodes {graph.n_vars} variables but the instance has {q.n}"
        )
    if q.n > brute_cap:
        raise CapExceeded(f"brute force requested for n={q.n} above cap {brute_cap}")
    inconsistent: list[Config] = []
    if _twin_copies(graph):
        path, assignments = "clamp", 1 << q.n
        energy, decoded, components, largest = _clamped_ground_set(graph, enum_cap)
    else:
        energy, configs = enumerate_ground_configs(graph, cap=enum_cap)
        path, assignments, components, largest = "listing", len(configs), 1, graph.atom_count
        decoded = set()
        for config in configs:
            assignment = try_decode(graph, config)
            if assignment is None:
                inconsistent.append(config)
            else:
                decoded.add(assignment)
    min_value, argmin = brute_force_minima(q, cap=brute_cap)
    # Until something loads logging no handler exists to take the record, so
    # the package never loads it itself.
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("rydqubo").debug(
            "certify: path=%s components=%d largest=%d assignments=%d oracle=%d",
            path, components, largest, assignments, 1 << q.n,
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
    every maximum independent set is copy-unanimous and ``decode`` recovers
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
