"""Tests for gadget construction, graph assembly, decoding, and graph JSON."""

import json
import random
import re
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rydqubo.compiler import (
    AFConstraintAtom,
    AtomGraph,
    DataCopy,
    Offset,
    Parity,
    WireAtom,
    WireLengthPolicy,
    compile_qubo,
    graph_from_dict,
    graph_to_dict,
    planned_atom_count,
    try_decode,
)
from rydqubo.errors import CapExceeded, GraphError, InputError
from rydqubo.geometry import load_builtin_layout
from rydqubo.qubo import QuboInstance, brute_force_minima, normalize_to_integers

F1 = QuboInstance(n=1, linear={0: -2})
F3 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): 1})
F4 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): -1})
F6 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): -2})
F7 = QuboInstance(
    n=3, linear={0: -2, 1: 1, 2: 2}, quadratic={(0, 1): 1, (0, 2): 1, (1, 2): -2}
)


def reference_masks(n_atoms, edges):
    """Adjacency bitmasks built edge by edge: the reference for ``AtomGraph.masks``."""
    masks = [0] * n_atoms
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def random_instance(rng, n_range=(1, 4), coeff=2):
    n = rng.randint(*n_range)
    return QuboInstance(
        n=n,
        linear={i: rng.randint(-coeff, coeff) for i in range(n)},
        quadratic={
            (i, j): rng.randint(-coeff, coeff) for i in range(n) for j in range(i + 1, n)
        },
    )


def gadget_sizes(q):
    """(data copies, offsets) of each variable's gadget in ``compile_qubo(q)``."""
    graph = compile_qubo(q)
    offsets = [role.var for role in graph.roles if isinstance(role, Offset)]
    return [(len(graph.var_copies[v]), offsets.count(v)) for v in range(q.n)]


class TestEffectiveLinear:
    """A target t < 0 takes |t| copies; t >= 0 takes one copy and t + 1 offsets."""

    def test_negative_coupling_lowers_the_target(self):
        # Targets -3 and 0.
        assert gadget_sizes(F4) == [(3, 0), (1, 1)]

    def test_no_negative_couplings_leaves_raw_coefficient(self):
        # Targets -2 and 1.
        assert gadget_sizes(F3) == [(2, 0), (1, 2)]

    def test_double_negative_coupling(self):
        # Targets -4 and -1.
        assert gadget_sizes(F6) == [(4, 0), (1, 0)]


def chain(graph, wire=0):
    """Atom ids of one wire, in chain order."""
    atoms = [
        (r.chain_position, a)
        for a, r in enumerate(graph.roles)
        if isinstance(r, WireAtom) and r.wire == wire
    ]
    return [a for _, a in sorted(atoms)]


class TestGadgets:
    """The four gadget kinds, read off ``compile_qubo`` outputs."""

    def test_data_copies_are_isolated(self):
        g = compile_qubo(QuboInstance(n=1, linear={0: -2}))
        assert g.atom_count == 2
        assert not g.edges
        assert all(isinstance(r, DataCopy) for r in g.roles)
        # Copies stay non-adjacent when wires attach to them.
        for q in (F3, F4, F6, F7):
            g = compile_qubo(q)
            for ids in g.var_copies.values():
                assert not any((a, b) in g.edges for a in ids for b in ids)

    def test_single_copy(self):
        g = compile_qubo(QuboInstance(n=1, linear={0: -1}))
        assert g.var_copies == {0: (0,)} and g.atom_count == 1

    def test_four_copies(self):
        g = compile_qubo(QuboInstance(n=1, linear={0: -4}))
        assert [g.roles[a].copy_index for a in g.var_copies[0]] == [1, 2, 3, 4]

    def test_count_below_one_rejected(self):
        # No coefficient yields fewer than one data copy ...
        for c in range(-3, 4):
            g = compile_qubo(QuboInstance(n=1, linear={0: c}))
            assert len(g.var_copies[0]) == max(1, -c)
        # ... and no policy yields a chain of fewer than one atom.
        for odd in (-1, 0):
            with pytest.raises(InputError):
                WireLengthPolicy(odd_atoms=odd)

    def test_offsets_all_attach_to_the_anchor(self):
        g = compile_qubo(QuboInstance(n=2, linear={0: -1, 1: 1}))
        offsets = [a for a, r in enumerate(g.roles) if isinstance(r, Offset)]
        assert [g.roles[a].offset_index for a in offsets] == [1, 2]
        assert all(g.neighbors(a) == set(g.var_copies[1]) for a in offsets)

    def test_single_offset_encodes_zero(self):
        g = compile_qubo(QuboInstance(n=1))
        assert [type(r) for r in g.roles] == [DataCopy, Offset]
        assert g.edges == {(0, 1)}

    def test_even_wire_is_a_chain_with_two_ports(self):
        g = compile_qubo(F3)
        head, tail = chain(g)
        assert (head, tail) in g.edges
        assert g.neighbors(head) == {tail, *g.var_copies[0]}
        assert g.neighbors(tail) == {head, *g.var_copies[1]}

    def test_even_wire_length_four(self):
        g = compile_qubo(F3, policy=WireLengthPolicy(even_atoms=4))
        atoms = chain(g)
        assert len(atoms) == 4
        assert [(a, b) for a, b in sorted(g.edges) if a in atoms and b in atoms] == list(
            zip(atoms, atoms[1:])
        )
        assert g.neighbors(atoms[0]) - set(atoms) == set(g.var_copies[0])
        assert g.neighbors(atoms[-1]) - set(atoms) == set(g.var_copies[1])

    def test_even_wire_needs_positive_m(self):
        for even in (0, -2):
            with pytest.raises(InputError):
                WireLengthPolicy(even_atoms=even)

    def test_odd_wire_single_atom(self):
        g = compile_qubo(F4)
        (atom,) = chain(g)
        assert g.neighbors(atom) == {*g.var_copies[0], *g.var_copies[1]}

    def test_odd_wire_three_atoms(self):
        g = compile_qubo(F4, policy=WireLengthPolicy(odd_atoms=3))
        atoms = chain(g)
        assert len(atoms) == 3
        assert {(a, b) for a, b in g.edges if a in atoms and b in atoms} == set(
            zip(atoms, atoms[1:])
        )
        assert g.neighbors(atoms[0]) - set(atoms) == set(g.var_copies[0])
        assert g.neighbors(atoms[-1]) - set(atoms) == set(g.var_copies[1])

    def test_offset_star_energy_difference(self):
        # Oracle: exhaustive diagonal ground energies of the compiled +2
        # gadget (one data atom, three offsets), conditioned on the data value.
        g = compile_qubo(QuboInstance(n=1, linear={0: 2}))
        assert g.atom_count == 4

        def conditional_ground(data_bit):
            best = None
            for bits in product((0, 1), repeat=g.atom_count):
                if bits[0] != data_bit or any(bits[a] and bits[b] for a, b in g.edges):
                    continue  # wrong data value, or blockaded
                energy = -sum(bits)
                best = energy if best is None else min(best, energy)
            return best

        assert conditional_ground(1) - conditional_ground(0) == 2

    def test_labels(self):
        F5 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): 2})
        assert compile_qubo(F5).labels == (
            "x1^(1)", "x1^(2)", "x2", "a2^(1)", "a2^(2)", "W1^(1)", "W1^(2)", "W2^(1)", "W2^(2)",
        )
        assert compile_qubo(F4).labels == ("x1^(1)", "x1^(2)", "x1^(3)", "x2", "a2", "W1")
        q = QuboInstance(n=2, linear={0: -1}, quadratic={(0, 1): 1})
        assert compile_qubo(q, policy=WireLengthPolicy(even_atoms=4)).labels == (
            "x1", "x2", "a2", "W1^(1)", "W1^(2)", "W1^(3)", "W1^(4)",
        )


class TestCompile:
    def test_f3_census(self):
        g = compile_qubo(F3)
        assert g.atom_count == 7
        kinds = [type(r).__name__ for r in g.roles]
        assert kinds.count("DataCopy") == 3
        assert kinds.count("Offset") == 2
        assert kinds.count("WireAtom") == 2
        assert g.var_copies[0] == (0, 1)
        assert g.var_copies[1] == (2,)
        assert len(g.wires) == 1 and g.wires[0].parity is Parity.EVEN

    def test_f4_census(self):
        g = compile_qubo(F4)
        assert g.atom_count == 6
        assert len(g.var_copies[0]) == 3
        assert len(g.var_copies[1]) == 1
        assert g.wires[0].parity is Parity.ODD and g.wires[0].length == 1

    def test_single_variable_single_atom(self):
        q = QuboInstance(n=1, linear={0: -1})
        g = compile_qubo(q)
        assert g.atom_count == 1
        assert not g.edges

    def test_zero_instance_gets_neutral_gadgets(self):
        q = QuboInstance(n=2)
        g = compile_qubo(q)
        assert g.atom_count == 4  # one data atom and one offset per variable
        roles = [type(r).__name__ for r in g.roles]
        assert roles.count("DataCopy") == 2 and roles.count("Offset") == 2

    def test_wire_policy_lengths(self):
        g = compile_qubo(F7, policy=WireLengthPolicy(even_atoms=4, odd_atoms=1))
        assert g.atom_count == 15
        even = [w for w in g.wires if w.parity is Parity.EVEN]
        odd = [w for w in g.wires if w.parity is Parity.ODD]
        assert [w.length for w in even] == [4, 4]
        assert [w.length for w in odd] == [1, 1]

    def test_policy_validation(self):
        with pytest.raises(InputError):
            WireLengthPolicy(even_atoms=3)
        with pytest.raises(InputError):
            WireLengthPolicy(odd_atoms=2)
        # True had passed as a one-atom odd wire and reached graph JSON as "length": true.
        for bad in ({"odd_atoms": True}, {"even_atoms": 2.0}, {"odd_atoms": -1}, {"even_atoms": 0}):
            with pytest.raises(InputError, match="_atoms must be an integer"):
                WireLengthPolicy(**bad)

    def test_atom_budget_formula(self):
        rng = random.Random(11)
        for _ in range(40):
            q = random_instance(rng)
            policy = WireLengthPolicy(
                even_atoms=rng.choice((2, 4)), odd_atoms=rng.choice((1, 3))
            )
            g = compile_qubo(q, policy=policy)
            expected = 0
            for v in range(q.n):
                t = q.linear.get(v, 0) + sum(w for pair, w in q.quadratic.items() if v in pair and w < 0)
                expected += -t if t < 0 else t + 2
            for w in q.quadratic.values():
                expected += w * policy.even_atoms if w > 0 else -w * policy.odd_atoms
            assert g.atom_count == expected == planned_atom_count(q, policy)

    def test_atom_cap(self):
        with pytest.raises(CapExceeded):
            compile_qubo(F7, max_atoms=5)

    def test_atom_cap_precedes_the_per_variable_count(self):
        # A 2^70-variable instance parses, and counting its atoms one
        # variable at a time would never finish.
        started = time.monotonic()
        with pytest.raises(CapExceeded, match="at least"):
            compile_qubo(QuboInstance(n=2**70))
        assert time.monotonic() - started < 1.0

    def test_ids_and_wire_ids_unique(self):
        g = compile_qubo(F7)
        wire_ids = [w.wire for w in g.wires]
        assert len(set(wire_ids)) == len(wire_ids)
        # Graph construction would already reject duplicate atom ids; spot
        # check the wire atoms reference declared descriptors.
        declared = set(wire_ids)
        for role in g.roles:
            if isinstance(role, WireAtom):
                assert role.wire in declared

    def test_source_attached(self):
        g = compile_qubo(F3)
        assert g.source == F3


class TestDecode:
    def test_readout_with_positive_coupling_wire(self):
        g = compile_qubo(F3)
        # order: x1 copies, x2, offsets, wire atoms
        assert try_decode(g, (1, 1, 0, 1, 1, 0, 1)) == (1, 0)

    def test_readout_with_negative_coupling_wire(self):
        g = compile_qubo(F4)
        assert try_decode(g, (1, 1, 1, 1, 0, 0)) == (1, 1)
        assert try_decode(g, "111010") == (1, 0)

    def test_all_zeros_is_unanimous(self):
        g = compile_qubo(F1)
        assert try_decode(g, (0, 0)) == (0,)

    def test_disagreeing_copies_return_none(self):
        assert try_decode(compile_qubo(F1), (1, 0)) is None
        # x1's copies disagree while x2 reads 0; the wire atoms do not matter.
        g = compile_qubo(F3)
        assert try_decode(g, (0, 1, 0, 1, 1, 0, 1)) is None
        assert try_decode(g, (1, 1, 0, 1, 1, 0, 1)) == (1, 0)

    def test_offsets_are_not_read(self):
        # An excited offset beside an excited data atom is no ground
        # configuration, but only the data copies carry the variable.
        g = compile_qubo(QuboInstance(n=1, linear={0: 1}))
        assert try_decode(g, (1, 1, 1)) == (1,)

    def test_wrong_length_rejected(self):
        g = compile_qubo(F1)
        with pytest.raises(InputError):
            try_decode(g, (1,))

    def test_non_integral_bits_rejected(self):
        g, _ = load_builtin_layout("G3")
        with pytest.raises(InputError):
            try_decode(g, [0.6, 0, 0, 0, 0, 0, 0])
        assert try_decode(g, [1.0, 0, 0, 0, 0, 0, 0]) is None
        assert try_decode(g, np.zeros(7, dtype=np.int64)) == (0, 0)
        assert try_decode(g, "0000000") == (0, 0)


class TestGraphValidation:
    def test_offset_needs_its_data_copy(self):
        roles = [DataCopy(0, 1), Offset(0, 1)]
        with pytest.raises(GraphError, match="exactly one edge"):
            AtomGraph(roles, edges=[])  # offset with no edge

    def test_offset_cannot_attach_to_wire(self):
        roles = [DataCopy(0, 1), Offset(0, 1), WireAtom(0, 1)]
        with pytest.raises(GraphError, match="attach to a data"):
            AtomGraph(roles, edges=[(1, 2), (0, 2)])

    def test_offset_rejected_on_multicopy_variable(self):
        roles = [DataCopy(0, 1), DataCopy(0, 2), Offset(0, 1)]
        with pytest.raises(GraphError, match="multi-copy"):
            AtomGraph(roles, edges=[(0, 2)])

    def test_adjacent_copies_rejected(self):
        roles = [DataCopy(0, 1), DataCopy(0, 2)]
        with pytest.raises(GraphError, match="are adjacent"):
            AtomGraph(roles, edges=[(0, 1)])

    def test_chain_gap_rejected(self):
        roles = [DataCopy(0, 1), WireAtom(0, 1), WireAtom(0, 3)]
        with pytest.raises(GraphError, match="not contiguous"):
            AtomGraph(roles, edges=[(1, 2)])

    def test_chain_must_be_connected_in_order(self):
        roles = [DataCopy(0, 1), WireAtom(0, 1), WireAtom(0, 2)]
        with pytest.raises(GraphError, match="not adjacent"):
            AtomGraph(roles, edges=[])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            AtomGraph([DataCopy(0, 1)], edges=[(0, 0)])

    def test_missing_variable_rejected(self):
        roles = [DataCopy(1, 1)]  # variable 0 absent
        with pytest.raises(GraphError, match="no data copy"):
            AtomGraph(roles, edges=[])


# Two variables joined by one odd wire (atom 2) or one even wire (atoms 2, 3),
# and the wires-block entry of each in a graph document.
PAIR = [DataCopy(0, 1), DataCopy(1, 1)]
ODD = {"id": 0, "parity": "odd", "i": 1, "j": 2, "length": 1}
EVEN = {"id": 0, "parity": "even", "i": 1, "j": 2, "length": 2}
ODD_ROLES, ODD_EDGES = PAIR + [WireAtom(0, 1)], [(0, 2), (1, 2)]
EVEN_ROLES, EVEN_EDGES = PAIR + [WireAtom(0, 1), WireAtom(0, 2)], [(0, 2), (2, 3), (1, 3)]
WIRES_DIFFER = "'wires' block does not match its atoms and edges"

# (roles, edges, keyword arguments, message): one structural check each, for
# the checks TestGraphValidation does not already make.  A "wires" argument is
# instead the wires block of the graph's document, which graph_from_dict
# refuses unless it equals the block derived from the atoms and edges.
STRUCTURAL_CASES = {
    "label-count": ([DataCopy(0, 1)], [], {"labels": ["a", "b"]}, "label count"),
    "label-repeat": (PAIR, [], {"labels": ["a", "a"]}, "unique"),
    "label-type": (PAIR, [], {"labels": ["a", 1]}, "labels must be strings, got 1"),
    "chain-repeat": (
        [DataCopy(0, 1), WireAtom(0, 1), WireAtom(0, 1)],
        [(1, 2)],
        {"labels": ["x", "w", "v"]},
        "duplicate chain",
    ),
    "chain-kinds": (
        [DataCopy(0, 1), WireAtom(0, 1), AFConstraintAtom(0, 2)], [(1, 2)], {}, "mixes"
    ),
    "wire-repeat": (ODD_ROLES, ODD_EDGES, {"wires": [ODD, ODD]}, WIRES_DIFFER),
    "wire-no-atoms": ([DataCopy(0, 1)], [], {"wires": [ODD]}, WIRES_DIFFER),
    "wire-on-constraint": (PAIR + [AFConstraintAtom(0, 1)], ODD_EDGES, {"wires": [ODD]}, WIRES_DIFFER),
    "wire-length": (ODD_ROLES, ODD_EDGES, {"wires": [ODD | {"length": 3}]}, WIRES_DIFFER),
    "even-wire-parity": (ODD_ROLES, ODD_EDGES, {"wires": [ODD | {"parity": "even"}]}, WIRES_DIFFER),
    "odd-wire-parity": (EVEN_ROLES, EVEN_EDGES, {"wires": [EVEN | {"parity": "odd"}]}, WIRES_DIFFER),
    "wire-endpoint": ([DataCopy(0, 1), WireAtom(0, 1)], [(0, 1)], {"wires": [ODD]}, WIRES_DIFFER),
    "wire-head": (EVEN_ROLES, EVEN_EDGES[1:], {"wires": [EVEN]}, WIRES_DIFFER),
    "wire-tail": (EVEN_ROLES, EVEN_EDGES[:2], {"wires": [EVEN]}, WIRES_DIFFER),
    "negative-copy": (PAIR + [DataCopy(-1, 1)], [], {}, "variable index must be an integer >= 0, got -1"),
    "negative-offset": ([DataCopy(0, 1), Offset(-1, 1)], [(0, 1)], {}, "of its variable"),
    "float-copy": ([DataCopy(0.5, 1)], [], {}, "variable index must be an integer >= 0, got 0.5"),
    "bool-copy": ([DataCopy(0, 1), DataCopy(True, 1)], [], {}, "variable index must be an integer >= 0, got True"),
    "bool-offset": ([DataCopy(0, 0), Offset(False, 0)], [(0, 1)], {}, "variable index must be an integer, got False"),
    "float-offset": ([DataCopy(0, 0), Offset(0.0, 0)], [(0, 1)], {}, "variable index must be an integer, got 0.0"),
}
WIRE_BLOCK_CASES = [case for case, (*_, kwargs, _) in STRUCTURAL_CASES.items() if "wires" in kwargs]


def structural_document(case):
    """The graph document of a STRUCTURAL_CASES row that declares a wires block."""
    roles, edges, kwargs, _ = STRUCTURAL_CASES[case]
    return graph_to_dict(AtomGraph(roles, edges)) | kwargs


class TestStructuralChecks:
    def test_the_unbroken_graphs_build(self):
        for roles, edges, wire in ((ODD_ROLES, ODD_EDGES, ODD), (EVEN_ROLES, EVEN_EDGES, EVEN)):
            doc = graph_to_dict(AtomGraph(roles, edges))
            assert doc["wires"] == [wire]
            assert graph_from_dict(doc) == AtomGraph(roles, edges)

    @pytest.mark.parametrize("case", STRUCTURAL_CASES)
    def test_check_raises(self, case):
        roles, edges, kwargs, message = STRUCTURAL_CASES[case]
        if case in WIRE_BLOCK_CASES:
            with pytest.raises(InputError, match=message):
                graph_from_dict(structural_document(case))
        else:
            with pytest.raises(GraphError, match=message):
                AtomGraph(roles, edges, **kwargs)


@pytest.mark.parametrize(
    "edge, message",
    [
        ((0,), "not a pair"),
        ((0.0, 1), "endpoint must be an integer, got 0.0"),
        ((False, 1), "endpoint must be an integer, got False"),
        ((0, 0), "self-loop"),
        ((0, 2), "missing atom"),
    ],
    ids=["not-pair", "float", "bool", "self-loop", "missing-atom"],
)
def test_edge_checks(edge, message):
    with pytest.raises(GraphError, match=message):
        AtomGraph(PAIR, [edge])


def mask_equivalence_instances():
    """The criterion-1 grid and seeded 2-6 variable instances."""
    out = [
        QuboInstance(n=2, linear={0: a, 1: b}, quadratic={(0, 1): c})
        for a, b, c in product(range(-2, 3), repeat=3)
    ]
    rng = random.Random(17)
    out += [random_instance(rng, n_range=(2, 6)) for _ in range(60)]
    return out


POLICIES = {
    "default": WireLengthPolicy(),
    "even4": WireLengthPolicy(even_atoms=4, odd_atoms=1),
    "odd3": WireLengthPolicy(even_atoms=2, odd_atoms=3),
}


@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
def test_compiled_masks_match_their_edges(policy):
    for q in mask_equivalence_instances():
        g = compile_qubo(q, policy=policy)
        assert list(g.masks) == reference_masks(g.atom_count, g.edges)
        public = AtomGraph(g.roles, g.edges, source=g.source, labels=g.labels)
        assert public == g and public.masks == g.masks and public.edges == g.edges
        assert graph_from_dict(graph_to_dict(g)) == g
        for atom in range(g.atom_count):
            assert g.neighbors(atom) == {b for a, b in g.edges if a == atom} | {
                a for a, b in g.edges if b == atom
            }


def seed_table(n):
    """Ten n-variable instances drawn with random.Random(n): every linear and
    pair coefficient uniform in [-2, 2], every pair present."""
    rng = random.Random(n)
    out = []
    for _ in range(10):
        linear = {i: rng.randint(-2, 2) for i in range(n)}
        out.append(QuboInstance(n=n, linear=linear, quadratic={
            (i, j): rng.randint(-2, 2) for i in range(n) for j in range(i + 1, n)
        }))
    return out


@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
def test_compiled_wires_are_one_per_coupling_unit(policy):
    for n in range(2, 9):
        for q in seed_table(n):
            expected = [
                (i, j, Parity.EVEN, policy.even_atoms) if w > 0 else (i, j, Parity.ODD, policy.odd_atoms)
                for (i, j), w in sorted(q.quadratic.items())
                for _ in range(abs(w))
            ]
            wires = compile_qubo(q, policy=policy).wires
            assert [w.wire for w in wires] == list(range(len(expected)))
            assert [(*w.endpoints, w.parity, w.length) for w in wires] == expected, q


class TestGraphJson:
    def test_round_trip_compiled_graph(self):
        g = compile_qubo(F7, policy=WireLengthPolicy(even_atoms=4, odd_atoms=1))
        doc = graph_to_dict(g)
        back = graph_from_dict(doc)
        assert back == g
        assert back.source == F7

    def test_round_trip_keeps_the_source_scale(self):
        q = normalize_to_integers({0: Fraction(-1, 2), 1: Fraction(1, 3)}, {(0, 1): Fraction(1, 4)})
        assert q.scale == 12
        doc = json.loads(json.dumps(graph_to_dict(compile_qubo(q))))
        assert doc["source"]["scale"] == "12"
        back = graph_from_dict(doc)
        assert back == compile_qubo(q) and back.source.scale == 12

    def test_round_trip_without_source(self):
        g = AtomGraph([DataCopy(0, 1), DataCopy(0, 2)], edges=[])
        back = graph_from_dict(graph_to_dict(g))
        assert back == g

    def test_derived_blocks_may_be_omitted(self):
        g = compile_qubo(F7)
        doc = graph_to_dict(g)
        del doc["variables"], doc["wires"]
        assert graph_from_dict(doc) == g

    def test_derived_blocks_must_match(self):
        doc = graph_to_dict(compile_qubo(F7))
        reordered = doc | {"variables": dict(reversed(doc["variables"].items()))}
        reordered["wires"] = [dict(reversed(w.items())) for w in doc["wires"]]
        assert graph_from_dict(json.loads(json.dumps(reordered))) == compile_qubo(F7)
        stale = [
            ("variables", doc["variables"] | {"1": [0]}),
            ("variables", doc["variables"] | {"1": [0, True]}),
            ("variables", {}),
            ("wires", doc["wires"][1:]),
            ("wires", doc["wires"][::-1]),
            ("wires", [w | {"length": float(w["length"])} for w in doc["wires"]]),
            ("wires", None),
        ]
        for key, block in stale:
            with pytest.raises(InputError, match=f"'{key}' block does not match"):
                graph_from_dict(doc | {key: block})

    def test_labels_must_be_strings(self):
        doc = graph_to_dict(compile_qubo(F3))
        for bad in (["a"], True, 0, None):
            doc["atoms"][1]["label"] = bad
            with pytest.raises(GraphError, match=re.escape(f"labels must be strings, got {bad!r}")):
                graph_from_dict(doc)
        # An absent or empty label makes every label the default.
        defaults = AtomGraph(compile_qubo(F3).roles, compile_qubo(F3).edges).labels
        doc["atoms"][1]["label"] = ""
        assert graph_from_dict(doc).labels == defaults
        del doc["atoms"][1]["label"]
        assert graph_from_dict(doc).labels == defaults

    def test_malformed_ids_rejected(self):
        g = compile_qubo(F1)
        doc = graph_to_dict(g)
        doc["atoms"][0]["id"] = 5
        with pytest.raises(InputError):
            graph_from_dict(doc)


class TestGroundDecodeUnanimity:
    def test_every_ground_config_decodes(self):
        # Every maximum independent set of a compiled graph must be
        # copy-unanimous, with each offset opposite its data atom; exercised
        # across random instances.
        from rydqubo.solver import enumerate_ground_configs

        rng = random.Random(23)
        for _ in range(25):
            q = random_instance(rng, n_range=(1, 3))
            g = compile_qubo(q)
            offsets = [(atom, role.var) for atom, role in enumerate(g.roles) if isinstance(role, Offset)]
            _, configs = enumerate_ground_configs(g, cap=40)
            for config in configs:
                assignment = try_decode(g, config)
                assert assignment is not None
                assert all(config[atom] == 1 - assignment[var] for atom, var in offsets), config

    def test_long_wire_policy_still_certifies(self):
        # Chain lengths change constants only, never the decoded ground set.
        from rydqubo.solver import certify_equivalence

        rng = random.Random(5)
        policy = WireLengthPolicy(even_atoms=4, odd_atoms=3)
        for _ in range(15):
            q = random_instance(rng, n_range=(2, 3))
            report = certify_equivalence(q, compile_qubo(q, policy=policy), enum_cap=40)
            assert report.passed, (q, report.to_dict())

    def test_scaling_changes_atoms_not_solutions(self):
        rng = random.Random(31)
        from rydqubo.solver import certify_equivalence

        for _ in range(10):
            q = random_instance(rng, n_range=(2, 3), coeff=1)
            scaled = QuboInstance(
                n=q.n,
                linear={v: 2 * c for v, c in q.linear.items()},
                quadratic={pair: 2 * w for pair, w in q.quadratic.items()},
            )
            if planned_atom_count(q) == planned_atom_count(scaled):
                continue  # possible only for the all-zero instance
            report = certify_equivalence(scaled, compile_qubo(scaled), enum_cap=40)
            assert report.passed
            assert set(report.decoded) == set(brute_force_minima(q)[1])
