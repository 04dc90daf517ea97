"""Tests for exact ground-state enumeration, wire tables, certification, MWIS."""

import logging
import random
from fractions import Fraction
from itertools import product

import pytest

from rydqubo import solver
from rydqubo.compiler import (
    AtomGraph,
    DataCopy,
    Parity,
    WireAtom,
    WireLengthPolicy,
    compile_qubo,
    try_decode,
)
from rydqubo.errors import CapExceeded, InputError
from rydqubo.geometry import builtin_names, load_builtin_layout
from rydqubo.qubo import QuboInstance, brute_force_minima
from rydqubo.sim import af_predicate
from rydqubo.solver import (
    certify_equivalence,
    enumerate_ground_configs,
    mwis_expand,
    wire_table,
)

F3 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): 1})
F4 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): -1})

# Only the first copy of x1 touches x2, so a maximum set may split x1.
SPLIT_GRAPH = AtomGraph([DataCopy(0, 1), DataCopy(0, 2), DataCopy(1, 1)], [(0, 2)])
SPLIT_QUBO = QuboInstance(n=2, linear={0: -2, 1: -1}, quadratic={(0, 1): 3})

REFERENCE_ENUM_CAP = 25

# Of the 1,200 random hand-made graphs in ``test_random_graphs_with_split_copies``,
# each with some variable in two or more copy classes, those with a ground
# configuration that splits a variable.
SPLIT_COUNT = 1019


def enumerate_mis_reference(graph, cap=REFERENCE_ENUM_CAP):
    """Plain sweep over all 2**n configurations; the oracle for the size search.

    It reads ``graph.edges``, not the adjacency masks the solver searches,
    and returns what ``enumerate_ground_configs`` does: ``(-|MIS|, sets)``.
    """
    n = graph.atom_count
    if n > cap:
        raise CapExceeded(f"reference enumeration capped at {cap} atoms, got {n}")
    best, found = -1, []
    for config in product((0, 1), repeat=n):
        if any(config[a] and config[b] for a, b in graph.edges):
            continue
        size = sum(config)
        if size > best:
            best, found = size, [config]
        elif size == best:
            found.append(config)
    return -best, tuple(sorted(found))


def plain_graph(n, edges):
    """Unlabeled independent-set instance: n single-copy vertices."""
    return AtomGraph([DataCopy(var=v, copy_index=1) for v in range(n)], edges)


def random_plain_graph(rng, max_n=12):
    n = rng.randint(1, max_n)
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.35
    ]
    return plain_graph(n, edges)


class TestEnumerate:
    def test_two_isolated_atoms(self):
        g = plain_graph(2, [])
        energy, configs = enumerate_ground_configs(g)
        assert energy == -2
        assert configs == ((1, 1),)

    def test_single_atom(self):
        energy, configs = enumerate_ground_configs(plain_graph(1, []))
        assert energy == -1
        assert configs == ((1,),)

    def test_four_cycle_has_two_ground_sets(self):
        g = plain_graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        energy, configs = enumerate_ground_configs(g)
        assert energy == -2
        assert set(configs) == {(1, 1, 0, 0), (0, 0, 1, 1)}

    def test_cap(self):
        g = plain_graph(8, [])
        with pytest.raises(CapExceeded):
            enumerate_ground_configs(g, cap=7)

    def test_listing_above_the_reference_cap(self, monkeypatch):
        # 14 disjoint edges: every maximum set takes one atom of each edge.
        edges = [(2 * k, 2 * k + 1) for k in range(14)]
        g = plain_graph(28, edges)
        assert g.atom_count > REFERENCE_ENUM_CAP
        calls = 0
        mis_size = solver._mis_size

        def counted(*args):
            nonlocal calls
            calls += 1
            return mis_size(*args)

        monkeypatch.setattr(solver, "_mis_size", counted)
        energy, configs = enumerate_ground_configs(g)
        expected = sorted(
            tuple(b for p in pick for b in (p, 1 - p)) for pick in product((0, 1), repeat=14)
        )
        assert energy == -14
        assert configs == tuple(expected)
        assert calls <= 2 * g.atom_count * len(configs) + 1

    def test_branch_and_bound_matches_reference(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_plain_graph(rng)
            assert enumerate_ground_configs(g) == enumerate_mis_reference(g)

    def test_bnb_matches_reference_on_compiled_graphs(self):
        rng = random.Random(6)
        for _ in range(15):
            n = rng.randint(1, 3)
            q = QuboInstance(
                n=n,
                linear={i: rng.randint(-2, 2) for i in range(n)},
                quadratic={
                    (i, j): rng.randint(-2, 2)
                    for i in range(n)
                    for j in range(i + 1, n)
                },
            )
            g = compile_qubo(q)
            if g.atom_count > 20:
                continue
            assert enumerate_ground_configs(g) == enumerate_mis_reference(g)

    @pytest.mark.parametrize("name", builtin_names())
    def test_bundled_graphs_match_reference(self, name):
        graph, _ = load_builtin_layout(name)
        assert enumerate_ground_configs(graph) == enumerate_mis_reference(graph)


def penalty_minima(graph, ratio):
    """Ground energy, in delta units, and ground set of a finite pair penalty.

    The energy u * (excited edges) - delta * (excited atoms) with
    u/delta = p/s is the QUBO with -s on every atom and p on every edge,
    scaled by s/delta, so its integer minimum over s is exact.
    """
    ratio = Fraction(ratio)
    p, s = ratio.numerator, ratio.denominator
    scores = QuboInstance(
        graph.atom_count,
        linear={k: -s for k in range(graph.atom_count)},
        quadratic={edge: p for edge in graph.edges},
    )
    best, configs = brute_force_minima(scores)
    return Fraction(best, s), configs


class TestSoftPenalty:
    """Why hard blockade is the only diagonal model.

    With u > delta, de-exciting one atom of an excited blockaded pair
    changes the energy by delta - k * u < 0 for some k >= 1, so every ground
    configuration of the penalty is independent and its ground set is the
    MIS set.
    """

    def test_agrees_with_hard_blockade_above_the_bound(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_plain_graph(rng, max_n=9)
            expected = enumerate_mis_reference(g)
            for ratio in (Fraction(7, 6), Fraction(3, 2), 2, g.atom_count + 1):
                assert penalty_minima(g, ratio) == expected, (g.edges, ratio)

    def test_fractional_energies_are_exact(self):
        # delta = 3, u = 7/2: one excited atom, energy -delta, i.e. -1 in delta units.
        g = plain_graph(2, [(0, 1)])
        energy, configs = penalty_minima(g, Fraction(7, 2) / 3)
        assert (energy, configs) == enumerate_mis_reference(g)
        assert energy == -1
        assert set(configs) == {(1, 0), (0, 1)}

    def test_the_bound_is_needed(self):
        # At u = delta, exciting both atoms of an edge costs what the second
        # excitation gains, so a blockade violation reaches the ground energy.
        g = plain_graph(2, [(0, 1)])
        energy, configs = penalty_minima(g, 1)
        assert energy == enumerate_mis_reference(g)[0] == -1
        assert configs == ((0, 1), (1, 0), (1, 1))


class TestWireTable:
    # Closed-form conditional energies in delta units, by endpoint state.
    EVEN_EXPECTED = {(1, 1): lambda m: m - 1, (1, 0): lambda m: m, (0, 1): lambda m: m, (0, 0): lambda m: m}
    ODD_EXPECTED = {(1, 1): lambda m: m, (1, 0): lambda m: m, (0, 1): lambda m: m, (0, 0): lambda m: m + 1}

    def test_even_table_all_rows(self):
        for m in range(1, 4):
            for state, expected in self.EVEN_EXPECTED.items():
                energy, configs = wire_table(Parity.EVEN, m, state)
                assert energy == -expected(m), (m, state)
                assert configs

    def test_odd_table_all_rows(self):
        for m in range(0, 4):
            for state, expected in self.ODD_EXPECTED.items():
                energy, configs = wire_table(Parity.ODD, m, state)
                assert energy == -expected(m), (m, state)

    def test_even_both_off_row_is_degenerate(self):
        for m in range(1, 4):
            _, configs = wire_table(Parity.EVEN, m, (0, 0))
            assert len(configs) >= 2
            # the two canonical alternating patterns are always present
            head_loaded = tuple(1 - (p % 2) for p in range(2 * m))
            tail_loaded = tuple((1, 0) * (m - 1) + (0, 1)) if m > 1 else (0, 1)
            assert head_loaded in configs
            assert tail_loaded in configs

    def test_odd_single_atom_rows(self):
        energy, configs = wire_table(Parity.ODD, 0, (0, 0))
        assert energy == -1 and configs == ((1,),)
        energy, configs = wire_table(Parity.ODD, 0, (1, 0))
        assert energy == 0 and configs == ((0,),)

    def test_agrees_with_chain_enumeration_oracle(self):
        # Independent oracle: enumerate the entire clamped chain by hand.
        def oracle(length, bi, bj):
            best = None
            count = 0
            for bits in product((0, 1), repeat=length):
                if bi and bits[0]:
                    continue
                if bj and bits[-1]:
                    continue
                if any(bits[p] and bits[p + 1] for p in range(length - 1)):
                    continue
                s = sum(bits)
                if best is None or s > best:
                    best, count = s, 1
                elif s == best:
                    count += 1
            return -best, count

        for parity, m_values in ((Parity.EVEN, range(1, 4)), (Parity.ODD, range(0, 4))):
            for m in m_values:
                length = 2 * m if parity is Parity.EVEN else 2 * m + 1
                for state in product((0, 1), repeat=2):
                    energy, configs = wire_table(parity, m, state)
                    expect_energy, expect_count = oracle(length, *state)
                    assert energy == expect_energy
                    assert len(configs) == expect_count

    def test_symmetric_under_endpoint_swap_and_reversal(self):
        for parity, m_values in ((Parity.EVEN, range(1, 4)), (Parity.ODD, range(0, 4))):
            for m in m_values:
                for bi, bj in product((0, 1), repeat=2):
                    e1, c1 = wire_table(parity, m, (bi, bj))
                    e2, c2 = wire_table(parity, m, (bj, bi))
                    assert e1 == e2
                    assert sorted(tuple(reversed(c)) for c in c2) == sorted(c1)

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            wire_table(Parity.EVEN, 0, (0, 0))
        with pytest.raises(InputError):
            wire_table(Parity.ODD, -1, (0, 0))
        with pytest.raises(InputError):
            wire_table(Parity.ODD, 1, (0, 2))


class TestCertify:
    def test_f3_passes(self):
        report = certify_equivalence(F3, compile_qubo(F3))
        assert report.passed
        assert set(report.decoded) == {(1, 0)}
        assert report.qubo_min_value == -2

    def test_f4_passes_with_degeneracy(self):
        report = certify_equivalence(F4, compile_qubo(F4))
        assert report.passed
        assert set(report.decoded) == {(1, 0), (1, 1)}

    def test_mutated_graph_fails_with_counterexample(self):
        # The compiled LINK constraint is a four-cycle; deleting one
        # wire-terminal edge lets a spurious assignment reach the ground
        # energy.  (Descriptors are dropped: the mutation breaks their
        # adjacency contract by construction.)
        q = QuboInstance(n=2, linear={0: 1, 1: 1}, quadratic={(0, 1): -2})
        g = compile_qubo(q)
        removed = (0, 2)
        assert removed in g.edges
        broken = AtomGraph(
            g.roles, g.edges - {removed}, wires=(), source=g.source, labels=g.labels
        )
        report = certify_equivalence(q, broken)
        assert not report.passed
        assert (1, 0) in report.spurious

    def test_variable_count_mismatch(self):
        with pytest.raises(InputError):
            certify_equivalence(F3, compile_qubo(QuboInstance(n=1, linear={0: -1})))

    def test_report_json_round_trip(self):
        import json

        report = certify_equivalence(F4, compile_qubo(F4))
        doc = json.loads(report.to_json())
        assert doc["pass"] is True
        assert doc["qubo_min_value"] == -2
        assert sorted(map(tuple, doc["decoded"])) == [(1, 0), (1, 1)]

    def test_constant_instance_passes_with_full_argmin(self):
        q = QuboInstance(n=2)
        report = certify_equivalence(q, compile_qubo(q))
        assert report.passed
        assert len(report.decoded) == 4

    @pytest.mark.parametrize("case", ["compiled", "split", "classes"])
    def test_caps_precede_the_ground_set_search(self, monkeypatch, case):
        def search(*args, **kwargs):
            raise AssertionError("the ground-set search ran before the cap")

        monkeypatch.setattr(solver, "_maximum_sets", search)
        monkeypatch.setattr(solver, "_component_tables", search)
        if case == "compiled":
            # Three variables above a cap of two.
            q = QuboInstance(n=3, linear={0: -1, 1: 1}, quadratic={(0, 1): 1, (1, 2): -1})
            args, match = (q, compile_qubo(q), 30, 2), "n=3 above cap 2"
        elif case == "split":
            # Two variables within the cap, but three copy classes above it.
            args, match = (SPLIT_QUBO, SPLIT_GRAPH, 30, 2), "capped at 2 copy classes, got 3"
        else:
            # One variable whose 25 copies each touch their own auxiliary
            # atom: 25 copy classes, one above the default cap.
            roles = [DataCopy(0, k) for k in range(1, 26)] + [WireAtom(w, 1) for w in range(25)]
            graph = AtomGraph(roles, [(k, 25 + k) for k in range(25)])
            args, match = (QuboInstance(n=1, linear={0: -1}), graph), "capped at 24 copy classes, got 25"
        with pytest.raises(CapExceeded, match=match):
            certify_equivalence(*args)


def listing_reference(q, graph, enum_cap=64):
    """The certificate read off a listing of every ground configuration.

    The slow reference of the clamped search: each maximum set of the whole
    graph is decoded on its own, and one whose copies disagree is reported.
    """
    energy, configs = enumerate_ground_configs(graph, cap=enum_cap)
    decoded, inconsistent = set(), []
    for config in configs:
        assignment = try_decode(graph, config)
        if assignment is None:
            inconsistent.append(list(config))
        else:
            decoded.add(assignment)
    min_value, argmin = brute_force_minima(q)
    spurious, missing = sorted(decoded - set(argmin)), sorted(set(argmin) - decoded)
    return {
        "pass": not spurious and not missing and not inconsistent,
        "ground_energy_delta_units": energy,
        "qubo_min_value": min_value,
        "decoded": [list(a) for a in sorted(decoded)],
        "expected": [list(a) for a in argmin],
        "spurious": [list(a) for a in spurious],
        "missing": [list(a) for a in missing],
        "inconsistent_configs": inconsistent,
    }


def assert_matches_listing(q, graph, enum_cap=64):
    report = certify_equivalence(q, graph, enum_cap=enum_cap).to_dict()
    assert report == listing_reference(q, graph, enum_cap)
    return report


def assert_twins_match_listing(q, graph):
    """One copy class per variable (every compiled graph): no ground configuration splits one."""
    assert len(solver._copy_classes(graph)) == graph.n_vars
    assert assert_matches_listing(q, graph)["inconsistent_configs"] == []


def random_split_graph(rng):
    """A hand-made graph of 1-3 variables with 1-3 copies each and 0-5 auxiliary atoms.

    Each allowed edge is drawn with probability 0.3; copies of one variable
    are never adjacent.  Also returns a random [-2, 2] instance.
    """
    n = rng.randint(1, 3)
    roles = [DataCopy(v, k) for v in range(n) for k in range(1, rng.randint(1, 3) + 1)]
    copies = len(roles)
    roles += [WireAtom(w, 1) for w in range(rng.randint(0, 5))]
    edges = [
        (a, b)
        for a in range(len(roles))
        for b in range(a + 1, len(roles))
        if not (b < copies and roles[a].var == roles[b].var) and rng.random() < 0.3
    ]
    q = QuboInstance(
        n=n,
        linear={i: rng.randint(-2, 2) for i in range(n)},
        quadratic={(i, j): rng.randint(-2, 2) for i in range(n) for j in range(i + 1, n)},
    )
    return q, AtomGraph(roles, edges)


def criterion_1_instances():
    """The 125-instance grid and the 200 seeded instances of acceptance criterion 1."""
    for q11, q22, q12 in product(range(-2, 3), repeat=3):
        yield QuboInstance(n=2, linear={0: q11, 1: q22}, quadratic={(0, 1): q12})
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.choice((3, 4))
        yield QuboInstance(
            n=n,
            linear={i: rng.randint(-2, 2) for i in range(n)},
            quadratic={(i, j): rng.randint(-2, 2) for i in range(n) for j in range(i + 1, n)},
        )


def mis_qubo(weights, edges):
    """QUBO whose argmin is the maximum weighted independent sets of the graph."""
    penalty = sum(weights) + 1
    return QuboInstance(
        n=len(weights),
        linear={v: -w for v, w in enumerate(weights)},
        quadratic={tuple(sorted(e)): penalty for e in edges},
    )


class TestClampedCertify:
    """The clamped search over copy classes against the listing reference."""

    def test_criterion_1_instances(self):
        for q in criterion_1_instances():
            assert_twins_match_listing(q, compile_qubo(q))

    @pytest.mark.parametrize("name", builtin_names())
    def test_bundled_graphs(self, name):
        graph, _ = load_builtin_layout(name)
        # G6P's two copies of x1 differ in their neighbours: two classes.
        classes = [v for v, _, _ in solver._copy_classes(graph)]
        assert classes == ([0, 0, 1] if name == "G6P" else list(range(graph.n_vars)))
        assert_matches_listing(graph.source, graph)

    def test_random_graphs_with_split_copies(self):
        rng = random.Random(31)
        graphs = splits = 0
        while graphs < 1200:
            q, graph = random_split_graph(rng)
            if len(solver._copy_classes(graph)) == graph.n_vars:
                continue  # every copy class is a whole variable
            graphs += 1
            splits += bool(assert_matches_listing(q, graph)["inconsistent_configs"])
        assert splits == SPLIT_COUNT

    def test_mwis_expansions(self):
        rng = random.Random(8)
        cases = [([1, 2, 1], [(0, 1), (1, 2)]), ([3, 1, 1], [(0, 1), (0, 2), (1, 2)])]
        for _ in range(20):
            n = rng.randint(1, 5)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
            cases.append(([rng.randint(1, 3) for _ in range(n)], edges))
        for weights, edges in cases:
            q, graph = mis_qubo(weights, edges), mwis_expand(weights, edges)
            assert_twins_match_listing(q, graph)
            assert certify_equivalence(q, graph).passed

    @pytest.mark.parametrize("even, odd", [(4, 1), (2, 3), (6, 5)])
    def test_longer_wires(self, even, odd):
        policy = WireLengthPolicy(even_atoms=even, odd_atoms=odd)
        rng = random.Random(even * 10 + odd)
        for _ in range(15):
            n = rng.randint(2, 3)
            q = QuboInstance(
                n=n,
                linear={i: rng.randint(-2, 2) for i in range(n)},
                quadratic={(i, j): rng.randint(-2, 2) for i in range(n) for j in range(i + 1, n)},
            )
            assert_twins_match_listing(q, compile_qubo(q, policy))

    def test_hand_made_graph_with_adjacent_copies(self):
        # x1 (two copies) and x2 are adjacent; one hub atom touches all three
        # variables; a five-cycle of auxiliary atoms hangs off x3 and needs a
        # branch in the size search.
        roles = [DataCopy(0, 1), DataCopy(0, 2), DataCopy(1, 1), DataCopy(2, 1)]
        roles += [WireAtom(wire=0, chain_position=1)]
        roles += [WireAtom(wire=1, chain_position=p) for p in range(1, 6)]
        edges = [(0, 2), (1, 2), (4, 0), (4, 1), (4, 2), (4, 3)]
        edges += [(5, 6), (6, 7), (7, 8), (8, 9), (9, 5), (3, 5)]
        graph = AtomGraph(roles, edges)
        tables, components, largest = solver._component_tables(graph, solver._copy_classes(graph), cap=64)
        assert (components, largest) == (2, 5)
        assert tables[(0, 1, 2)] == [1] + [0] * 7
        # Three single-copy variables, each pair adjacent.
        triangle = AtomGraph([DataCopy(v, 1) for v in range(3)], [(0, 1), (1, 2), (0, 2)])
        for q, g in product(
            (
                QuboInstance(n=3, linear={0: -2, 1: -1, 2: -1}),
                QuboInstance(n=3, linear={0: -1, 1: -3, 2: 1}, quadratic={(0, 2): -1}),
                QuboInstance(n=3),
            ),
            (graph, triangle),
        ):
            assert_twins_match_listing(q, g)

    def test_split_ground_configurations_are_listed(self):
        # x1's copies form two classes; the maximum set {x1^(2), x2} splits x1.
        assert solver._copy_classes(SPLIT_GRAPH) == [(0, 0b001, 0b100), (0, 0b010, 0), (1, 0b100, 0b001)]
        report = assert_matches_listing(SPLIT_QUBO, SPLIT_GRAPH)
        assert report["inconsistent_configs"] == [[0, 1, 1]]
        assert not report["pass"]
        # The witnesses are listed under the whole-graph atom cap.
        with pytest.raises(CapExceeded, match="capped at 2 atoms, got 3"):
            certify_equivalence(SPLIT_QUBO, SPLIT_GRAPH, enum_cap=2)

    def test_unsplit_graph_above_the_listing_cap_certifies(self):
        # x1's copies form two classes, but no maximum set splits them, so
        # nothing is listed and the whole-graph cap does not apply.
        # The one wire atom blocks both x1^(1) and x2, so leaving it out wins.
        q = QuboInstance(n=2, linear={0: -2, 1: -1})
        graph = AtomGraph(
            [DataCopy(0, 1), DataCopy(0, 2), DataCopy(1, 1), WireAtom(0, 1)], [(0, 3), (2, 3)]
        )
        assert len(solver._copy_classes(graph)) == 3
        report = certify_equivalence(q, graph, enum_cap=2)
        assert report.passed and report.decoded == ((1, 1),)
        assert report.to_dict() == listing_reference(q, graph)

    @pytest.mark.parametrize(
        "parity, m", [(Parity.EVEN, m) for m in (1, 2, 3)] + [(Parity.ODD, m) for m in (0, 1, 2, 3)]
    )
    def test_chain_tables_match_wire_table(self, parity, m):
        if parity is Parity.EVEN:
            q, policy = QuboInstance(n=2, quadratic={(0, 1): 1}), WireLengthPolicy(even_atoms=2 * m)
        else:
            q, policy = QuboInstance(n=2, quadratic={(0, 1): -1}), WireLengthPolicy(odd_atoms=2 * m + 1)
        graph = compile_qubo(q, policy)
        tables, _, largest = solver._component_tables(graph, solver._copy_classes(graph), cap=64)
        assert largest == (2 * m if parity is Parity.EVEN else 2 * m + 1)
        # Entry s sets x1 on bit 0 and x2 on bit 1.
        assert tables[(0, 1)] == [-wire_table(parity, m, (s & 1, s >> 1))[0] for s in range(4)]

    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    def test_offset_star_table(self, target):
        # One data atom with target + 1 offsets: alpha is target + 1 with the
        # atom off and 1 (the atom itself) with it on.
        graph = compile_qubo(QuboInstance(n=1, linear={0: target}))
        tables, components, largest = solver._component_tables(graph, solver._copy_classes(graph), cap=64)
        assert tables == {(0,): [target + 1, 1]}
        assert (components, largest) == (target + 1, 1)

    def test_size_search_matches_reference(self):
        rng = random.Random(12)
        for _ in range(60):
            g = random_plain_graph(rng, max_n=14)
            everything = (1 << g.atom_count) - 1
            size = solver._mis_size(g.masks, everything)
            assert -size == enumerate_mis_reference(g)[0]

    def test_one_debug_record_per_certification(self, caplog):
        # The split graph has three copy classes and no atom outside them.
        with caplog.at_level(logging.DEBUG, logger="rydqubo"):
            certify_equivalence(F3, compile_qubo(F3))
            certify_equivalence(F3, SPLIT_GRAPH)
        messages = [r.getMessage() for r in caplog.records if r.name == "rydqubo"]
        assert messages == [
            "certify: components=3 largest=2 assignments=4 oracle=4",
            "certify: components=0 largest=0 assignments=8 oracle=4",
        ]


class TestMwis:
    def test_weighted_path_duplicates_the_heavy_vertex(self):
        g = mwis_expand([1, 2, 1], [(0, 1), (1, 2)])
        assert g.atom_count == 4
        energy, configs = enumerate_ground_configs(g)
        assert energy == -2
        decoded = sorted({try_decode(g, c) for c in configs})
        assert decoded == [(0, 1, 0), (1, 0, 1)]

    def test_unit_weights_are_the_identity_expansion(self):
        g = mwis_expand([1, 1, 1], [(0, 1)])
        assert g.atom_count == 3
        assert g.edges == frozenset({(0, 1)})

    def test_weighted_triangle(self):
        # Oracle: brute-force weighted maximisation over the 8 subsets.
        weights = [3, 1, 1]
        edges = [(0, 1), (0, 2), (1, 2)]
        best, winners = -1, set()
        for bits in product((0, 1), repeat=3):
            if any(bits[a] and bits[b] for a, b in edges):
                continue
            score = sum(w * b for w, b in zip(weights, bits))
            if score > best:
                best, winners = score, {bits}
            elif score == best:
                winners.add(bits)
        assert winners == {(1, 0, 0)}

        g = mwis_expand(weights, edges)
        _, configs = enumerate_ground_configs(g)
        assert {try_decode(g, c) for c in configs} == winners

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InputError):
            mwis_expand([1, 0], [(0, 1)])

    def test_bad_edge_rejected(self):
        # Endpoints must be ints in range: 0.5 and 1.0 are no vertex index,
        # and True is not vertex 1.
        with pytest.raises(InputError, match="not valid"):
            mwis_expand([1, 1], [(0, 2)])
        for edge in ((0.5, 1), (True, 0), (0, 1.0)):
            with pytest.raises(InputError, match="endpoint must be an integer"):
                mwis_expand([1, 1], [edge])


class TestAfFilter:
    def test_graph_without_constraints_accepts_everything(self):
        g = compile_qubo(F3)
        assert af_predicate(g)((0,) * g.atom_count)
        assert af_predicate(g)("0" * g.atom_count)

    def test_constraint_pairs_must_alternate(self):
        g, _ = load_builtin_layout("G5P")
        assert g.af_pairs() == ((0, 1),)
        pred = af_predicate(g)
        bits = [0] * g.atom_count
        assert not pred(bits)
        assert not pred("".join(map(str, bits)))
        bits[1] = 1
        assert pred(bits)
        assert pred(tuple(bits))
        assert pred("".join(map(str, bits)))
