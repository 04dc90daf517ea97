"""Tests for the integer and finite-real rules that every input check uses."""

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from rydqubo.compiler import (
    AFConstraintAtom,
    AtomGraph,
    DataCopy,
    Offset,
    Parity,
    WireAtom,
    WireDescriptor,
    WireLengthPolicy,
    compile_qubo,
    graph_to_dict,
)
from rydqubo.errors import GraphError, InputError, require_finite, require_int, require_real
from rydqubo.geometry import Layout, PhysicalParams
from rydqubo.qubo import QuboInstance, brute_force_minima
from rydqubo.sim import (
    HamiltonianSpec,
    PulseSchedule,
    StateDistribution,
    build_hamiltonian,
    evolve,
    sample_distribution,
)
from rydqubo.solver import certify_equivalence, enumerate_ground_configs, mwis_expand
from test_sim import ConstantSchedule

# Neither rule takes these: bools of either kind, non-numbers, Decimal and complex.
REFUSED_BY_BOTH = [True, False, np.bool_(True), None, "1", Decimal(3), 1j, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", REFUSED_BY_BOTH + [1.5, np.float64(2.0), Fraction(1, 2)], ids=repr)
def test_require_int_refuses(value):
    with pytest.raises(InputError, match="^n must be an integer, got "):
        require_int(value, "n")


@pytest.mark.parametrize("value", REFUSED_BY_BOTH + [10**400, Fraction(10**400)], ids=repr)
def test_require_real_refuses(value):
    with pytest.raises(InputError, match="^x must be a finite real number, got "):
        require_real(value, "x")


@pytest.mark.parametrize(
    "value, expected",
    [(7, 7), (-3, -3), (np.int64(7), 7), (np.uint8(255), 255), (np.int8(-2), -2), (10**400, 10**400)],
    ids=repr,
)
def test_require_int_returns_a_python_int(value, expected):
    out = require_int(value, "n")
    assert type(out) is int and out == expected


@pytest.mark.parametrize(
    "value, expected",
    [(0.25, 0.25), (3, 3.0), (np.int64(2), 2.0), (np.uint8(4), 4.0),
     (np.float32(0.5), 0.5), (Fraction(1, 2), 0.5), (-1e308, -1e308)],
    ids=repr,
)
def test_require_real_returns_a_float(value, expected):
    out = require_real(value, "x")
    assert type(out) is float and out == expected


def test_least_is_an_inclusive_lower_bound():
    assert require_int(1, "k", 1) == 1
    assert require_int(np.int64(0), "k", 0) == 0
    for bad in (0, np.int64(-1)):
        with pytest.raises(InputError, match=r"^k must be an integer >= 1, got -?\d+$"):
            require_int(bad, "k", 1)
    with pytest.raises(InputError, match="k must be an integer >= 1, got 1.5"):
        require_int(1.5, "k", 1)
    assert require_real(0, "m", 0) == 0.0
    assert require_real(Fraction(1, 3), "m", 0.25) == pytest.approx(1 / 3)
    with pytest.raises(InputError, match="^m must be a finite real number >= 0, got -0.1$"):
        require_real(-0.1, "m", 0)


def test_require_int_raises_the_given_class():
    for error in (GraphError, ValueError):
        with pytest.raises(error, match="edge endpoint"):
            require_int(1.5, "edge endpoint", error=error)
        with pytest.raises(error):
            require_int(-1, "edge endpoint", 0, error)


def test_require_finite_stores_floats_and_names_the_field():
    @dataclass(frozen=True)
    class Record:
        a: float = 1
        b: float = 2.5

    record = Record(np.int64(3), Fraction(1, 4))
    require_finite(record)
    assert (record.a, record.b) == (3.0, 0.25) and type(record.a) is float
    for bad in (None, True, "1", math.nan):
        with pytest.raises(InputError, match="^b must be a finite real number"):
            require_finite(Record(b=bad))


@pytest.mark.parametrize(
    "build",
    [
        lambda: PulseSchedule(omega0=None),
        lambda: PulseSchedule(omega0=True),
        lambda: ConstantSchedule("1", 0.0, 1.0),
        lambda: PhysicalParams(c6=None),
        lambda: PhysicalParams(delta=True),
        lambda: PhysicalParams(delta=np.bool_(True)),
    ],
    ids=["omega0-none", "omega0-bool", "omega-str", "c6-none", "delta-bool", "delta-np-bool"],
)
def test_dataclass_fields_take_the_real_rule(build):
    with pytest.raises(InputError, match="must be a finite real number"):
        build()


def test_dataclass_fields_are_stored_as_floats():
    schedule = PulseSchedule(total_time=np.int64(3), omega0=Fraction(1, 2), delta_f=np.float32(4.5))
    assert schedule == PulseSchedule(total_time=3.0, omega0=0.5, delta_f=4.5)
    assert all(type(v) is float for v in (schedule.total_time, schedule.omega0, schedule.delta_f))
    assert type(PhysicalParams(delta=np.int64(5)).delta) is float


class TestNumpyIntegersActAsPythonInts:
    def test_evolve_steps(self):
        spec = HamiltonianSpec(n=2, couplings=((0, 1, 20.0),))
        plain = evolve(spec, steps=40)
        assert np.array_equal(evolve(spec, steps=np.int64(40)), plain)

    def test_hamiltonian_spec(self):
        spec = HamiltonianSpec(n=np.int64(2), couplings=((np.int64(0), np.uint8(1), np.int64(3)),))
        assert spec == HamiltonianSpec(n=2, couplings=((0, 1, 3.0),))
        assert type(spec.n) is int and all(type(x) is int for x in spec.couplings[0][:2])

    def test_mwis_expand(self):
        graph = mwis_expand([np.int64(2), np.int32(1)], [(np.int64(0), np.int64(1))])
        assert graph == mwis_expand([2, 1], [(0, 1)])
        assert mwis_expand([np.int64(2)], []) == mwis_expand([2], [])

    def test_qubo_instance(self):
        q = QuboInstance(n=np.int64(2), linear={np.int64(0): np.int64(-1)}, quadratic={(np.int8(0), 1): np.int16(2)})
        assert q == QuboInstance(n=2, linear={0: -1}, quadratic={(0, 1): 2})
        assert type(q.n) is int and type(q.linear[0]) is int
        assert q.scaled(np.int64(3)) == q.scaled(3)

    def test_compile_policy(self):
        q = QuboInstance(n=2, linear={0: -1}, quadratic={(0, 1): 1})
        policy = WireLengthPolicy(even_atoms=np.int64(4), odd_atoms=np.int64(3))
        assert policy == WireLengthPolicy(4, 3)
        assert compile_qubo(q, policy) == compile_qubo(q, WireLengthPolicy(4, 3))

    def test_atom_graph_edges_beyond_64_atoms(self):
        # A numpy endpoint would wrap 1 << 70 in int64 arithmetic.
        roles = [DataCopy(v, 1) for v in range(72)]
        graph = AtomGraph(roles, [(np.int64(0), np.int64(70)), (np.uint8(71), np.int64(3))])
        assert graph == AtomGraph(roles, [(0, 70), (71, 3)])
        assert graph.masks[0] == 1 << 70 and all(type(m) is int for m in graph.masks)

    def test_layout_ids(self):
        layout = Layout({np.int64(0): (np.float32(0.5), np.int64(2))})
        assert layout == Layout({0: (0.5, 2.0)})
        assert all(type(atom) is int for atom in layout.positions)

    def test_distribution_top_and_sampling(self):
        dist = StateDistribution({"01": 0.75, "10": 0.25})
        assert dist.top(np.int64(1)) == dist.top(1) == [("01", 0.75)]
        sampled = sample_distribution(dist, shots=np.int64(500), seed=np.uint8(3))
        assert sampled == sample_distribution(dist, shots=500, seed=3)
        assert type(sampled.shots) is int


F3 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): 1})
F3_GRAPH = compile_qubo(F3)

# Every cap argument, called with a cap it stays under at 30.
CAP_CALLS = {
    "compile_qubo-max_atoms": (lambda cap: compile_qubo(F3, max_atoms=cap), "max_atoms"),
    "certify-enum_cap": (lambda cap: certify_equivalence(F3, F3_GRAPH, enum_cap=cap), "enum_cap"),
    "certify-brute_cap": (lambda cap: certify_equivalence(F3, F3_GRAPH, brute_cap=cap), "brute_cap"),
    "brute_force_minima-cap": (lambda cap: brute_force_minima(F3, cap=cap), "cap"),
    "enumerate_ground_configs-cap": (lambda cap: enumerate_ground_configs(F3_GRAPH, cap=cap), "cap"),
    "build_hamiltonian-cap": (lambda cap: build_hamiltonian(F3_GRAPH, cap=cap), "cap"),
    "evolve-cap": (lambda cap: evolve(HamiltonianSpec(n=2), steps=1, cap=cap), "cap"),
}


@pytest.mark.parametrize("bad", ["5", True, np.bool_(True), None, 1.5, -1], ids=repr)
@pytest.mark.parametrize("call", CAP_CALLS)
def test_caps_take_the_integer_rule(call, bad):
    run, name = CAP_CALLS[call]
    with pytest.raises(InputError, match=f"^{name} must be an integer >= 0, got "):
        run(bad)


@pytest.mark.parametrize("call", CAP_CALLS)
def test_numpy_caps_act_as_python_ints(call):
    run, _ = CAP_CALLS[call]
    out = run(np.int64(30))
    expected = run(30)
    assert np.array_equal(out, expected) if isinstance(out, np.ndarray) else out == expected


@pytest.mark.parametrize(
    "role, message",
    [
        (DataCopy(np.int64(0), 1.5), "copy index must be an integer, got 1.5"),
        (DataCopy(0, "a"), "copy index must be an integer, got 'a'"),
        (DataCopy(-1, 1), "data copy variable index must be an integer >= 0, got -1"),
        (Offset(0, None), "offset index must be an integer, got None"),
        (WireAtom("0", 1), "wire id must be an integer, got '0'"),
        (WireAtom(0, 1.0), "chain position must be an integer, got 1.0"),
        (AFConstraintAtom(0, True), "chain position must be an integer, got True"),
        ("x1", "unknown atom role 'x1'"),
    ],
    ids=repr,
)
def test_role_fields_take_the_integer_rule(role, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        AtomGraph([DataCopy(1, 1), role], [])


def test_numpy_role_fields_act_as_python_ints():
    roles = [DataCopy(np.int64(0), np.uint8(1)), Offset(np.int64(0), np.int32(1))]
    roles += [WireAtom(np.int64(0), np.int64(1)), AFConstraintAtom(np.int8(1), np.int16(1))]
    plain = [DataCopy(0, 1), Offset(0, 1), WireAtom(0, 1), AFConstraintAtom(1, 1)]
    graph = AtomGraph(roles, [(0, 1)])
    assert graph == AtomGraph(plain, [(0, 1)])
    assert all(type(v) is int for role in graph.roles for v in vars(role).values())
    assert json.loads(json.dumps(graph_to_dict(graph))) == graph_to_dict(AtomGraph(plain, [(0, 1)]))


# The smallest graph a wire descriptor can describe: x1 and x2 joined by a one-atom odd chain.
WIRE_ROLES = [DataCopy(0, 1), DataCopy(1, 1), WireAtom(0, 1)]
WIRE_EDGES = [(0, 2), (1, 2)]


@pytest.mark.parametrize(
    "wire, message",
    [
        (WireDescriptor("0", (0, 1), Parity.ODD, 1), "wire descriptor id must be an integer, got '0'"),
        (WireDescriptor(0, (0, 1.0), Parity.ODD, 1), "wire endpoint must be an integer, got 1.0"),
        (WireDescriptor(0, (True, 1), Parity.ODD, 1), "wire endpoint must be an integer, got True"),
        (WireDescriptor(0, (0, 1), Parity.ODD, 1.0), "wire length must be an integer, got 1.0"),
        (WireDescriptor(0, (0,), Parity.ODD, 1), r"wire 0 endpoints \(0,\) are not a pair"),
        (WireDescriptor(0, 1, Parity.ODD, 1), "wire 0 endpoints 1 are not a pair"),
        (WireDescriptor(0, (0, 1), "odd", 1), "wire 0 parity must be a Parity, got 'odd'"),
        ("x", "unknown wire descriptor 'x'"),
    ],
    ids=repr,
)
def test_wire_fields_take_the_integer_rule(wire, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        AtomGraph(WIRE_ROLES, WIRE_EDGES, wires=[wire])


def test_numpy_wire_fields_act_as_python_ints():
    plain = AtomGraph(WIRE_ROLES, WIRE_EDGES, wires=[WireDescriptor(0, (0, 1), Parity.ODD, 1)])
    for wire in (
        WireDescriptor(np.int64(0), (0, np.int64(1)), Parity.ODD, np.int64(1)),
        WireDescriptor(np.uint8(0), [np.int32(0), 1], Parity.ODD, 1),
    ):
        graph = AtomGraph(WIRE_ROLES, WIRE_EDGES, wires=[wire])
        assert graph == plain
        (checked,) = graph.wires
        assert type(checked.endpoints) is tuple
        assert all(type(v) is int for v in (checked.wire, *checked.endpoints, checked.length))
        assert json.loads(json.dumps(graph_to_dict(graph))) == graph_to_dict(plain)
