"""Tests for the integer and finite-real rules that every input check uses."""

import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from rydqubo.compiler import (
    AFConstraintAtom,
    AtomGraph,
    DataCopy,
    Offset,
    WireAtom,
    WireLengthPolicy,
    compile_qubo,
    graph_from_dict,
    graph_to_dict,
)
from rydqubo.errors import GraphError, InputError, require_finite, require_int, require_real
from rydqubo.geometry import Layout, PhysicalParams, pair_interaction
from rydqubo.qubo import QuboInstance, brute_force_minima, normalize_to_integers
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


# A schedule time is a real number or an array of them, scalar or array alike.
REFUSED_TIMES = [True, np.bool_(True), "1", None, 1j]
REFUSED_TIMES += [np.array([True, False]), np.array(["1"]), np.array([1j]), [0.5, None]]


@pytest.mark.parametrize("t", REFUSED_TIMES, ids=repr)
@pytest.mark.parametrize("schedule", [PulseSchedule(), ConstantSchedule(1.0, 0.0, 2.5)], ids=["pulse", "constant"])
def test_schedule_times_take_the_real_rule(schedule, t):
    with pytest.raises(InputError, match="^schedule times must be real numbers, got "):
        schedule.value(t)


def test_schedule_times_are_computed_in_float64():
    schedule = PulseSchedule()
    for t in (np.float32(0.3), np.array([0.3], dtype=np.float32), np.int64(1), Fraction(1, 2)):
        expected = schedule.value(np.asarray(t, dtype=float))
        got = schedule.value(t)
        assert all(np.asarray(x).dtype == np.float64 for x in got)
        assert np.array_equal(got, expected)
    assert all(type(x) is float for x in schedule.value(np.float32(0.3)))
    with pytest.raises(InputError, match="^schedule time must be a finite real number"):
        schedule.value(10**400)


def one_drive(t):
    return 1.0, 0.0


# Each without a finite positive real total_time or a callable value.
BAD_SCHEDULES = {
    "zero": 0, "str": "x", "false": False, "object": object(),
    "no-value": SimpleNamespace(total_time=1.0), "value-not-callable": SimpleNamespace(total_time=1.0, value=3),
    **{f"total_time={t!r}": SimpleNamespace(total_time=t, value=one_drive)
       for t in (0.0, -1.0, True, "1", None, math.nan, math.inf)},
}


@pytest.mark.parametrize("schedule", BAD_SCHEDULES.values(), ids=BAD_SCHEDULES.keys())
def test_evolve_refuses_a_schedule_without_total_time_and_value(schedule):
    with pytest.raises(InputError, match="^schedule needs a positive total_time and a value method, got "):
        evolve(HamiltonianSpec(n=1), schedule, steps=2)


# Each a value method that returns something other than (Omega, Delta) as two
# finite reals or two arrays of the times' shape.
BAD_VALUES = {
    "one-float": lambda t: 1.0,
    "none": lambda t: None,
    "three": lambda t: (1.0, 0.0, 0.0),
    "short-arrays": lambda t: (np.ones(len(t) - 1), np.zeros(len(t) - 1)),
    "one-short-array": lambda t: (1.0, np.zeros(1)),
    "str": lambda t: ("1", 0.0),
    "bool": lambda t: (True, 0.0),
    "np-bool-array": lambda t: (np.ones(len(t), dtype=bool), 0.0),
    "complex": lambda t: (1.0, 1j),
    "nan": lambda t: (math.nan, 0.0),
    "inf-array": lambda t: (np.ones(len(t)), np.full(len(t), math.inf)),
}


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_evolve_refuses_a_schedule_value_that_is_not_two_finite_reals(value):
    with pytest.raises(InputError, match="^schedule "):
        evolve(HamiltonianSpec(n=2), SimpleNamespace(total_time=1.0, value=value), steps=2)


def test_only_none_takes_the_default_schedule():
    spec = HamiltonianSpec(n=2, couplings=((0, 1, 20.0),))
    assert np.array_equal(evolve(spec, None, steps=40), evolve(spec, PulseSchedule(), steps=40))
    drive = SimpleNamespace(total_time=np.int64(1), value=one_drive)
    assert np.array_equal(evolve(spec, drive, steps=40), evolve(spec, ConstantSchedule(1.0, 0.0, 1.0), steps=40))


@pytest.mark.parametrize("value", [True, np.bool_(True), "1/3", " 2 ", None, 1j, Decimal("inf"), Decimal("nan")], ids=repr)
def test_normalize_takes_only_rationals(value):
    with pytest.raises(InputError, match=r"^linear\[0\]: not a rational number: "):
        normalize_to_integers({0: value}, {})


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5)], ids=repr)
def test_normalize_refuses_every_float(value):
    with pytest.raises(InputError, match=r"^linear\[0\]: float .* rejected; convert to Fraction explicitly$"):
        normalize_to_integers({0: value}, {})


def test_normalize_takes_ints_fractions_and_decimals():
    for value in (3, np.int64(3), np.uint8(3), Fraction(3), Decimal(3), Decimal("3.0")):
        assert normalize_to_integers({0: value}, {}) == normalize_to_integers({0: 3}, {})
    q = normalize_to_integers({0: Decimal("0.5")}, {(0, 1): Fraction(1, 3)})
    assert (q.scale, q.linear, q.quadratic) == (6, {0: 3}, {(0, 1): 2})


@pytest.mark.parametrize("distance", [True, np.bool_(True), "3", None, 1j, math.nan, math.inf], ids=repr)
def test_pair_distance_takes_the_real_rule(distance):
    with pytest.raises(InputError, match="^pair distance must be a finite real number, got "):
        pair_interaction(PhysicalParams(), distance)


# Each finite and positive, but c6 / r^6 overflows or r^6 leaves the float range.
@pytest.mark.parametrize("distance", [1e300, 1e60, 1e-60, 1e-52], ids=repr)
def test_pair_distance_out_of_float_range_is_refused(distance):
    with pytest.raises(InputError, match="^" + re.escape(f"pair distance {distance} um is out of range")):
        pair_interaction(PhysicalParams(), distance)


def test_numpy_pair_distances_act_as_floats():
    params = PhysicalParams()
    for distance in (np.int64(7), np.float32(7.0), Fraction(7)):
        assert pair_interaction(params, distance) == pair_interaction(params, 7.0)


DISTRIBUTION_FLAGS = {
    "shots=True": ({"shots": True}, "shots must be an integer >= 1, got True"),
    "shots='5'": ({"shots": "5"}, "shots must be an integer >= 1, got '5'"),
    "shots=0": ({"shots": 0}, "shots must be an integer >= 1, got 0"),
    "shots=2.0": ({"shots": 2.0}, "shots must be an integer >= 1, got 2.0"),
    "exact='no'": ({"exact": "no"}, "exact must be a bool, got 'no'"),
    "exact=1": ({"exact": 1}, "exact must be a bool, got 1"),
    "exact=None": ({"exact": None}, "exact must be a bool, got None"),
    "key='ab'": ({"probabilities": {"ab": 1.0}}, "bitstrings must be 0s and 1s of one width, 1 to 63, got 'ab'"),
    "mixed widths": (
        {"probabilities": {"0": 0.5, "11": 0.5}}, "bitstrings must be 0s and 1s of one width, 1 to 63, got '11'"
    ),
    "key=''": ({"probabilities": {"": 1.0}}, "bitstrings must be 0s and 1s of one width, 1 to 63, got ''"),
    "64 bits": ({"probabilities": {"0" * 64: 1.0}}, "bitstrings must be 0s and 1s of one width, 1 to 63, got '0000"),
    "label count": (
        {"probabilities": {"01": 1.0}, "atom_labels": ("a",)},
        "atom label count 1 does not match the bitstring width 2",
    ),
}


@pytest.mark.parametrize("fields, message", DISTRIBUTION_FLAGS.values(), ids=DISTRIBUTION_FLAGS.keys())
def test_distribution_flags_take_their_rules(fields, message):
    with pytest.raises(InputError, match=f"^{message}"):
        StateDistribution(**{"probabilities": {"0": 1.0}, **fields})


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
        assert type(StateDistribution({"0": 1.0}, exact=False, shots=np.int64(5)).shots) is int


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


# The smallest graph with a wire, x1 and x2 joined by a one-atom odd chain,
# and the wires-block entry its graph document derives.
WIRE_ROLES = [DataCopy(0, 1), DataCopy(1, 1), WireAtom(0, 1)]
WIRE_EDGES = [(0, 2), (1, 2)]
WIRE_ENTRY = {"id": 0, "parity": "odd", "i": 1, "j": 2, "length": 1}

# Wires blocks that differ from the derived one only in a field's JSON type or shape.
BAD_WIRE_BLOCKS = {
    "id-string": [WIRE_ENTRY | {"id": "0"}],
    "j-float": [WIRE_ENTRY | {"j": 2.0}],
    "i-bool": [WIRE_ENTRY | {"i": True}],
    "length-float": [WIRE_ENTRY | {"length": 1.0}],
    "j-missing": [{key: v for key, v in WIRE_ENTRY.items() if key != "j"}],
    "i-pair": [WIRE_ENTRY | {"i": [1, 2]}],
    "parity-case": [WIRE_ENTRY | {"parity": "ODD"}],
    "entry-string": ["x"],
}


def bad_wire_document(case):
    return graph_to_dict(AtomGraph(WIRE_ROLES, WIRE_EDGES)) | {"wires": BAD_WIRE_BLOCKS[case]}


@pytest.mark.parametrize("case", BAD_WIRE_BLOCKS)
def test_wire_fields_take_the_integer_rule(case):
    assert graph_to_dict(AtomGraph(WIRE_ROLES, WIRE_EDGES))["wires"] == [WIRE_ENTRY]
    with pytest.raises(InputError, match="^the graph's 'wires' block does not match its atoms and edges"):
        graph_from_dict(bad_wire_document(case))


def test_numpy_wire_fields_act_as_python_ints():
    roles = [DataCopy(np.int64(0), 1), DataCopy(np.int8(1), np.uint8(1)), WireAtom(np.int64(0), np.int32(1))]
    graph = AtomGraph(roles, [(np.int64(0), np.uint8(2)), (1, np.int16(2))])
    plain = AtomGraph(WIRE_ROLES, WIRE_EDGES)
    assert graph == plain and graph.wires == plain.wires
    (wire,) = graph.wires
    assert type(wire.endpoints) is tuple
    assert all(type(v) is int for v in (wire.wire, *wire.endpoints, wire.length))
    assert json.loads(json.dumps(graph_to_dict(graph))) == graph_to_dict(plain)
