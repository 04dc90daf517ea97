"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  These tests use the production defaults (4000-step sweeps); the
whole module takes a few minutes, dominated by the 15-atom simulation.
"""

import math
import random
import time
from itertools import product

import numpy as np

from rydqubo.compiler import Parity, compile_qubo, try_decode
from rydqubo.geometry import (
    Layout,
    PhysicalParams,
    blockade_radius,
    builtin_names,
    load_builtin_layout,
    validate_unit_disk,
)
from rydqubo.qubo import QuboInstance
from rydqubo.sim import (
    HamiltonianSpec,
    PulseSchedule,
    af_predicate,
    build_hamiltonian,
    evolve,
    measure_distribution,
    postselect,
)
from rydqubo.solver import (
    certify_equivalence,
    enumerate_ground_configs,
    mwis_expand,
)
from test_sim import ConstantSchedule
from test_solver import certified_chain

REFERENCE_SCHEDULE = PulseSchedule(total_time=2.5, omega0=0.96, delta_i=-4.0, delta_f=5.0)

F1 = QuboInstance(n=1, linear={0: -2})
F2 = QuboInstance(n=1, linear={0: 1})
F3 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): 1})
F4 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): -1})
F5 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): 2})
F6 = QuboInstance(n=2, linear={0: -2, 1: 1}, quadratic={(0, 1): -2})
F7 = QuboInstance(
    n=3, linear={0: -2, 1: 1, 2: 2}, quadratic={(0, 1): 1, (0, 2): 1, (1, 2): -2}
)
F_LNK = QuboInstance(n=2, linear={0: 1, 1: 1}, quadratic={(0, 1): -2})
F_NOT = QuboInstance(n=2, linear={0: -1, 1: -1}, quadratic={(0, 1): 2})


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_oracle_equivalence():
    """Decoded ground set of every compiled instance equals the argmin set."""
    started = time.monotonic()
    checked = 0

    def check(q: QuboInstance) -> None:
        nonlocal checked
        result = certify_equivalence(q, compile_qubo(q), enum_cap=64)
        assert result.passed, (q, result.to_dict())
        checked += 1

    # Exhaustive two-variable grid with coefficients in [-2, 2]: 125 instances.
    for q11, q22, q12 in product(range(-2, 3), repeat=3):
        check(QuboInstance(n=2, linear={0: q11, 1: q22}, quadratic={(0, 1): q12}))
    assert checked == 125

    rng = random.Random(2024)
    for _ in range(200):
        n = rng.choice((3, 4))
        check(
            QuboInstance(
                n=n,
                linear={i: rng.randint(-2, 2) for i in range(n)},
                quadratic={
                    (i, j): rng.randint(-2, 2)
                    for i in range(n)
                    for j in range(i + 1, n)
                },
            )
        )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, f"{checked} instances certified against brute force in {elapsed:.1f}s")


def test_criterion_2_wire_energy_tables():
    """Conditional chain energies match the closed forms, degeneracies included.

    Each row is the certifier's: its table entry for a compiled chain and the
    maximum sets of the chain atoms the clamped endpoints leave free.
    """
    for m in range(1, 4):
        certified = certified_chain(Parity.EVEN, m)
        rows = {
            (1, 1): 1 - m,
            (1, 0): -m,
            (0, 1): -m,
            (0, 0): -m,
        }
        for state, expected in rows.items():
            energy, configs = certified[state]
            assert energy == expected, (m, state, energy)
            assert configs
        _, degenerate = certified[(0, 0)]
        assert len(degenerate) >= 2
        head = tuple(1 - (p % 2) for p in range(2 * m))
        tail = tuple((1, 0) * (m - 1) + (0, 1)) if m > 1 else (0, 1)
        assert head in degenerate and tail in degenerate
    for m in range(0, 4):
        certified = certified_chain(Parity.ODD, m)
        rows = {
            (1, 1): -m,
            (1, 0): -m,
            (0, 1): -m,
            (0, 0): -(m + 1),
        }
        for state, expected in rows.items():
            energy, _ = certified[state]
            assert energy == expected, (m, state, energy)
    report(2, "even chains (1-M, -M, -M, -M) and odd chains (-M x3, -(M+1)) for all tested M")


def test_criterion_3_reference_instances():
    """The seven reference cost functions certify to their known solution sets."""
    expected = {
        "f1": (F1, {(1,)}),
        "f2": (F2, {(0,)}),
        "f3": (F3, {(1, 0)}),
        "f4": (F4, {(1, 0), (1, 1)}),
        "f5": (F5, {(1, 0)}),
        "f6": (F6, {(1, 1)}),
        "f7": (F7, {(1, 0, 0)}),
    }
    for name, (q, solutions) in expected.items():
        result = certify_equivalence(q, compile_qubo(q))
        assert result.passed, (name, result.to_dict())
        assert set(result.decoded) == solutions, name
    report(3, "f1..f7 decode to exactly the expected solution sets")


def test_criterion_4_blockade_radius():
    params = PhysicalParams(c6=1023e3, omega=0.0, delta=5.0)
    radius = blockade_radius(params)
    assert abs(radius - 7.7) <= 0.05, radius
    report(4, f"blockade radius {radius:.3f} um within 7.7 +/- 0.05")


def test_criterion_5_layout_validation_and_sensitivity():
    """All bundled layouts validate; radial nudges break most of them."""
    names = builtin_names()
    assert len(names) == 9
    for name in names:
        graph, layout = load_builtin_layout(name)
        assert validate_unit_disk(graph, layout, d_r=7.7, margin=0.0).ok, name

    sensitive = 0
    for name in names:
        graph, layout = load_builtin_layout(name)
        every_atom_breaks = True
        for atom, (x, y) in layout.positions.items():
            r = math.hypot(x, y)
            direction = (x / r, y / r) if r > 0 else (1.0, 0.0)
            moved = dict(layout.positions)
            moved[atom] = (x + 2.5 * direction[0], y + 2.5 * direction[1])
            if validate_unit_disk(graph, Layout(moved), d_r=7.7, margin=0.0).ok:
                every_atom_breaks = False
                break
        if every_atom_breaks:
            sensitive += 1
    assert sensitive >= 7, f"only {sensitive} of 9 layouts were perturbation-sensitive"
    report(5, f"9/9 layouts valid at 7.7 um; {sensitive}/9 break under any single 2.5 um radial nudge")


def _reference_sweep(name: str, steps: int = 4000):
    graph, _ = load_builtin_layout(name)
    spec = build_hamiltonian(graph, PhysicalParams(omega=0.96, delta=5.0))
    started = time.monotonic()
    state = evolve(spec, REFERENCE_SCHEDULE, steps=steps)
    elapsed = time.monotonic() - started
    dist = measure_distribution(state, atom_labels=graph.labels)
    return graph, dist, elapsed


def test_criterion_6_simulated_peak_identities():
    """Modal readouts of the production sweeps decode to the known solutions.

    Peak heights are not compared anywhere: only identities and rankings.
    """
    timings = {}

    graph, dist, dt = _reference_sweep("G1")
    timings["G1"] = dt
    assert try_decode(graph, dist.modal()) == (1,)

    graph, dist, dt = _reference_sweep("G2")
    timings["G2"] = dt
    assert try_decode(graph, dist.modal()) == (0,)

    graph, dist, dt = _reference_sweep("G3")
    timings["G3"] = dt
    assert try_decode(graph, dist.modal()) == (1, 0)

    graph, dist, dt = _reference_sweep("G4")
    timings["G4"] = dt
    decoded_valid = []
    for bits, _ in dist.top(1 << graph.atom_count):
        assignment = try_decode(graph, bits)
        if assignment is not None:
            decoded_valid.append(assignment)
        if len(decoded_valid) == 2:
            break
    assert set(decoded_valid) == {(1, 0), (1, 1)}

    for name, expected in (("G5P", (1, 0)), ("G6P", (1, 1))):
        graph, dist, dt = _reference_sweep(name)
        timings[name] = dt
        filtered = postselect(dist, af_predicate(graph))
        assert try_decode(graph, filtered.modal()) == expected, name

    graph, dist, dt = _reference_sweep("G7")
    timings["G7"] = dt
    assert try_decode(graph, dist.modal()) == (1, 0, 0)

    for name, dt in timings.items():
        limit = 300.0 if name == "G7" else 10.0
        assert dt <= limit, f"{name} sweep took {dt:.1f}s (limit {limit}s)"
    summary = ", ".join(f"{k}={v:.1f}s" for k, v in timings.items())
    report(6, f"all modal readouts correct at 4000 steps ({summary})")


def test_criterion_7_simulator_numerics():
    graph, _ = load_builtin_layout("G3")
    spec = build_hamiltonian(graph)
    state = evolve(spec, REFERENCE_SCHEDULE, steps=4000)
    norm_error = abs(float(np.linalg.norm(state)) - 1.0)
    assert norm_error < 1e-6

    half = measure_distribution(evolve(spec, REFERENCE_SCHEDULE, steps=8000))
    full = measure_distribution(state)
    worst = max(abs(full.probabilities[k] - half.probabilities[k]) for k in full.probabilities)
    assert worst < 1e-4

    rabi_spec = HamiltonianSpec(n=1)
    worst_rabi = 0.0
    for duration in (0.5, 1.0, 2.0):
        psi = evolve(rabi_spec, ConstantSchedule(omega=0.5, delta=0.0, total_time=duration), steps=800)
        p1 = abs(psi[1]) ** 2
        worst_rabi = max(worst_rabi, abs(p1 - math.sin(math.pi * 0.5 * duration) ** 2))
    assert worst_rabi < 1e-6
    report(
        7,
        f"norm error {norm_error:.2e}, step-halving shift {worst:.2e}, "
        f"two-level drive error {worst_rabi:.2e}",
    )


def test_criterion_8_weighted_sets_and_constraint_graphs():
    # Weighted three-vertex path: the heavy middle vertex becomes two copies.
    expansion = mwis_expand([1, 2, 1], [(0, 1), (1, 2)])
    assert expansion.atom_count == 4
    _, configs = enumerate_ground_configs(expansion)
    decoded = {try_decode(expansion, c) for c in configs}
    assert decoded == {(1, 0, 1), (0, 1, 0)}

    link = certify_equivalence(F_LNK, compile_qubo(F_LNK))
    assert link.passed and set(link.decoded) == {(0, 0), (1, 1)}
    inverter = certify_equivalence(F_NOT, compile_qubo(F_NOT))
    assert inverter.passed and set(inverter.decoded) == {(0, 1), (1, 0)}

    for name, q, solutions in (
        ("G_LNK", F_LNK, {(0, 0), (1, 1)}),
        ("G_NOT", F_NOT, {(0, 1), (1, 0)}),
    ):
        graph, _ = load_builtin_layout(name)
        result = certify_equivalence(q, graph)
        assert result.passed and set(result.decoded) == solutions, name
    report(8, "vertex duplication and both constraint graphs decode to the expected sets")
