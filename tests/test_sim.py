"""Tests for the pulse schedule, Hamiltonian assembly, and propagation."""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from rydqubo.compiler import compile_qubo, try_decode
from rydqubo.errors import CapExceeded, EmptySelection, InputError, SimulationError
from rydqubo.geometry import Layout, PhysicalParams, load_builtin_layout
from rydqubo.qubo import QuboInstance
from rydqubo.sim import (
    ConstantSchedule,
    HamiltonianMode,
    HamiltonianSpec,
    PulseSchedule,
    StateDistribution,
    af_predicate,
    build_hamiltonian,
    diagonal_energy,
    evolve,
    measure_distribution,
    postselect,
    sample_distribution,
)
from rydqubo import sim
from rydqubo.solver import enumerate_ground_configs

# Fewer steps than the production default keeps unit tests quick; the
# acceptance suite runs the full 4000-step sweeps.
FAST_STEPS = 1200


def apply_hamiltonian(spec, omega, delta, psi):
    """H |psi> in (2 pi) MHz units, matrix-free: the reference operator."""
    psi = np.asarray(psi, dtype=np.complex128)
    n = spec.n
    # Row k holds the occupation of atom k, which is bit n-1-k of the index.
    bits = np.array([[(i >> (n - 1 - k)) & 1 for i in range(1 << n)] for k in range(n)], dtype=float)
    occ = np.asarray(spec.detuning_weights) @ bits
    interaction = sum((u * bits[a] * bits[b] for a, b, u in spec.couplings), np.zeros(1 << n))
    out = (interaction - delta * occ) * psi
    nd = psi.reshape((2,) * spec.n)
    out_nd = out.reshape((2,) * spec.n)
    for axis in range(spec.n):
        sl0 = (slice(None),) * axis + (0,)
        sl1 = (slice(None),) * axis + (1,)
        out_nd[sl0] += 0.5 * omega * nd[sl1]
        out_nd[sl1] += 0.5 * omega * nd[sl0]
    return out


def apply_rotations_reference(psi_nd, rotations):
    """Per-axis product of symmetric 2x2 rotations, in place: the reference kernel."""
    for axis, (r00, r01, _, r11) in enumerate(rotations):
        sl0 = (slice(None),) * axis + (0,)
        sl1 = (slice(None),) * axis + (1,)
        a = psi_nd[sl0]
        b = psi_nd[sl1]
        na = r00 * a + r01 * b
        nb = r01 * a + r11 * b
        psi_nd[sl0] = na
        psi_nd[sl1] = nb


def reference_rotation(a, b):
    """exp(-i (a sx - 2 b n)) by diagonalising the 2x2 generator: the reference rotation."""
    energies, vectors = np.linalg.eigh(np.array([[0.0, a], [a, -2.0 * b]]))
    return vectors @ np.diag(np.exp(-1j * energies)) @ vectors.T


def block_sizes_reference(n):
    """Near-equal split of n atoms into blocks of at most five, larger blocks first."""
    count = -(-n // 5)
    base, extra = divmod(n, count)
    return [base + 1] * extra + [base] * (count - extra)


def reference_sweep(spec, schedule, steps):
    """The triple-jump split sweep of ``evolve``, one stage and one axis at a time."""
    n = spec.n
    energy = np.array([diagonal_energy(spec, 0.0, format(i, f"0{n}b")) for i in range(1 << n)])
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    h = schedule.total_time / steps
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    for step in range(steps):
        t = step * h
        for d in (w1 * h, (1.0 - 2.0 * w1) * h, w1 * h):
            half = np.exp(-1j * math.pi * d * energy)
            omega, delta = schedule.value(t + d / 2)
            psi *= half
            rotations = [
                reference_rotation(math.pi * omega * d, math.pi * delta * w * d).ravel()
                for w in spec.detuning_weights
            ]
            apply_rotations_reference(psi.reshape((2,) * n), rotations)
            psi *= half
            t += d
    return psi


class TestSchedule:
    def test_endpoints(self):
        s = PulseSchedule()
        assert s.value(0.0) == (0.0, -4.0)
        assert s.value(2.5) == (0.0, 5.0)

    def test_midpoint(self):
        s = PulseSchedule()
        omega, delta = s.value(1.25)
        assert omega == pytest.approx(0.96)
        assert delta == pytest.approx(0.5)

    def test_plateau_and_ramps(self):
        s = PulseSchedule()
        assert s.value(0.125)[0] == pytest.approx(0.48)
        assert s.value(0.25)[0] == pytest.approx(0.96)
        assert s.value(0.25)[1] == pytest.approx(-4.0 + 9.0 * (0.25 - 0.25) / 2.0)
        assert s.value(2.375)[0] == pytest.approx(0.48)
        assert s.value(2.4)[1] == 5.0

    def test_domain(self):
        s = PulseSchedule()
        with pytest.raises(InputError):
            s.value(-0.1)
        with pytest.raises(InputError):
            s.value(2.6)

    def test_fraction_invariants(self):
        with pytest.raises(InputError):
            PulseSchedule(t1=0.9, t2=0.1)
        with pytest.raises(InputError):
            PulseSchedule(total_time=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, bad):
        for field in ("total_time", "omega0", "delta_i", "delta_f", "t1", "t2"):
            with pytest.raises(InputError, match=field):
                PulseSchedule(**{field: bad})
        for field in ("omega", "delta", "total_time"):
            values = {"omega": 1.0, "delta": 0.0, "total_time": 1.0, field: bad}
            with pytest.raises(InputError, match=field):
                ConstantSchedule(**values)


class TestBuildHamiltonian:
    def test_edgeless_graph_has_no_couplings(self):
        g, _ = load_builtin_layout("G1")
        spec = build_hamiltonian(g)
        assert spec.couplings == ()

    def test_ideal_blockade_default_strength(self):
        g, _ = load_builtin_layout("G3")
        spec = build_hamiltonian(g, PhysicalParams(delta=5.0))
        assert len(spec.couplings) == len(g.edges)
        assert all(u == pytest.approx(50.0) for _, _, u in spec.couplings)

    def test_full_vdw_couples_every_pair(self):
        g, layout = load_builtin_layout("G4")
        spec = build_hamiltonian(g, mode=HamiltonianMode.FULL_VDW, layout=layout)
        n = g.atom_count
        assert len(spec.couplings) == n * (n - 1) // 2
        # residual tail between the far data copies at 15.2 um
        far = dict(((a, b), u) for a, b, u in spec.couplings)
        assert far[(1, 2)] == pytest.approx(1023e3 / 15.2**6, rel=1e-9)
        assert far[(1, 2)] == pytest.approx(0.083, abs=0.002)

    def test_full_vdw_cap_precedes_the_couplings(self, monkeypatch):
        def no_coupling(*args):
            raise AssertionError("pair coupling built above the atom cap")

        monkeypatch.setattr(sim, "pair_interaction", no_coupling)
        g, layout = load_builtin_layout("G4")
        with pytest.raises(CapExceeded, match=f"capped at 3 atoms, got {g.atom_count}"):
            build_hamiltonian(g, mode=HamiltonianMode.FULL_VDW, layout=layout, cap=3)

    def test_full_vdw_requires_layout(self):
        g, _ = load_builtin_layout("G4")
        with pytest.raises(InputError):
            build_hamiltonian(g, mode=HamiltonianMode.FULL_VDW)

    def test_full_vdw_rejects_atoms_the_graph_lacks(self):
        g, _ = load_builtin_layout("G1")
        layout = Layout({0: (0.0, 0.0), 1: (20.0, 0.0), 5: (1.0, 0.0)})
        with pytest.raises(InputError, match="places atoms \\[5\\]"):
            build_hamiltonian(g, mode=HamiltonianMode.FULL_VDW, layout=layout)

    def test_weighted_detunings(self):
        g, _ = load_builtin_layout("G1")
        spec = build_hamiltonian(g, detuning_weights=(1.0, 2.0))
        assert spec.detuning_weights == (1.0, 2.0)

    def test_invalid_coupling(self):
        with pytest.raises(InputError):
            HamiltonianSpec(n=2, couplings=((0, 0, 1.0),))
        with pytest.raises(InputError):
            HamiltonianSpec(n=2, couplings=((0, 1, -1.0),))
        for a, b in ((0.5, 1), (True, 0), (0, 1.0)):
            with pytest.raises(InputError, match="not a valid pair"):
                HamiltonianSpec(n=2, couplings=((a, b, 1.0),))
        for n in (0, 2.5, True):
            with pytest.raises(InputError, match="positive integer"):
                HamiltonianSpec(n=n)
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                HamiltonianSpec(n=2, couplings=((0, 1, bad),))
            with pytest.raises(InputError):
                HamiltonianSpec(n=2, detuning_weights=(1.0, bad))
        for bad in (True, np.bool_(False), "2", None):
            with pytest.raises(InputError, match="must be real numbers"):
                HamiltonianSpec(n=2, detuning_weights=(bad, 1.0))
        g, _ = load_builtin_layout("G1")
        with pytest.raises(InputError, match="must be real numbers"):
            build_hamiltonian(g, detuning_weights=(1.0, True))
        spec = HamiltonianSpec(n=3, detuning_weights=(np.float64(1.5), np.int64(2), 3))
        assert spec.detuning_weights == (1.5, 2.0, 3.0)

    def test_scalar_detuning_weights_rejected(self):
        with pytest.raises(InputError, match="must be a sequence"):
            HamiltonianSpec(n=1, detuning_weights=5)
        g, _ = load_builtin_layout("G1")
        with pytest.raises(InputError, match="must be a sequence"):
            build_hamiltonian(g, detuning_weights=2.0)

    def test_numpy_detuning_weights(self):
        spec = HamiltonianSpec(n=2, detuning_weights=np.array([1.0, 2.0]))
        assert spec.detuning_weights == (1.0, 2.0)
        with pytest.raises(InputError):
            HamiltonianSpec(n=2, detuning_weights=np.array([[1.0, 2.0]]))


class TestOperator:
    def test_hermitian_on_random_vectors(self):
        rng = np.random.default_rng(12)
        g, _ = load_builtin_layout("G3")
        spec = build_hamiltonian(g)
        dim = 1 << spec.n
        for _ in range(5):
            u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            left = np.vdot(u, apply_hamiltonian(spec, 0.7, 2.0, v))
            right = np.vdot(apply_hamiltonian(spec, 0.7, 2.0, u), v)
            assert left == pytest.approx(right, rel=1e-10, abs=1e-10)

    def test_diagonal_energy_matches_operator(self):
        g, _ = load_builtin_layout("G4")
        spec = build_hamiltonian(g)
        dim = 1 << spec.n
        for index in (0, 5, dim - 1):
            basis = np.zeros(dim, dtype=complex)
            basis[index] = 1.0
            bits = format(index, f"0{spec.n}b")
            expected = diagonal_energy(spec, 5.0, bits)
            acted = apply_hamiltonian(spec, 0.0, 5.0, basis)
            assert acted[index] == pytest.approx(expected)


class TestEvolve:
    def test_single_atom_rabi_oscillation(self):
        spec = HamiltonianSpec(n=1)
        for duration in (0.3, 1.0, 1.7):
            schedule = ConstantSchedule(omega=0.5, delta=0.0, total_time=duration)
            psi = evolve(spec, schedule, steps=400)
            p1 = abs(psi[1]) ** 2
            assert p1 == pytest.approx(math.sin(math.pi * 0.5 * duration) ** 2, abs=1e-6)

    @pytest.mark.parametrize("steps", [1, 7])
    def test_detuned_weighted_rabi_is_exact(self, steps):
        # Uncoupled atoms under a constant schedule are propagated exactly, so
        # even one step matches the generalized Rabi formula.
        omega, delta, duration = 0.8, 0.6, 1.3

        def excited(w):
            rate = math.hypot(omega, delta * w)
            return (omega / rate) ** 2 * math.sin(math.pi * rate * duration) ** 2

        schedule = ConstantSchedule(omega=omega, delta=delta, total_time=duration)
        single = evolve(HamiltonianSpec(n=1, detuning_weights=(2.0,)), schedule, steps=steps)
        assert abs(single[1]) ** 2 == pytest.approx(excited(2.0), abs=1e-12)
        pair = evolve(HamiltonianSpec(n=2, detuning_weights=(1.0, 2.5)), schedule, steps=steps)
        probs = measure_distribution(pair).probabilities
        p0, p1 = excited(1.0), excited(2.5)
        expected = {"00": (1 - p0) * (1 - p1), "01": (1 - p0) * p1, "10": p0 * (1 - p1), "11": p0 * p1}
        for bits, p in expected.items():
            assert probs[bits] == pytest.approx(p, abs=1e-12)

    def test_coupled_weighted_graph_matches_dense_propagation(self):
        spec = HamiltonianSpec(
            n=4,
            couplings=((0, 1, 12.0), (1, 2, 9.0), (2, 3, 12.0), (0, 3, 0.7)),
            detuning_weights=(1.0, 2.0, 1.5, 1.0),
        )
        omega, delta, duration = 1.1, 1.4, 1.5
        dim = 1 << spec.n
        dense = np.column_stack(
            [apply_hamiltonian(spec, omega, delta, np.eye(dim)[k]) for k in range(dim)]
        )
        energies, vectors = np.linalg.eigh(dense)
        start = np.zeros(dim)
        start[0] = 1.0
        exact = vectors @ (np.exp(-2j * math.pi * duration * energies) * (vectors.conj().T @ start))
        schedule = ConstantSchedule(omega=omega, delta=delta, total_time=duration)
        psi = evolve(spec, schedule, steps=1600)
        assert np.max(np.abs(np.abs(psi) ** 2 - np.abs(exact) ** 2)) <= 1e-6

    def test_norm_conserved(self):
        g, _ = load_builtin_layout("G3")
        spec = build_hamiltonian(g)
        psi = evolve(spec, PulseSchedule(), steps=FAST_STEPS)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-6

    def test_blockade_suppresses_double_excitation(self):
        spec = HamiltonianSpec(n=2, couplings=((0, 1, 50.0),))
        psi = evolve(spec, PulseSchedule(), steps=FAST_STEPS)
        dist = measure_distribution(psi)
        assert dist.probabilities["11"] < 5e-3
        assert dist.probabilities["10"] == pytest.approx(dist.probabilities["01"], abs=1e-9)

    def test_edgeless_pair_both_excite(self):
        g, _ = load_builtin_layout("G1")
        spec = build_hamiltonian(g)
        dist = measure_distribution(evolve(spec, PulseSchedule(), steps=FAST_STEPS))
        assert dist.modal() == "11"

    def test_step_doubling_convergence(self):
        g, _ = load_builtin_layout("G3")
        spec = build_hamiltonian(g)
        d1 = measure_distribution(evolve(spec, PulseSchedule(), steps=FAST_STEPS))
        d2 = measure_distribution(evolve(spec, PulseSchedule(), steps=2 * FAST_STEPS))
        worst = max(
            abs(d1.probabilities[k] - d2.probabilities[k]) for k in d1.probabilities
        )
        assert worst < 1e-4

    def test_deterministic(self):
        g, _ = load_builtin_layout("G2")
        spec = build_hamiltonian(g)
        a = evolve(spec, PulseSchedule(), steps=300)
        b = evolve(spec, PulseSchedule(), steps=300)
        assert np.array_equal(a, b)

    def test_norm_guard_catches_nan(self):
        class NanDrive:
            total_time = 1.0

            def value(self, t):
                return math.nan, 0.0

        with pytest.raises(SimulationError):
            evolve(HamiltonianSpec(n=2), NanDrive(), steps=3)

    def test_cap(self):
        spec = HamiltonianSpec(n=3)
        with pytest.raises(CapExceeded):
            evolve(spec, PulseSchedule(), steps=10, cap=2)

    def test_invalid_arguments_fail_before_any_allocation(self, monkeypatch):
        def no_allocation(*args):
            raise AssertionError("state allocated before the arguments were checked")

        monkeypatch.setattr(sim, "_twin_classes", no_allocation)
        monkeypatch.setattr(sim, "_interaction_energy", no_allocation)
        spec = HamiltonianSpec(n=2)
        for steps in (2.5, True, 0, -3, "10"):
            with pytest.raises(InputError, match="steps must be an integer"):
                evolve(spec, PulseSchedule(), steps=steps)

    def test_final_diagonal_energy_matches_the_energy_model(self):
        # With the drive off at the end, the modal bitstring's energy must
        # equal the diagonal model exactly.
        g, _ = load_builtin_layout("G4")
        spec = build_hamiltonian(g)
        dist = measure_distribution(evolve(spec, PulseSchedule(), steps=FAST_STEPS))
        bits = [int(ch) for ch in dist.modal()]
        u0, delta_f = 50.0, 5.0
        violations = sum(bits[a] and bits[b] for a, b in g.edges)
        expected = u0 * violations - delta_f * sum(bits)
        assert diagonal_energy(spec, delta_f, dist.modal()) == expected

    def test_weighted_vertex_duplication_equivalence(self):
        # A center vertex at twice the detuning weight behaves like its
        # two-copy expansion: the two degenerate solutions dominate.
        spec = HamiltonianSpec(
            n=3,
            couplings=((0, 1, 50.0), (1, 2, 50.0)),
            detuning_weights=(1.0, 2.0, 1.0),
        )
        dist = measure_distribution(evolve(spec, PulseSchedule(), steps=FAST_STEPS))
        top_two = {bs for bs, _ in dist.top(2)}
        assert top_two == {"101", "010"}


class TestRotationKernel:
    def test_block_sizes(self):
        # Classes of one atom split like atoms: near-equal blocks of at most five.
        assert sim._block_split([1] * 15) == [5, 5, 5]
        assert sim._block_split([1] * 11) == [4, 4, 3]
        assert sim._block_split([1]) == [1]
        for n in range(1, 17):
            sizes = sim._block_split([1] * n)
            assert sizes == block_sizes_reference(n)
            assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
            assert 2 ** max(sizes) <= 32

    def test_rotations_match_the_matrix_exponential(self):
        rng = np.random.default_rng(7)
        a = np.concatenate([[0.0, 0.0, 0.3], rng.uniform(-2.0, 2.0, size=40)])
        b = np.concatenate([[0.0, 0.4, 0.0], rng.uniform(-2.0, 2.0, size=40)])
        got = sim._rotations(a, b)
        assert got.shape == (len(a), 2, 2)
        for k in range(len(a)):
            assert np.max(np.abs(got[k] - reference_rotation(a[k], b[k]))) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_the_per_axis_reference(self, n):
        # Three stages of mixed weights, so every block multiplies distinct
        # rotations and each stage picks its own slice of the stored blocks.
        rng = np.random.default_rng(100 + n)
        weights = np.array([1.0, 2.0, 2.5])
        group = list(rng.integers(len(weights), size=n))
        stages = 3
        rot = sim._rotations(
            rng.uniform(-1.0, 1.0, size=(stages, 1)),
            rng.uniform(-1.0, 1.0, size=(stages, 1)) * weights,
        )
        keys, start = [], 0
        for size in sim._block_split([1] * n):
            keys.append(tuple(group[start:start + size]))
            start += size
        blocks = [sim._kron_stages([rot[:, g] for g in key]) for key in keys]
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        for stage in range(stages):
            expected = psi.copy()
            apply_rotations_reference(expected.reshape((2,) * n), [rot[stage, k].ravel() for k in group])
            got = sim._apply_blocks(psi, blocks, stage)
            assert got.shape == psi.shape
            assert np.max(np.abs(got - expected)) <= 1e-13
            psi = got

    @pytest.mark.parametrize("name", ["G3", "G5P"])
    def test_evolve_matches_the_reference_kernel(self, name):
        # The reference: a slow sweep with the per-axis kernel and eigh rotations.
        graph, _ = load_builtin_layout(name)
        spec = build_hamiltonian(graph, detuning_weights=[1.0 + (k % 3) / 2 for k in range(graph.atom_count)])
        fast = evolve(spec, PulseSchedule(), steps=400)
        slow = reference_sweep(spec, PulseSchedule(), steps=400)
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_chunk_boundaries_leave_the_state_unchanged(self, monkeypatch):
        graph, _ = load_builtin_layout("G3")
        n = graph.atom_count
        spec = build_hamiltonian(graph, detuning_weights=[1.0 + k / 8 for k in range(n)])
        steps = 100
        whole = evolve(spec, PulseSchedule(), steps=steps)
        # A distinct weight per atom makes every block distinct, so a step
        # stores 3 * sum(4^s) entries: seven steps fit in one chunk, and the
        # last of 15 chunks holds two.
        per_step = 3 * sum(4**size for size in sim._block_split([1] * n))
        monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 7 * per_step + per_step // 2)
        chunked = evolve(spec, PulseSchedule(), steps=steps)
        assert np.max(np.abs(chunked - whole)) <= 1e-13
        monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1)
        assert np.max(np.abs(evolve(spec, PulseSchedule(), steps=steps) - whole)) <= 1e-13

    def test_zero_drive_keeps_the_ground_state_exactly(self):
        # phi = 0 at every stage: each rotation is the identity, with s = 1.
        graph, _ = load_builtin_layout("G5P")
        spec = build_hamiltonian(graph, detuning_weights=[1.0 + (k % 3) / 2 for k in range(graph.atom_count)])
        psi = evolve(spec, ConstantSchedule(0.0, 0.0, 1.0), steps=50)
        expected = np.zeros(1 << spec.n, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(psi, expected)

    def test_peak_memory_does_not_grow_with_the_step_count(self):
        graph, _ = load_builtin_layout("G7")
        spec = build_hamiltonian(graph)
        peaks = {}
        tracemalloc.start()
        try:
            for steps in (400, 4000):
                tracemalloc.reset_peak()
                evolve(spec, PulseSchedule(), steps=steps)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[4000] <= 16 * 2**20
        assert abs(peaks[4000] - peaks[400]) <= 2**20


BUNDLED = ["G1", "G2", "G3", "G4", "G5P", "G6P", "G_LNK", "G_NOT", "G7"]


def star_spec(leaves):
    """One hub blockaded with every leaf; the leaves form one twin class."""
    return HamiltonianSpec(n=leaves + 1, couplings=tuple((0, k, 50.0) for k in range(1, leaves + 1)))


class TestTwinClasses:
    def test_classes_of_the_bundled_graphs(self):
        expected = {"G1": [[0, 1]], "G4": [[0, 1, 2]], "G6P": [[3, 4], [5, 6], [8, 9]], "G_NOT": [], "G7": [[0, 1], [13, 14]]}
        for name, twins in expected.items():
            graph, layout = load_builtin_layout(name)
            classes = sim._twin_classes(build_hamiltonian(graph))
            assert sorted(sum(classes, [])) == list(range(graph.atom_count))
            assert [c for c in classes if len(c) > 1] == twins
            # Every pair is coupled in vdW mode, and unequal weights split twins.
            n = graph.atom_count
            for spec in (
                build_hamiltonian(graph, mode=HamiltonianMode.FULL_VDW, layout=layout),
                build_hamiltonian(graph, detuning_weights=[1.0 + k for k in range(n)]),
            ):
                assert sim._twin_classes(spec) == [[k] for k in range(n)]

    def test_coupled_atoms_are_never_twins(self):
        # Atoms 0 and 1 see atom 2 alike, but their own coupling tells them apart.
        spec = HamiltonianSpec(n=3, couplings=((0, 1, 5.0), (0, 2, 5.0), (1, 2, 5.0)))
        assert sim._twin_classes(spec) == [[0], [1], [2]]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_symmetric_power_is_the_dicke_projection(self, k):
        rng = np.random.default_rng(20 + k)
        a = rng.uniform(-2.0, 2.0, size=4)
        b = rng.uniform(-2.0, 2.0, size=4)
        rot = sim._rotations(a, b)
        # Column m: the normalised sum of the bitstrings with m excited atoms.
        excited = np.array([bin(index).count("1") for index in range(1 << k)])
        dicke = np.stack([(excited == m) / math.sqrt(math.comb(k, m)) for m in range(k + 1)], axis=1)
        got = sim._symmetric_power(rot, k)
        assert got.shape == (4, k + 1, k + 1)
        for stage in range(4):
            power = np.ones((1, 1))
            for _ in range(k):
                power = np.kron(power, rot[stage])
            assert np.max(np.abs(got[stage] - dicke.T @ power @ dicke)) <= 1e-13

    def test_one_atom_classes_take_the_atom_rotation_exactly(self):
        rng = np.random.default_rng(5)
        rot = sim._rotations(rng.uniform(-2.0, 2.0, size=4), rng.uniform(-2.0, 2.0, size=4))
        assert np.array_equal(sim._symmetric_power(rot, 1), rot)

    def test_one_atom_classes_expand_to_the_state_itself(self):
        n = 6
        rng = np.random.default_rng(6)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        assert np.array_equal(sim._expand(psi, [[k] for k in range(n)], n), psi)

    def test_block_split_bounds_every_block(self):
        # G7: classes {0,1} and {13,14} around eleven single atoms.
        assert sim._block_split([2] + [1] * 11 + [2]) == [4, 5, 4]  # dimensions 24, 32, 24
        assert sim._block_split([3, 1, 1, 1]) == [1, 3]  # G4: dimensions 4, 8
        assert sim._block_split([40]) == [1]  # a class above the bound is a block of its own
        rng = np.random.default_rng(3)
        for _ in range(200):
            sizes = list(rng.integers(1, 6, size=rng.integers(1, 12)))
            split = sim._block_split(sizes)
            assert sum(split) == len(sizes)
            assert len(split) <= -(-sum(sizes) // 5) + len(sizes)
            start = 0
            for count in split:
                block = sizes[start:start + count]
                assert sum(block) <= 5 or count == 1
                assert math.prod(k + 1 for k in block) <= 32
                start += count

    @pytest.mark.parametrize("name", BUNDLED)
    def test_reduced_evolve_matches_the_reference(self, name):
        graph, _ = load_builtin_layout(name)
        spec = build_hamiltonian(graph)
        steps = 30 if name == "G7" else 200
        fast = evolve(spec, PulseSchedule(), steps=steps)
        slow = reference_sweep(spec, PulseSchedule(), steps=steps)
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_star_with_fifteen_twin_leaves(self):
        spec = star_spec(15)
        assert sim._twin_classes(spec) == [[0], list(range(1, 16))]
        schedule = PulseSchedule(total_time=0.6)
        fast = evolve(spec, schedule, steps=3)
        slow = reference_sweep(spec, schedule, steps=3)
        assert np.max(np.abs(fast - slow)) <= 1e-12

    @pytest.mark.parametrize("name", ["G4", "G6P", "G7"])
    def test_permuted_twins_have_equal_probabilities(self, name):
        graph, _ = load_builtin_layout(name)
        spec = build_hamiltonian(graph)
        probabilities = measure_distribution(evolve(spec, PulseSchedule(), steps=100)).probabilities
        classes = sim._twin_classes(spec)
        seen = {}
        for bits, p in probabilities.items():
            # Sorting the bits inside each class picks one representative per orbit.
            canonical = list(bits)
            for members in classes:
                for atom, bit in zip(members, sorted(bits[a] for a in members)):
                    canonical[atom] = bit
            seen.setdefault("".join(canonical), set()).add(p)
        assert all(len(values) == 1 for values in seen.values())
        assert len(seen) == math.prod(len(c) + 1 for c in classes)

    def test_chunk_boundaries_in_the_twin_basis(self, monkeypatch):
        graph, _ = load_builtin_layout("G3")
        spec = build_hamiltonian(graph)
        whole = evolve(spec, PulseSchedule(), steps=100)
        # Blocks of dimension 6 and 12 store 3 * (36 + 144) entries a step:
        # seven and a half steps fit, so the last of 15 chunks holds two.
        for entries in (7 * 540 + 270, 1):
            monkeypatch.setattr(sim, "_CHUNK_ENTRIES", entries)
            assert np.max(np.abs(evolve(spec, PulseSchedule(), steps=100) - whole)) <= 1e-13

    def test_evolve_logs_one_debug_record(self, caplog):
        graph, _ = load_builtin_layout("G7")
        with caplog.at_level(logging.DEBUG, logger="rydqubo"):
            evolve(build_hamiltonian(graph), PulseSchedule(), steps=2)
            evolve(HamiltonianSpec(n=3), PulseSchedule(), steps=5)
        assert [r.getMessage() for r in caplog.records] == [
            "evolve: atoms=15 classes=13 twins=[[0, 1], [13, 14]] basis=18432 full=32768 "
            "blocks=[24, 32, 24] steps=2",
            "evolve: atoms=3 classes=1 twins=[[0, 1, 2]] basis=4 full=8 blocks=[4] steps=5",
        ]


class TestAdiabaticConsistency:
    @pytest.mark.parametrize("name", ["G1", "G2", "G3", "G4", "G_LNK", "G_NOT", "G6P", "G5P"])
    def test_long_sweep_lands_on_a_ground_configuration(self, name):
        graph, _ = load_builtin_layout(name)
        spec = build_hamiltonian(graph)
        schedule = PulseSchedule(total_time=10.0)  # four times the standard sweep
        dist = measure_distribution(evolve(spec, schedule, steps=4000))
        _, configs = enumerate_ground_configs(graph)
        ground_strings = {"".join(map(str, c)) for c in configs}
        assert dist.modal() in ground_strings


class TestDistributions:
    def test_ground_state_distribution(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        dist = measure_distribution(state)
        assert dist.probabilities["00"] == pytest.approx(1.0)

    def test_uniform_superposition(self):
        state = np.full(4, 0.5, dtype=complex)
        dist = measure_distribution(state)
        assert all(p == pytest.approx(0.25) for p in dist.probabilities.values())

    def test_unnormalised_rejected(self):
        with pytest.raises(InputError):
            measure_distribution(np.ones(4, dtype=complex))
        with pytest.raises(InputError, match="not normalised"):
            measure_distribution(np.full(4, np.nan, dtype=complex))

    def test_probability_sum_invariant(self):
        with pytest.raises(InputError):
            StateDistribution({"0": 0.5, "1": 0.4})

    def test_csv_format(self):
        dist = StateDistribution({"01": 0.75, "10": 0.25}, atom_labels=("a", "b"))
        text = dist.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "# atom order: a,b"
        assert lines[1] == "bitstring,probability"
        assert lines[2].startswith("01,0.75")

    def test_json_sorted_by_weight(self):
        dist = StateDistribution({"01": 0.75, "10": 0.25})
        doc = dist.to_dict()
        assert list(doc["probabilities"]) == ["01", "10"]

    def test_top_is_the_prefix_of_the_full_ranking(self):
        dist = StateDistribution({"11": 0.1, "01": 0.3, "10": 0.3, "00": 0.3})
        ranked = sorted(dist.probabilities.items(), key=lambda kv: (-kv[1], kv[0]))
        for k in (1, 2, len(ranked)):
            assert dist.top(k) == ranked[:k]
        assert dist.modal() == "00"
        assert list(dist.to_dict()["probabilities"]) == [bs for bs, _ in ranked]
        # Equal up to rounding noise: the bitstring order decides, and the
        # reported probabilities are the unrounded ones.
        near = StateDistribution({"11": 0.1, "10": 0.3 + 4e-16, "01": 0.3, "00": 0.3 - 4e-16})
        order = ["00", "01", "10", "11"]
        for k in (1, 2, len(order)):
            assert near.top(k) == [(bs, near.probabilities[bs]) for bs in order[:k]]
        assert list(near.to_dict()["probabilities"]) == order

    def test_symmetric_outcomes_rank_by_bitstring(self):
        # G1's two atoms are uncoupled twins, so 01 and 10 are equal up to
        # rounding noise.
        graph, _ = load_builtin_layout("G1")
        dist = measure_distribution(evolve(build_hamiltonian(graph), PulseSchedule(), steps=400))
        top = dist.top(3)
        assert [bs for bs, _ in top] == ["11", "01", "10"]
        assert top[1][1] == pytest.approx(top[2][1], abs=1e-12)

    def test_sampling_is_seeded(self):
        dist = StateDistribution({"01": 0.75, "10": 0.25})
        a = sample_distribution(dist, shots=500, seed=3)
        b = sample_distribution(dist, shots=500, seed=3)
        assert a.probabilities == b.probabilities
        assert not a.exact and a.shots == 500
        assert sum(a.probabilities.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "shots, seed",
        [(0, 0), (2.5, 0), (True, 0), (None, 0), ("10", 0),
         (10, -1), (10, 1.5), (10, "x"), (10, False), (10, None), (2**63, 0)],
    )
    def test_malformed_sampling_input_raises(self, shots, seed):
        dist = StateDistribution({"01": 0.75, "10": 0.25})
        with pytest.raises(InputError, match="shots|seed"):
            sample_distribution(dist, shots=shots, seed=seed)


class TestPostselect:
    def test_trivial_predicate_is_identity(self):
        dist = StateDistribution({"00": 0.5, "11": 0.5})
        same = postselect(dist, lambda bs: True)
        assert same.probabilities == dist.probabilities

    def test_filters_and_renormalises(self):
        dist = StateDistribution({"00": 0.5, "01": 0.25, "10": 0.25})
        kept = postselect(dist, lambda bs: bs[0] != bs[1])
        assert kept.probabilities == {"01": 0.5, "10": 0.5}

    def test_empty_survivor_set(self):
        dist = StateDistribution({"00": 1.0})
        with pytest.raises(EmptySelection):
            postselect(dist, lambda bs: False)

    def test_af_predicate_without_constraints_is_trivial(self):
        g = compile_qubo(QuboInstance(n=1, linear={0: -1}))
        assert af_predicate(g)("1")

    def test_af_predicate_on_constrained_graph(self):
        g, _ = load_builtin_layout("G6P")
        pred = af_predicate(g)
        # constraint chain occupies the first three positions
        assert pred("0010000000")
        assert pred("1100000000")
        assert not pred("0000000000")
        assert not pred("1110000000")


class TestAfPostselectedReadout:
    @pytest.mark.parametrize(
        "name,expected",
        [("G5P", (1, 0)), ("G6P", (1, 1))],
    )
    def test_crossing_free_graphs_read_out_after_filtering(self, name, expected):
        graph, _ = load_builtin_layout(name)
        spec = build_hamiltonian(graph)
        dist = measure_distribution(
            evolve(spec, PulseSchedule(), steps=FAST_STEPS), atom_labels=graph.labels
        )
        filtered = postselect(dist, af_predicate(graph))
        assert try_decode(graph, filtered.modal()) == expected
