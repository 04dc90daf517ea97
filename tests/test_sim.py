"""Tests for the pulse schedule, Hamiltonian assembly, and propagation."""

import logging
import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from rydqubo.compiler import compile_qubo, try_decode
from rydqubo.errors import CapExceeded, EmptySelection, InputError, SimulationError, require_finite
from rydqubo.geometry import Layout, PhysicalParams, load_builtin_layout
from rydqubo.qubo import QuboInstance, check_assignment
from rydqubo.sim import (
    HamiltonianMode,
    HamiltonianSpec,
    PulseSchedule,
    StateDistribution,
    af_predicate,
    build_hamiltonian,
    evolve,
    measure_distribution,
    postselect,
    sample_distribution,
)
from rydqubo import sim
from rydqubo.solver import enumerate_ground_configs
from test_compiler import seed_table

# Fewer steps than the production default keeps unit tests quick; the
# acceptance suite runs the full 4000-step sweeps.
FAST_STEPS = 1200


@dataclass(frozen=True)
class ConstantSchedule:
    """Fixed drive and detuning for a given duration: the schedule of the exact Rabi checks."""

    omega: float
    delta: float
    total_time: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.total_time > 0:
            raise InputError(f"total_time must be positive, got {self.total_time}")

    def value(self, t: float) -> tuple[float, float]:
        sim._clamp_time(t, self.total_time)
        return self.omega, self.delta


def diagonal_energy(spec, delta, bits):
    """Drive-off energy of one basis configuration, in (2 pi) MHz: the reference energy model."""
    bits = check_assignment(spec.n, bits)
    energy = -delta * sum(w * b for w, b in zip(spec.detuning_weights, bits))
    for a, b, u in spec.couplings:
        energy += u * bits[a] * bits[b]
    return energy


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
    """Split of n atoms into blocks of three, the remainder last."""
    return [3] * (n // 3) + [n % 3] * (n % 3 > 0)


def pulse_reference(s, t):
    """(Omega, Delta) of a PulseSchedule at one time, by the three-segment formulas."""
    total = s.total_time
    t = min(max(t, 0.0), total)
    up, down = s.t1 * total, s.t2 * total
    if t < up:
        return s.omega0 * t / up, s.delta_i
    if t <= down:
        return s.omega0, s.delta_i + (s.delta_f - s.delta_i) * (t - up) / (down - up)
    return s.omega0 * (total - t) / (total - down), s.delta_f


def rebuilt_rotation(g, u, m):
    """g diag(1, u) M diag(1, u): one atom's rotation from its factors."""
    d = np.array([1.0, u])
    return g * (d[:, None] * m * d[None, :])


def stage_bytes(spec):
    """Bytes a chunk stores per stage: float64 blocks (the last times I_2) and phase factors."""
    dims = [len(members) + 1 for members in sim._twin_classes(spec)]
    blocks, start = [], 0
    for count in sim._block_split([d - 1 for d in dims]):
        blocks.append(math.prod(dims[start:start + count]))
        start += count
    blocks[-1] *= 2
    half = next(c for c in range(len(dims) + 1) if math.prod(dims[:c]) ** 2 >= math.prod(dims))
    return 8 * sum(d * d for d in blocks) + 16 * math.prod(dims[:half]) + 32 * math.prod(dims[half:])


def stage_midpoints(total, steps):
    """Every stage midpoint of a sweep, in order, one scalar sum at a time."""
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    h = total / steps
    d1, d2, d3 = w1 * h, (1.0 - 2.0 * w1) * h, w1 * h
    times = []
    for step in range(steps):
        t0 = step * h
        times += [t0 + 0.5 * d1, t0 + d1 + 0.5 * d2, t0 + d1 + d2 + 0.5 * d3]
    return times


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

    @pytest.mark.parametrize("total", [1e-12, 1.0, 1e6])
    def test_both_schedules_allow_the_same_relative_slack(self, total):
        for schedule in (PulseSchedule(total_time=total), ConstantSchedule(1.0, 1.0, total)):
            for t in (-0.5e-9 * total, total * (1 + 0.5e-9)):
                schedule.value(t)
            for t in (-2e-9 * total, total * (1 + 2e-9), math.nan):
                with pytest.raises(InputError, match="outside"):
                    schedule.value(t)
        assert PulseSchedule(total_time=1e6).value(-5e-4) == (0.0, -4.0)
        assert ConstantSchedule(1.0, 1.0, 1e6).value(-5e-4) == (1.0, 1.0)
        with pytest.raises(InputError, match="outside"):
            ConstantSchedule(1.0, 1.0, 1e-12).value(-5e-10)

    def test_array_times_match_one_time_at_a_time_bit_for_bit(self):
        s = PulseSchedule()
        times = stage_midpoints(s.total_time, 400)
        times += [0.0, s.t1 * s.total_time, s.t2 * s.total_time, s.total_time]
        omega, delta = s.value(np.array(times))
        assert omega.dtype == delta.dtype == np.float64 and omega.shape == delta.shape == (len(times),)
        one_at_a_time = np.array([s.value(t) for t in times])
        reference = np.array([pulse_reference(s, t) for t in times])
        assert np.stack([omega, delta], axis=1).tobytes() == one_at_a_time.tobytes() == reference.tobytes()
        assert all(type(x) is float for x in s.value(times[0]))

    def test_array_times_keep_their_shape(self):
        grid = np.linspace(0.0, 2.5, 12).reshape(3, 4)
        omega, delta = PulseSchedule().value(grid)
        assert omega.shape == delta.shape == (3, 4)
        assert (omega[0, 0], delta[2, 3]) == (0.0, 5.0)

    def test_an_array_outside_the_sweep_names_its_first_bad_time(self):
        with pytest.raises(InputError, match=r"^schedule evaluated at t=3\.0 outside \[0, 2\.5\]$"):
            PulseSchedule().value(np.array([1.0, 3.0, -1.0, math.nan]))
        with pytest.raises(InputError, match=r"^schedule evaluated at t=nan outside"):
            ConstantSchedule(1.0, 1.0, 2.5).value([0.5, math.nan, 3.0])

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
            with pytest.raises(InputError, match="coupling atom must be an integer"):
                HamiltonianSpec(n=2, couplings=((a, b, 1.0),))
        for n in (0, 2.5, True):
            with pytest.raises(InputError, match="atom count must be an integer >= 1"):
                HamiltonianSpec(n=n)
        for couplings in (5, None, (7,), ((0, 1),), ((0, 1, 1.0, 2.0),)):
            with pytest.raises(InputError, match="triples"):
                HamiltonianSpec(n=2, couplings=couplings)
        for bad in (True, np.bool_(True), "5", None):
            with pytest.raises(InputError, match="strength must be a finite real number"):
                HamiltonianSpec(n=2, couplings=((0, 1, bad),))
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                HamiltonianSpec(n=2, couplings=((0, 1, bad),))
            with pytest.raises(InputError):
                HamiltonianSpec(n=2, detuning_weights=(1.0, bad))
        for bad in (True, np.bool_(False), "2", None):
            with pytest.raises(InputError, match="detuning weight must be a finite real number"):
                HamiltonianSpec(n=2, detuning_weights=(bad, 1.0))
        g, _ = load_builtin_layout("G1")
        with pytest.raises(InputError, match="detuning weight must be a finite real number"):
            build_hamiltonian(g, detuning_weights=(1.0, True))
        spec = HamiltonianSpec(n=3, detuning_weights=(np.float64(1.5), np.int64(2), 3))
        assert spec.detuning_weights == (1.5, 2.0, 3.0)
        # float() had read True as strength 1.0 and "7" as 7.0.
        g2, _ = load_builtin_layout("G2")
        for u0 in (True, "7", math.nan):
            with pytest.raises(InputError, match="coupling strength u0 must be a finite real number"):
                build_hamiltonian(g2, u0=u0)

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

    def test_norm_guard_catches_nan(self, monkeypatch):
        # evolve refuses a NaN schedule value up front (tests/test_errors.py),
        # so the NaN enters through the rotation factors instead.
        def nan_factors(a, b):
            phase = np.full(b.shape, np.nan, dtype=complex)
            return phase, phase, np.full(b.shape + (2, 2), np.nan)

        monkeypatch.setattr(sim, "_rotation_factors", nan_factors)
        with pytest.raises(SimulationError, match="norm drifted to nan"):
            evolve(HamiltonianSpec(n=2), PulseSchedule(total_time=1.0), steps=3)

    def test_overflowing_interaction_is_refused_before_numpy_warns(self):
        # Every coupling is a finite real, but the energy of |111> sums past
        # the float range, and so does the stage phase of the two-atom pair.
        too_large = [
            HamiltonianSpec(n=3, couplings=((0, 1, 1e308), (0, 2, 1e308), (1, 2, 1e308))),
            HamiltonianSpec(n=2, couplings=((0, 1, 1e308),)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in too_large:
                with pytest.raises(InputError, match="^the interaction energy or a stage's phase is not finite"):
                    evolve(spec, steps=2)
            state = evolve(HamiltonianSpec(n=2, couplings=((0, 1, 1e300),)), steps=2)
        assert np.isfinite(state).all()

    def test_overflowing_schedule_is_refused_before_numpy_warns(self):
        # Finite schedule values whose ramps or stage angles pass the float range.
        spec = HamiltonianSpec(n=2, couplings=((0, 1, 1.0),))
        too_large = [
            (PulseSchedule(omega0=1e308), 10, "^a stage's rotation angle is not finite"),
            (PulseSchedule(omega0=1e307, delta_i=1e307, delta_f=1e307), 1, "^a stage's rotation angle"),
            (PulseSchedule(delta_f=1e308), 10, "^schedule Delta values must be finite"),
            (PulseSchedule(total_time=1e308), 10, "^schedule Delta values must be finite"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for schedule, steps, message in too_large:
                with pytest.raises(InputError, match=message):
                    evolve(spec, schedule, steps=steps)
            # The ramps overflow only in segments that np.where does not select.
            omega, _ = PulseSchedule(omega0=1e308).value(np.linspace(0.0, 2.5, 11))
            state = evolve(spec, PulseSchedule(omega0=1e300, delta_i=1e300, delta_f=1e300), steps=10)
        assert np.isfinite(omega).all() and omega.max() == 1e308
        assert np.isfinite(state).all()

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
        # Classes of one atom split like atoms: blocks of three, the remainder last.
        assert sim._block_split([1] * 15) == [3, 3, 3, 3, 3]
        assert sim._block_split([1] * 13) == [3, 3, 3, 3, 1]
        assert sim._block_split([1] * 11) == [3, 3, 3, 2]
        assert sim._block_split([1]) == [1]
        for n in range(1, 17):
            sizes = sim._block_split([1] * n)
            assert sizes == block_sizes_reference(n)
            assert sum(sizes) == n and max(sizes) <= 3

    def test_rotations_match_the_matrix_exponential(self):
        # R = g diag(1, u) M diag(1, u) with M real, M M = I and |g| = |u| = 1.
        rng = np.random.default_rng(7)
        edges = [
            (0.0, 0.4), (0.3, 0.0), (0.0, 0.0),  # a = 0, b = 0, both
            (math.pi / 2, 0.0),  # phi = pi/2 and b = 0: z = cos(phi) is rounding noise
            (-0.3, 0.4), (-1.7, -0.2),  # a < 0
            (1e3, 0.0), (-1e3, 0.0), (0.0, 1e3), (0.0, -1e3),  # |a|, |b| = 1e3, phi exact
        ]
        a = np.concatenate([[x for x, _ in edges], rng.uniform(-2.0, 2.0, size=40)])
        b = np.concatenate([[y for _, y in edges], rng.uniform(-2.0, 2.0, size=40)])
        # Random angles up to 1e3, where phi itself is rounded to about phi * 1e-16.
        big_a, big_b = rng.uniform(-1e3, 1e3, size=40), rng.uniform(-1e3, 1e3, size=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, u, m = sim._rotation_factors(np.concatenate([a, big_a]), np.concatenate([b, big_b]))
        assert g.shape == u.shape == (len(a) + 40,) and m.shape == (len(a) + 40, 2, 2)
        assert g.dtype == u.dtype == np.complex128 and m.dtype == np.float64
        assert np.max(np.abs(np.abs(g) - 1.0)) <= 1e-15 and np.max(np.abs(np.abs(u) - 1.0)) <= 1e-15
        assert np.max(np.abs(m @ m - np.eye(2))) <= 1e-15
        assert np.array_equal(m[:, 0, 1], m[:, 1, 0]) and np.array_equal(m[:, 1, 1], -m[:, 0, 0])
        for k, (x, y) in enumerate(zip(a, b)):
            assert np.max(np.abs(rebuilt_rotation(g[k], u[k], m[k]) - reference_rotation(x, y))) <= 1e-14
        for k, (x, y) in enumerate(zip(big_a, big_b), start=len(a)):
            error = np.max(np.abs(rebuilt_rotation(g[k], u[k], m[k]) - reference_rotation(x, y)))
            assert error <= 1e-15 * math.hypot(x, y)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_the_per_axis_reference(self, n):
        # Three stages of mixed weights, so every block multiplies distinct
        # rotations and each stage picks its own slice of the stored blocks.
        # The stage applies G D K D: its diagonal holds G D, and D follows.
        rng = np.random.default_rng(100 + n)
        weights = np.array([1.0, 2.0, 2.5])
        group = list(rng.integers(len(weights), size=n))
        stages = 3
        a = rng.uniform(-1.0, 1.0, size=(stages, 1))
        b = rng.uniform(-1.0, 1.0, size=(stages, 1)) * weights
        g, u, m = sim._rotation_factors(a, b)
        keys, start = [], 0
        for size in sim._block_split([1] * n):
            keys.append(tuple(group[start:start + size]))
            start += size
        blocks = [sim._kron_stages([m[:, w] for w in key]) for key in keys]
        blocks[-1] = sim._times_identity(blocks[-1])
        work = np.zeros((2, 2 << n))
        views = sim._block_views(work, [block.shape[1] for block in blocks])
        states = work.view(complex)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        for stage in range(stages):
            expected = psi.copy()
            rotations = [reference_rotation(a[stage, 0], b[stage, w]).ravel() for w in group]
            apply_rotations_reference(expected.reshape((2,) * n), rotations)
            diagonal = np.ones(1)
            for w in group:
                diagonal = np.kron(diagonal, [1.0, u[stage, w]])
            row = stage % 2
            states[row] = psi
            sim._apply_stage(states[row], np.prod(g[stage, group]) * diagonal, blocks, stage, views[row])
            got = states[(row + len(blocks)) % 2] * diagonal
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
        # A distinct weight per atom makes every block distinct, so seven
        # and a half steps fit in one chunk, and the last of 15 chunks holds
        # two.  Batches of one step split every chunk again.
        per_step = 3 * stage_bytes(spec)
        monkeypatch.setattr(sim, "_CHUNK_BYTES", 7 * per_step + per_step // 2)
        chunked = evolve(spec, PulseSchedule(), steps=steps)
        assert np.max(np.abs(chunked - whole)) <= 1e-13
        monkeypatch.setattr(sim, "_BATCH_BYTES", 1)
        assert np.max(np.abs(evolve(spec, PulseSchedule(), steps=steps) - whole)) <= 1e-13
        monkeypatch.setattr(sim, "_CHUNK_BYTES", 1)
        assert np.max(np.abs(evolve(spec, PulseSchedule(), steps=steps) - whole)) <= 1e-13

    def test_one_schedule_call_per_chunk(self, monkeypatch):
        class Spy:
            total_time = 2.5

            def __init__(self):
                self.calls = []

            def value(self, t):
                self.calls.append(np.array(t))
                return PulseSchedule().value(t)

        graph, _ = load_builtin_layout("G3")
        spec = build_hamiltonian(graph)
        # Blocks of dimension 6, 6 and 2 (4 times I_2) and phase factors of
        # 18 by 2 and 2 by 8 floats fill 40 steps, so 100 steps take chunks
        # of 40, 40 and 20.
        assert stage_bytes(spec) == 8 * (36 + 36 + 16) + 8 * (18 * 2 + 2 * 8)
        monkeypatch.setattr(sim, "_CHUNK_BYTES", 40 * 3 * stage_bytes(spec))
        spy = Spy()
        assert np.array_equal(evolve(spec, spy, steps=100), evolve(spec, PulseSchedule(), steps=100))
        assert [t.shape for t in spy.calls] == [(120,), (120,), (60,)]
        assert all(t.dtype == np.float64 for t in spy.calls)
        assert np.concatenate(spy.calls).tobytes() == np.array(stage_midpoints(2.5, 100)).tobytes()

    def test_zero_drive_keeps_the_ground_state_exactly(self):
        # phi = 0 at every stage: each rotation is the identity, with s = 1.
        graph, _ = load_builtin_layout("G5P")
        spec = build_hamiltonian(graph, detuning_weights=[1.0 + (k % 3) / 2 for k in range(graph.atom_count)])
        psi = evolve(spec, ConstantSchedule(0.0, 0.0, 1.0), steps=50)
        expected = np.zeros(1 << spec.n, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(psi, expected)

    def test_every_stored_block_is_real(self, monkeypatch):
        seen = set()
        apply_stage = sim._apply_stage

        def spy(state, diagonal, blocks, stage, views):
            seen.update((block.dtype, state.dtype, diagonal.dtype) for block in blocks)
            apply_stage(state, diagonal, blocks, stage, views)

        monkeypatch.setattr(sim, "_apply_stage", spy)
        for name in BUNDLED:
            graph, _ = load_builtin_layout(name)
            evolve(build_hamiltonian(graph), PulseSchedule(), steps=2)
        assert seen == {(np.dtype(np.float64), np.dtype(np.complex128), np.dtype(np.complex128))}

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
        # 5.5 MiB measured on G7 (numpy 2.4); the bound leaves about 0.5 MiB of margin.
        assert peaks[4000] <= 6 * 2**20
        assert abs(peaks[4000] - peaks[400]) <= 2**20

    def test_peak_memory_of_a_sweep_at_the_default_cap(self):
        # A twin-free 16-atom chain sweeps all 65,536 amplitudes.  Besides a
        # chunk of at most 4 MiB it holds 136 bytes per amplitude, 8.5 MiB.
        spec = HamiltonianSpec(n=16, couplings=tuple((k, k + 1, 50.0) for k in range(15)))
        peaks = {}
        tracemalloc.start()
        try:
            for steps in (20, 400):
                tracemalloc.reset_peak()
                evolve(spec, PulseSchedule(), steps=steps)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 12.6 MiB measured at both step counts (numpy 2.4).
        assert max(peaks.values()) <= 13.5 * 2**20


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
        _, _, rot = sim._rotation_factors(a, b)
        # Column m: the normalised sum of the bitstrings with m excited atoms.
        excited = np.array([bin(index).count("1") for index in range(1 << k)])
        dicke = np.stack([(excited == m) / math.sqrt(math.comb(k, m)) for m in range(k + 1)], axis=1)
        got = sim._symmetric_power(rot, k)
        assert got.shape == (4, k + 1, k + 1) and got.dtype == np.float64
        for stage in range(4):
            power = np.ones((1, 1))
            for _ in range(k):
                power = np.kron(power, rot[stage])
            assert np.max(np.abs(got[stage] - dicke.T @ power @ dicke)) <= 1e-13

    def test_one_atom_classes_take_the_atom_rotation_exactly(self):
        rng = np.random.default_rng(5)
        _, _, rot = sim._rotation_factors(rng.uniform(-2.0, 2.0, size=4), rng.uniform(-2.0, 2.0, size=4))
        assert np.array_equal(sim._symmetric_power(rot, 1), rot)

    def test_one_atom_classes_expand_to_the_state_itself(self):
        n = 6
        rng = np.random.default_rng(6)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        assert np.array_equal(sim._expand(psi, [[k] for k in range(n)], n), psi)

    def test_block_split_bounds_every_block(self):
        # G7: classes {0,1} and {13,14} around eleven single atoms, 18,432 amplitudes.
        assert sim._block_split([2] + [1] * 11 + [2]) == [2, 3, 3, 3, 2]  # dimensions 6, 8, 8, 8, 6
        assert sim._block_split([3, 1, 1, 1]) == [1, 3]  # G4: dimensions 4, 8
        assert sim._block_split([2, 1, 2, 1, 1]) == [2, 2, 1]  # G3: dimensions 6, 6, 2
        assert sim._block_split([2, 2]) == [1, 1]  # G_LNK: dimensions 3, 3
        assert sim._block_split([40]) == [1]  # a class above the bound is a block of its own
        rng = np.random.default_rng(3)
        for _ in range(200):
            sizes = list(rng.integers(1, 6, size=rng.integers(1, 12)))
            split = sim._block_split(sizes)
            assert sum(split) == len(sizes)
            assert len(split) <= -(-sum(sizes) // 3) + len(sizes)
            start = 0
            for count in split:
                block = sizes[start:start + count]
                assert sum(block) <= 3 or count == 1
                assert math.prod(k + 1 for k in block) <= 8 or count == 1
                # Greedy: the next class would take the block past three atoms.
                assert start + count == len(sizes) or sum(block) + sizes[start + count] > 3
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
        # Seven and a half steps fit, so the last of 15 chunks holds two.
        per_step = 3 * stage_bytes(spec)
        for size in (7 * per_step + per_step // 2, 1):
            monkeypatch.setattr(sim, "_CHUNK_BYTES", size)
            assert np.max(np.abs(evolve(spec, PulseSchedule(), steps=100) - whole)) <= 1e-13

    def test_evolve_logs_one_debug_record(self, caplog):
        graph, _ = load_builtin_layout("G7")
        with caplog.at_level(logging.DEBUG, logger="rydqubo"):
            evolve(build_hamiltonian(graph), PulseSchedule(), steps=2)
            evolve(HamiltonianSpec(n=3), PulseSchedule(), steps=5)
        assert [r.getMessage() for r in caplog.records] == [
            "evolve: atoms=15 classes=13 twins=[[0, 1], [13, 14]] basis=18432 full=32768 "
            "blocks=[6, 8, 8, 8, 6] steps=2",
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
        for state in (np.eye(2) / np.sqrt(2), np.array(1.0)):
            with pytest.raises(InputError, match="1-D"):
                measure_distribution(state)
        with pytest.raises(InputError, match="power of two"):
            measure_distribution(np.zeros(0))
        for state in ("abc", [1.0, "x"], {1: 2}):
            with pytest.raises(InputError, match="complex amplitudes"):
                measure_distribution(state)
        for labels in (5, (1,), "ab"):
            with pytest.raises(InputError, match="atom_labels"):
                measure_distribution(np.array([1.0, 0]), atom_labels=labels)
        with pytest.raises(InputError, match="atom label count"):
            measure_distribution(np.array([1.0, 0]), atom_labels=("a", "b"))

    def test_probability_sum_invariant(self):
        with pytest.raises(InputError):
            StateDistribution({"0": 0.5, "1": 0.4})
        with pytest.raises(InputError, match="sum to"):
            StateDistribution({})
        with pytest.raises(InputError, match="nonnegative"):
            StateDistribution({"0": 1.5, "1": -0.5})
        for bad in ({"0": "1"}, {"0": None, "1": 1.0}, {"0": True}, {"0": np.bool_(True)}):
            with pytest.raises(InputError, match="real numbers"):
                StateDistribution(bad)
        with pytest.raises(InputError, match="sum to nan"):
            StateDistribution({"0": math.nan, "1": 1.0})
        with pytest.raises(InputError, match="must be finite"):
            StateDistribution({"0": 10**400, "1": 1.0})
        for bad in ([("0", 1.0)], {"0": 0.5, 1: 0.5}, {(0,): 1.0}, None):
            with pytest.raises(InputError, match="map bitstrings"):
                StateDistribution(bad)
        for labels in (5, (1,), ["a", None], "a"):
            with pytest.raises(InputError, match="atom_labels"):
                StateDistribution({"0": 1.0}, atom_labels=labels)
        assert StateDistribution({"0": 1.0}, atom_labels=["a"]).atom_labels == ("a",)
        # Keys are 0s and 1s of one width that an int64 index holds (the
        # refusal table of test_errors.py has more); int(k, 2) alone would
        # take "0b1", " 1", "0_1" and other digits of value 1.
        for bad in ({"0b1": 1.0}, {" 1": 1.0}, {"0_1": 1.0}, {"\u0661": 1.0}):
            with pytest.raises(InputError, match="bitstrings must be 0s and 1s of one width"):
                StateDistribution(bad)
        # The older checks still come first.
        with pytest.raises(InputError, match="sum to"):
            StateDistribution({"ab": 0.5})
        assert StateDistribution({"1" * 63: 1.0}).top() == [("1" * 63, 1.0)]

    def test_the_table_is_copied_at_construction(self):
        given = {"0": 0.5, "1": 0.5}
        dist = StateDistribution(given)
        given["0"], given["1"] = 0.9, 0.1
        assert dist.probabilities == {"0": 0.5, "1": 0.5}
        assert dist.top(2) == [("0", 0.5), ("1", 0.5)]
        assert dist.to_csv() == "bitstring,probability\n0,0.5\n1,0.5\n"
        assert dist == StateDistribution({"0": 0.5, "1": 0.5})
        assert dist != StateDistribution(given)

    def test_equality_and_repr_read_the_arrays_not_the_cached_table(self):
        dist = StateDistribution({"0": 0.5, "1": 0.5})
        dist.probabilities["0"] = 0.9
        assert dist == StateDistribution({"0": 0.5, "1": 0.5})
        assert repr(dist) == "StateDistribution(probabilities={'0': 0.5, '1': 0.5}, exact=True, shots=None, atom_labels=None)"
        assert dist.top(2) == [("0", 0.5), ("1", 0.5)]
        # Every field still tells distributions apart.
        assert dist != StateDistribution({"0": 0.4, "1": 0.6})
        assert dist != StateDistribution({"00": 0.5, "01": 0.5})
        assert dist != StateDistribution({"0": 0.5, "1": 0.5}, exact=False)
        assert dist != StateDistribution({"0": 0.5, "1": 0.5}, shots=2)
        assert dist != StateDistribution({"0": 0.5, "1": 0.5}, atom_labels=["a"])
        assert dist != StateDistribution({"1": 1.0})

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
        plain = StateDistribution({"11": 0.1, "01": 0.3, "10": 0.3, "00": 0.3})
        # Equal up to rounding noise: the bitstring order decides, and the
        # reported probabilities are the unrounded ones.
        near = StateDistribution({"11": 0.1, "10": 0.3 + 4e-16, "01": 0.3, "00": 0.3 - 4e-16})
        bundled = [
            measure_distribution(evolve(build_hamiltonian(load_builtin_layout(name)[0]), steps=40))
            for name in BUNDLED
        ]
        for dist in [plain, near, *bundled]:
            ranked = sorted(dist.probabilities.items(), key=lambda kv: (-round(kv[1], 12), kv[0]))
            for k in (0, 1, 2, 3, len(ranked)):
                assert dist.top(k) == ranked[:k]
            assert dist.modal() == ranked[0][0]
            assert list(dist.to_dict()["probabilities"].items()) == ranked
            assert dist.to_csv().splitlines()[1:] == [f"{bs},{p:.12g}" for bs, p in ranked]
        assert plain.modal() == "00"
        assert [bs for bs, _ in near.top(4)] == ["00", "01", "10", "11"]

    @pytest.mark.parametrize("k", [-1, 2.5, True, None, "1", np.bool_(True)])
    def test_top_refuses_a_k_that_is_not_a_count(self, k):
        dist = StateDistribution({"01": 0.75, "10": 0.25})
        with pytest.raises(InputError, match="k must be"):
            dist.top(k)

    def test_every_reader_shares_one_ranking(self, monkeypatch):
        sorts = []
        argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            sorts.append(args)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        given = {"11": 0.1, "01": 0.3, "10": 0.3, "00": 0.3}
        dist = StateDistribution(dict(given))
        dist.top(1), dist.top(3), dist.modal(), dist.to_csv(), dist.to_dict()
        assert len(sorts) == 1
        # A table reads back in bitstring order, as a measured distribution does.
        assert list(dist.probabilities.items()) == sorted(given.items())
        sorts.clear()
        measured = measure_distribution(np.sqrt([0.3, 0.3, 0.3, 0.1]))
        measured.top(1), measured.top(3), measured.modal(), measured.to_csv(), measured.to_dict()
        assert len(sorts) == 1
        assert list(measured.probabilities) == ["00", "01", "10", "11"]
        assert [bs for bs, _ in measured.top(4)] == ["00", "01", "10", "11"]

    # The bundled graphs, and the first seed-table instances at n = 3 and 4
    # that fit the atom cap.
    @pytest.mark.parametrize("source", [*BUNDLED, (3, 0), (4, 2)], ids=str)
    def test_measured_readout_matches_the_table(self, source):
        # The array-backed distribution of a state against one built from its
        # table, and against the ranking and CSV rows written out in Python.
        if isinstance(source, str):
            graph, _ = load_builtin_layout(source)
        else:
            graph = compile_qubo(seed_table(source[0])[source[1]])
        n = graph.atom_count
        dist = measure_distribution(evolve(build_hamiltonian(graph), steps=40), atom_labels=graph.labels)
        assert list(dist.probabilities) == [format(i, f"0{n}b") for i in range(1 << n)]
        table = StateDistribution(dict(dist.probabilities), atom_labels=graph.labels)
        ranked = sorted(table.probabilities.items(), key=lambda kv: (-round(kv[1], 12), kv[0]))
        rows = ["# atom order: " + ",".join(graph.labels), "bitstring,probability"]
        rows += [f"{bs},{p:.12g}" for bs, p in ranked]
        assert dist.to_csv() == table.to_csv() == "\n".join(rows) + "\n"
        assert list(dist.to_dict()["probabilities"].items()) == ranked
        assert dist.to_dict() == table.to_dict()
        for k in (0, 1, 2, len(ranked)):
            assert dist.top(k) == table.top(k) == ranked[:k]
        assert dist.modal() == table.modal() == ranked[0][0]
        predicate = af_predicate(graph)
        assert postselect(dist, predicate) == postselect(table, predicate)
        assert sample_distribution(dist, 50, seed=3) == sample_distribution(table, 50, seed=3)
        # Shot counts drawn over the sorted bitstrings, written out with numpy.
        keys = sorted(table.probabilities)
        probs = np.array([table.probabilities[k] for k in keys])
        counts = np.random.default_rng(3).multinomial(50, probs / probs.sum())
        assert sample_distribution(dist, 50, seed=3).probabilities == {k: c / 50 for k, c in zip(keys, counts) if c}

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
