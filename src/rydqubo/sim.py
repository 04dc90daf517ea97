"""State-vector simulation of the driven blockade Hamiltonian.

The Hamiltonian, with all frequencies in (2 pi) MHz and time in us, is

    H(t) = Omega(t)/2 * sum_i sx_i  -  Delta(t) * sum_i w_i n_i
         + sum_{(i,j)} U_ij n_i n_j.

Propagation uses a fixed-step fourth-order composition of unitary split
steps: an interaction phase plus an exact per-atom rotation that carries
drive and detuning.  The norm is conserved to machine precision for any step
size, results are bit-for-bit deterministic for a fixed step count, and
uncoupled atoms under a constant schedule are propagated exactly.

Twin atoms are propagated as one class.  Two atoms are twins when they have
equal detuning weights and identical coupling rows, which makes them
uncoupled; ideal-blockade data copies and offsets are twins, while van der
Waals mode, which couples every pair, and unequal weights never make any.
The Hamiltonian is exchange-symmetric within a class and |0...0> is
symmetric, so a class of k atoms is one (k+1)-level axis that counts its
excited atoms m in the normalised Dicke basis.  Its rotation is the
symmetric power of the atoms' 2x2 rotation and two classes interact through
U m_c m_d.  At the end the state is expanded to all 2^n bitstrings,
psi(bits) = psi_red(m) / sqrt(prod_c C(k_c, m_c)).  When no atom has a twin
the reduced basis is the bitstring basis and the expansion is the identity.

The rotations are applied block by block: the class axes are split into
near-equal blocks of at most five atoms, so of dimension at most 32, and
each block's Kronecker product of class rotations acts as one matrix
product on the state viewed as a (dim, rest) matrix.  Each product also
cycles the block's axes to the end, so after the last block the state is
back in class order without a transpose.  The sweep runs in chunks of
steps, each building every stage's rotations and block products in one
vectorised pass, so the loop over stages only multiplies; a chunk stores at
most ``_CHUNK_ENTRIES`` complex entries.

Bit order: atom k maps to character k of the measured bitstring; internally
that is bit (n-1-k) of the state index, so ``format(index, f"0{n}b")`` reads
in atom order.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, pairwise, product
from typing import Callable, Mapping, Sequence

import numpy as np

from .compiler import AtomGraph
from .errors import CapExceeded, EmptySelection, InputError, SimulationError
from .errors import is_real_type, require_finite, require_int, require_real
from .geometry import Layout, PhysicalParams, pair_interaction
from .qubo import check_assignment

DEFAULT_SIM_CAP = 16
DEFAULT_STEPS = 4000
# Steps are swept in chunks whose stored blocks hold at most this many complex
# entries (4 MiB), whatever the step count.
_CHUNK_ENTRIES = 1 << 18
_TWO_PI = 2.0 * math.pi
# Largest drift of a state's norm from 1 that evolve and measure accept.
_NORM_TOL = 1e-6
# numpy's multinomial draws int64 counts.
_MAX_SHOTS = 2**63 - 1

# Fourth-order (triple-jump) composition coefficients for symmetric steps.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1


def _clamp_time(t: float, total: float) -> float:
    """``t`` clamped to [0, total]; refuses a t further outside than 1e-9 * total, or NaN."""
    if not -1e-9 * total <= t <= total * (1 + 1e-9):
        raise InputError(f"schedule evaluated at t={t} outside [0, {total}]")
    return min(max(t, 0.0), total)


@dataclass(frozen=True)
class PulseSchedule:
    """Piecewise-linear drive and detuning ramps over one sweep.

    The drive ramps 0 -> omega0 on [0, t1*T], holds, then ramps back to 0 on
    [t2*T, T]; the detuning holds delta_i, sweeps linearly to delta_f on
    [t1*T, t2*T], then holds.  Defaults give the standard 2.5 us sweep.
    """

    total_time: float = 2.5
    omega0: float = 0.96
    delta_i: float = -4.0
    delta_f: float = 5.0
    t1: float = 0.1
    t2: float = 0.9

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.total_time > 0:
            raise InputError(f"total_time must be positive, got {self.total_time}")
        if not 0.0 < self.t1 < self.t2 < 1.0:
            raise InputError(f"ramp fractions need 0 < t1 < t2 < 1, got {self.t1}, {self.t2}")

    def value(self, t: float) -> tuple[float, float]:
        total = self.total_time
        t = _clamp_time(t, total)
        up = self.t1 * total
        down = self.t2 * total
        if t < up:
            omega = self.omega0 * t / up
            delta = self.delta_i
        elif t <= down:
            omega = self.omega0
            delta = self.delta_i + (self.delta_f - self.delta_i) * (t - up) / (down - up)
        else:
            omega = self.omega0 * (total - t) / (total - down)
            delta = self.delta_f
        return omega, delta


@dataclass(frozen=True)
class ConstantSchedule:
    """Fixed drive and detuning for a given duration; handy for calibration."""

    omega: float
    delta: float
    total_time: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.total_time > 0:
            raise InputError(f"total_time must be positive, got {self.total_time}")

    def value(self, t: float) -> tuple[float, float]:
        _clamp_time(t, self.total_time)
        return self.omega, self.delta


class HamiltonianMode(Enum):
    IDEAL_BLOCKADE = "ideal"
    FULL_VDW = "vdw"


@dataclass(frozen=True)
class HamiltonianSpec:
    """Diagonal couplings plus per-atom detuning weights for one graph.

    Hermitian by construction: couplings are real pair terms and the drive
    is a uniform bit-flip sum.
    """

    n: int
    couplings: tuple[tuple[int, int, float], ...] = ()
    detuning_weights: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", require_int(self.n, "atom count", 1))
        try:
            weights = tuple(self.detuning_weights) or tuple(1.0 for _ in range(self.n))
        except TypeError as exc:
            raise InputError(f"detuning_weights must be a sequence, got {self.detuning_weights!r}") from exc
        weights = tuple(require_real(w, "detuning weight") for w in weights)
        if len(weights) != self.n:
            raise InputError("detuning_weights length must equal the atom count")
        object.__setattr__(self, "detuning_weights", weights)
        try:
            triples = [(a, b, u) for a, b, u in self.couplings]
        except (TypeError, ValueError) as exc:
            raise InputError(f"couplings must be (atom, atom, strength) triples: {exc}") from exc
        cleaned = []
        for a, b, u in triples:
            a, b = require_int(a, "coupling atom"), require_int(b, "coupling atom")
            if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
                raise InputError(f"coupling ({a}, {b}) is not a valid pair")
            cleaned.append((min(a, b), max(a, b), require_real(u, "coupling strength", 0)))
        object.__setattr__(self, "couplings", tuple(sorted(cleaned)))


def _check_cap(n: int, cap: int) -> None:
    if n > require_int(cap, "cap", 0):
        raise CapExceeded(f"simulation capped at {cap} atoms, got {n}")


def build_hamiltonian(
    graph: AtomGraph,
    params: PhysicalParams | None = None,
    mode: HamiltonianMode = HamiltonianMode.IDEAL_BLOCKADE,
    layout: Layout | None = None,
    u0: float | None = None,
    detuning_weights: Sequence[float] | None = None,
    cap: int = DEFAULT_SIM_CAP,
) -> HamiltonianSpec:
    """Interaction terms for ``graph``.

    Ideal-blockade mode puts a uniform strength (default ten times the
    final detuning) on declared edges only; full van der Waals mode needs a
    layout and couples every atom pair with c6/r^6, residual tails included.
    It builds n(n-1)/2 couplings, so it refuses more than ``cap`` atoms, the
    cap ``evolve`` applies, before building any.
    Integer ``detuning_weights`` larger than one realise weighted vertices.
    """
    params = params or PhysicalParams()
    n = graph.atom_count
    cap = require_int(cap, "cap", 0)
    if mode is HamiltonianMode.IDEAL_BLOCKADE:
        strength = 10.0 * params.delta if u0 is None else require_real(u0, "coupling strength u0")
        couplings = [(a, b, strength) for a, b in sorted(graph.edges)]
    elif mode is HamiltonianMode.FULL_VDW:
        if layout is None:
            raise InputError("full van der Waals mode requires a layout")
        layout.check_atoms(n)
        _check_cap(n, cap)
        couplings = []
        for a in range(n):
            for b in range(a + 1, n):
                couplings.append((a, b, pair_interaction(params, layout.distance(a, b))))
    else:
        raise InputError(f"unknown mode {mode!r}")
    weights = detuning_weights if detuning_weights is not None else ()
    return HamiltonianSpec(n=n, couplings=tuple(couplings), detuning_weights=weights)


def _twin_classes(spec: HamiltonianSpec) -> list[list[int]]:
    """Atoms grouped by detuning weight and coupling row, in order of first atom.

    Identical rows force twins to be uncoupled: a's row holds U_ab where b's
    holds 0.
    """
    rows = [[0.0] * spec.n for _ in range(spec.n)]
    for a, b, u in spec.couplings:
        rows[a][b] += u
        rows[b][a] += u
    classes: dict[tuple, list[int]] = {}
    for atom, (w, row) in enumerate(zip(spec.detuning_weights, rows)):
        classes.setdefault((w, *row), []).append(atom)
    return list(classes.values())


def _class_counts(classes: Sequence[Sequence[int]]) -> np.ndarray:
    """Excited atoms m_c of every class-axis basis state, class 0 leading; shape (classes, basis)."""
    # int16 is a quarter of int64's memory and holds m_c m_d for classes of up to 181 atoms.
    return np.indices([len(members) + 1 for members in classes], dtype=np.int16).reshape(len(classes), -1)


def _interaction_energy(spec: HamiltonianSpec, classes: Sequence[Sequence[int]]) -> np.ndarray:
    """Interaction energy sum U_cd m_c m_d of every basis state of the class axes.

    Twins share their coupling rows, so the couplings between the first atoms
    of two classes are those of every cross pair.
    """
    first = {members[0]: c for c, members in enumerate(classes)}
    counts = _class_counts(classes)
    interaction = np.zeros(counts.shape[1])
    for a, b, u in spec.couplings:
        if a in first and b in first:
            interaction += u * (counts[first[a]] * counts[first[b]])
    return interaction


def diagonal_energy(spec: HamiltonianSpec, delta: float, bits: Sequence[int] | str) -> float:
    """Drive-off energy of one basis configuration, in (2 pi) MHz."""
    bits = check_assignment(spec.n, bits)
    energy = -delta * sum(w * b for w, b in zip(spec.detuning_weights, bits))
    for a, b, u in spec.couplings:
        energy += u * bits[a] * bits[b]
    return energy


def _rotations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-i (a sx - 2 b n)) for each entry of ``b``, shape b.shape + (2, 2).

    For one atom over a stage of duration d, a = pi d Omega and
    b = pi d Delta w; ``a`` broadcasts against ``b``.  Each matrix is
    symmetric.
    """
    phi = np.hypot(a, b)
    s = np.divide(np.sin(phi), phi, out=np.ones_like(phi), where=phi != 0)
    c = np.cos(phi)
    phase = np.cos(b) + 1j * np.sin(b)
    rot = np.empty(phi.shape + (2, 2), dtype=np.complex128)
    rot[..., 0, 0] = phase * (c - 1j * (b * s))
    rot[..., 0, 1] = rot[..., 1, 0] = phase * (-1j * (a * s))
    rot[..., 1, 1] = phase * (c + 1j * (b * s))
    return rot


def _symmetric_power(rot: np.ndarray, k: int) -> np.ndarray:
    """R^(x)k on the normalised Dicke states of k atoms, per stage.

    ``rot`` has shape (stages, 2, 2) and is symmetric; the result has shape
    (stages, k+1, k+1) and is symmetric too.  Each of the k-j ground atoms of
    a state with j excited atoms goes to r00 + r10 t and each excited atom
    to r01 + r11 t, t marking an excited atom, so entry (i, j) is
    sqrt(C(k,j)/C(k,i)) times the coefficient of t^i in
    (r00 + r10 t)^(k-j) (r01 + r11 t)^j.
    """
    # poly[i, j] is the t^i coefficient of column j's product so far, per
    # stage (the last axis, so every pass runs over contiguous stages).
    # Factor f of column j is column 1 of R, an excited atom, if f < j.
    columns = rot.transpose(1, 2, 0)
    poly = np.zeros((k + 1, k + 1, len(rot)), dtype=np.complex128)
    poly[0] = 1.0
    for f in range(k):
        low, high = columns[:, (np.arange(k + 1) > f).astype(np.intp)]
        carry = poly[:-1] * high
        poly *= low
        poly[1:] += carry
    comb = np.array([math.comb(k, m) for m in range(k + 1)], dtype=float)
    poly *= np.sqrt(comb / comb[:, None])[:, :, None]
    return np.ascontiguousarray(poly.transpose(2, 0, 1))


def _block_split(sizes: Sequence[int]) -> list[int]:
    """Near-equal split of consecutive classes into blocks of at most five atoms.

    ``sizes`` holds each class's atom count; returns the number of classes
    per block.  Each block takes classes while its atoms stay within the
    remaining atoms' equal share of the ceil(atoms/5) blocks they need; a
    class of more than five atoms is a block of its own.  A class of k atoms
    is an axis of dimension k+1 <= 2^k, so every other block has dimension
    at most 32.  One-atom classes split like atoms, larger blocks first.
    """
    split: list[int] = []
    rest = list(sizes)
    while rest:
        atoms = sum(rest)
        blocks = -(-atoms // 5)
        share = -(-atoms // blocks)
        count, taken = 1, rest[0]
        while count < len(rest) and taken + rest[count] <= share:
            taken += rest[count]
            count += 1
        split.append(count)
        rest = rest[count:]
    return split


def _kron_stages(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of per-stage matrices, per stage.

    Each factor has shape (stages, d, d); the result has shape
    (stages, D, D), D the product of the d, with the first factor as the
    most significant axis, matching the state's axes.
    """
    out = factors[0]
    for factor in factors[1:]:
        m = out.shape[1] * factor.shape[1]
        out = (out[:, :, None, :, None] * factor[:, None, :, None, :]).reshape(-1, m, m)
    return out


def _expand(psi: np.ndarray, classes: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """The 2^n bitstring amplitudes of a state on the class axes.

    Bitstring amplitude = psi(m) / sqrt(prod_c C(k_c, m_c)), m_c the excited
    atoms of class c.
    """
    dims = [len(members) + 1 for members in classes]
    scale = np.ones(len(psi))
    for dim, m in zip(dims, _class_counts(classes)):
        scale /= np.sqrt([math.comb(dim - 1, j) for j in range(dim)])[m]
    # Class-axis index of every bitstring, atom 0 the most significant bit.
    stride = {atom: math.prod(dims[c + 1:]) for c, members in enumerate(classes) for atom in members}
    index = sum(np.ix_(*([0, stride[atom]] for atom in range(n)))).reshape(-1)
    return (psi * scale)[index]


def _apply_blocks(psi: np.ndarray, blocks: Sequence[np.ndarray], stage: int) -> np.ndarray:
    """Product of per-class symmetric rotations; returns the new state.

    ``blocks[k][stage]`` is the Kronecker product of the rotations of block
    k's classes.  With the block's axes leading,
    ``psi.reshape(dim, -1).T @ block`` applies it (the product is symmetric)
    and moves those axes to the end.  The blocks cover every class axis, so
    after the last block the axes are back in order.
    """
    for block in blocks:
        psi = psi.reshape(block.shape[1], -1).T @ block[stage]
    return psi.reshape(-1)


def evolve(
    spec: HamiltonianSpec,
    schedule=None,
    steps: int = DEFAULT_STEPS,
    cap: int = DEFAULT_SIM_CAP,
) -> np.ndarray:
    """Propagate |0...0> through the schedule; returns the final state vector.

    The state is swept on the twin-class axes and returned on all 2^n
    bitstrings.  Each step composes three symmetric split steps
    V(d/2) R(d) V(d/2), with V the interaction phase and R the per-class
    rotations at the stage midpoint.  Every factor is exactly unitary, so
    the norm guard below is a self-check rather than a tuning knob.  Halving the step size is the
    accuracy test: reported probabilities move by far less than 1e-4 at the
    default step count.
    """
    schedule = schedule or PulseSchedule()
    n = spec.n
    _check_cap(n, cap)
    steps = require_int(steps, "steps", 1)

    # Twins share one class axis, classes of equal weight and size share one
    # rotation per stage, and blocks of equal classes share one array of
    # Kronecker products.
    classes = _twin_classes(spec)
    weights = sorted(set(spec.detuning_weights))
    factor = [(weights.index(spec.detuning_weights[members[0]]), len(members)) for members in classes]
    split = _block_split([len(members) for members in classes])
    keys = [tuple(factor[a:b]) for a, b in pairwise(accumulate(split, initial=0))]
    distinct = {key: math.prod(k + 1 for _, k in key) for key in keys}
    block_dims = [distinct[key] for key in keys]
    # Three stages per step.
    chunk = max(1, _CHUNK_ENTRIES // (3 * sum(dim**2 for dim in distinct.values())))

    h = schedule.total_time / steps
    d1, d2, d3 = _W1 * h, _W0 * h, _W1 * h
    # The interaction and the two distinct half-stage durations are fixed,
    # so both diagonal phase vectors are precomputed.
    interaction = _interaction_energy(spec, classes)
    u_half = np.exp(-1j * _TWO_PI * (d1 / 2.0) * interaction)
    u_merged = np.exp(-1j * _TWO_PI * ((d1 + d2) / 2.0) * interaction)

    def stage_blocks(begin: int, end: int) -> list[np.ndarray]:
        """Each block's Kronecker products for every stage of steps [begin, end)."""
        values = [
            schedule.value(t)
            for t0 in (step * h for step in range(begin, end))
            for t in (t0 + 0.5 * d1, t0 + d1 + 0.5 * d2, t0 + d1 + d2 + 0.5 * d3)
        ]
        omega, delta = np.array(values, dtype=float).T
        durations = np.tile((d1, d2, d3), end - begin)
        rot = _rotations(
            (math.pi * omega * durations)[:, None],
            (math.pi * delta)[:, None] * np.array(weights) * durations[:, None],
        )
        mats = {f: _symmetric_power(rot[:, f[0]], f[1]) for f in set(factor)}
        built = {key: _kron_stages([mats[f] for f in key]) for key in distinct}
        return [built[key] for key in keys]

    # Until something loads logging no handler exists to take the record, so
    # the package never loads it itself.
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("rydqubo").debug(
            "evolve: atoms=%d classes=%d twins=%s basis=%d full=%d blocks=%s steps=%d",
            n, len(classes), [c for c in classes if len(c) > 1], len(interaction), 1 << n,
            block_dims, steps,
        )

    psi = np.zeros(len(interaction), dtype=np.complex128)
    psi[0] = 1.0

    check_every = max(1, steps // 40)
    for begin in range(0, steps, chunk):
        end = min(begin + chunk, steps)
        blocks = stage_blocks(begin, end)
        for step in range(begin, end):
            stage = 3 * (step - begin)
            psi *= u_half
            psi = _apply_blocks(psi, blocks, stage)
            psi *= u_merged
            psi = _apply_blocks(psi, blocks, stage + 1)
            psi *= u_merged
            psi = _apply_blocks(psi, blocks, stage + 2)
            psi *= u_half
            if step % check_every == 0 or step == steps - 1:
                norm = math.sqrt(float(np.vdot(psi, psi).real))
                if not (abs(norm - 1.0) <= _NORM_TOL):
                    raise SimulationError(
                        f"norm drifted to {norm} at step {step}; reduce the step size"
                    )
        # Free this chunk's blocks before the next chunk builds its own.
        del blocks
    return _expand(psi, classes, n)


# ----------------------------------------------------------------------
# Measurement distributions
# ----------------------------------------------------------------------


@dataclass
class StateDistribution:
    """Probability per measured bitstring.

    ``exact`` distinguishes Born probabilities from sampled frequencies.
    Probabilities are nonnegative reals summing to one within 1e-9; the
    outcomes are ranked on first read, so do not change the table after.
    """

    probabilities: dict[str, float]
    exact: bool = True
    shots: int | None = None
    atom_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        table, labels = self.probabilities, self.atom_labels
        if not isinstance(table, Mapping) or not all(issubclass(t, str) for t in set(map(type, table))):
            raise InputError("probabilities must map bitstrings, as str, to probabilities")
        if labels is not None:
            if isinstance(labels, str) or not isinstance(labels, Sequence) or not all(isinstance(s, str) for s in labels):
                raise InputError(f"atom_labels must be a sequence of str, got {labels!r}")
            self.atom_labels = tuple(labels)
        values = table.values()
        if not all(map(is_real_type, set(map(type, values)))):
            raise InputError("probabilities must be real numbers")
        try:
            probs = np.fromiter(values, float, len(values))
        except OverflowError:
            raise InputError("probabilities must be finite") from None
        if (probs < 0).any():
            raise InputError(f"probabilities must be nonnegative, got {probs.min()}")
        total = float(probs.sum())
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise InputError(f"probabilities sum to {total}, expected 1")

    @functools.cached_property
    def _ranking(self) -> list[tuple[str, float]]:
        """Every outcome by falling probability, then by bitstring; taken once.

        Probabilities are ranked rounded to 1e-12, so outcomes equal up to
        rounding noise (by a symmetry of the graph) order by bitstring.
        """
        items = sorted(self.probabilities.items())
        ranks = -np.round(np.fromiter((p for _, p in items), float, len(items)), 12)
        return [items[i] for i in np.argsort(ranks, kind="stable").tolist()]

    def top(self, k: int = 1) -> list[tuple[str, float]]:
        """The k most probable bitstrings, ties broken lexicographically."""
        return self._ranking[:require_int(k, "k", 0)]

    def modal(self) -> str:
        return self._ranking[0][0]

    def to_csv(self) -> str:
        """Every outcome as a CSV row, by falling probability."""
        lines = []
        if self.atom_labels:
            lines.append("# atom order: " + ",".join(self.atom_labels))
        lines.append("bitstring,probability")
        for bs, p in self._ranking:
            lines.append(f"{bs},{p:.12g}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "atom_order": list(self.atom_labels) if self.atom_labels else None,
            "exact": self.exact,
            "shots": self.shots,
            "probabilities": dict(self._ranking),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def measure_distribution(
    state: np.ndarray, atom_labels: Sequence[str] | None = None
) -> StateDistribution:
    """Born probabilities of every bitstring in atom order."""
    try:
        state = np.asarray(state, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InputError(f"state must be a vector of complex amplitudes: {exc}") from None
    if state.ndim != 1:
        raise InputError(f"state must be a 1-D vector, got shape {state.shape}")
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if dim == 0 or dim != 1 << n:
        raise InputError(f"state dimension {dim} is not a power of two")
    probs = np.abs(state) ** 2
    total = float(probs.sum())
    if not (abs(math.sqrt(total) - 1.0) <= _NORM_TOL):
        raise InputError(f"state is not normalised (norm {math.sqrt(total):.8f})")
    probs /= total
    # Bitstrings in index order; a one-amplitude state reads "0" (zip stops
    # at the shorter), as format(0, "b") does.
    table = dict(zip(map("".join, product("01", repeat=max(n, 1))), probs.tolist()))
    dist = StateDistribution(probabilities=table, exact=True, atom_labels=atom_labels)
    if dist.atom_labels is not None and len(dist.atom_labels) != n:
        raise InputError("atom label count does not match the state size")
    return dist


def sample_distribution(dist: StateDistribution, shots: int, seed: int = 0) -> StateDistribution:
    """Multinomial shot noise applied to an exact distribution.

    ``shots`` must be an integer in [1, 2**63 - 1], numpy's largest count,
    and ``seed`` an integer >= 0.
    """
    shots, seed = require_int(shots, "shots", 1), require_int(seed, "seed", 0)
    if shots > _MAX_SHOTS:
        raise InputError(f"shots must be at most {_MAX_SHOTS}, got {shots}")
    keys = sorted(dist.probabilities)
    probs = np.array([dist.probabilities[k] for k in keys])
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    table = {k: c / shots for k, c in zip(keys, counts) if c}
    return StateDistribution(
        probabilities=table, exact=False, shots=shots, atom_labels=dist.atom_labels
    )


def postselect(
    dist: StateDistribution, predicate: Callable[[str], bool]
) -> StateDistribution:
    """Drop outcomes failing ``predicate`` and renormalise the rest."""
    kept = {bs: p for bs, p in dist.probabilities.items() if predicate(bs)}
    mass = sum(kept.values())
    if mass <= 0.0:
        raise EmptySelection("post-selection removed all probability mass")
    table = {bs: p / mass for bs, p in kept.items()}
    return StateDistribution(
        probabilities=table, exact=dist.exact, shots=None, atom_labels=dist.atom_labels
    )


def af_predicate(graph: AtomGraph) -> Callable[[Sequence[int] | str], bool]:
    """Alternation filter: every constrained pair must hold opposite bits.

    The predicate takes a bitstring or a bit sequence and checks its length
    only, to keep ``postselect`` over 2^n outcomes cheap.  Graphs without
    constraint atoms yield an always-true predicate.
    """
    pairs = graph.af_pairs()
    n = graph.atom_count

    def predicate(config: Sequence[int] | str) -> bool:
        if len(config) != n:
            raise InputError(f"configuration {config!r} does not have {n} entries")
        return all(config[a] != config[b] for a, b in pairs)

    return predicate
