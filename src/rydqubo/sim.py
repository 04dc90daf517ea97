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
near-equal blocks of at most four atoms, so of dimension at most 16, and
each block's Kronecker product of class rotations acts as one matrix
product on the state viewed as a (dim, rest) matrix.  Each product also
cycles the block's axes to the end, so after the last block the state is
back in class order without a transpose.  The sweep runs in chunks of
steps.  Each chunk evaluates the schedule once, on the array of its stage
midpoints, then builds one rotation per class and one Kronecker product per
block for every stage in one vectorised pass, so the loop over stages only
multiplies; a chunk stores at most ``_CHUNK_ENTRIES`` complex entries.

Bit order: atom k maps to character k of the measured bitstring; internally
that is bit (n-1-k) of the state index, so ``format(index, f"0{n}b")`` reads
in atom order.  A measured distribution keeps its probabilities as one array
in index order and formats a bitstring only when a reader asks for it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, pairwise
from typing import Callable, Mapping, Sequence

import numpy as np

from .compiler import AtomGraph
from .errors import CapExceeded, EmptySelection, InputError, SimulationError
from .errors import is_real_type, require_finite, require_int, require_real
from .geometry import Layout, PhysicalParams, pair_interaction

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


def _reals(value, what: str) -> np.ndarray:
    """``value``, one real number or an array of them, as float64.

    Refuses bools, strings, None and complex numbers; ``what`` names one
    value in the message.
    """
    out = np.asarray(value)
    if out.dtype.kind == "O" and is_real_type(type(value)):  # Fraction, or an int beyond 64 bits
        out = np.asarray(require_real(value, what))
    if out.dtype.kind not in "iuf":
        got = repr(value) if out.ndim == 0 else f"an array of {out.dtype}"
        raise InputError(f"{what}s must be real numbers, got {got}")
    return np.asarray(out, dtype=float)


def _clamp_time(t, total: float) -> np.ndarray:
    """``t``, one time or an array of times, as float64 clamped to [0, total].

    Refuses what ``_reals`` refuses, and NaN or a time further outside than
    1e-9 * total, naming the first.
    """
    times = _reals(t, "schedule time")
    outside = ~((times >= -1e-9 * total) & (times <= total * (1 + 1e-9)))
    if outside.any():
        raise InputError(f"schedule evaluated at t={float(times[outside][0])} outside [0, {total}]")
    return np.clip(times, 0.0, total)


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

    def value(self, t):
        """(Omega, Delta) at ``t``: two floats for one time, two arrays of its shape for an array."""
        total = self.total_time
        t = _clamp_time(t, total)
        up = self.t1 * total
        down = self.t2 * total
        ramp, hold = t < up, t <= down
        # np.where evaluates every segment at every time, so a huge finite
        # value can overflow in a segment it does not select; a selected
        # overflow is refused by evolve.
        with np.errstate(over="ignore", invalid="ignore"):
            omega = np.where(ramp, self.omega0 * t / up, np.where(
                hold, self.omega0, self.omega0 * (total - t) / (total - down)))
            delta = np.where(ramp, self.delta_i, np.where(
                hold, self.delta_i + (self.delta_f - self.delta_i) * (t - up) / (down - up), self.delta_f))
        return (float(omega), float(delta)) if t.ndim == 0 else (omega, delta)


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


def _rotations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-i (a sx - 2 b n)) for each entry of ``b``, shape b.shape + (2, 2).

    For one atom over a stage of duration d, a = pi d Omega and
    b = pi d Delta w; ``a`` broadcasts against ``b``.  Each matrix is
    symmetric.  Raises InputError if an angle is not finite; called under an
    errstate that ignores overflow, it does so before numpy warns.
    """
    phi = np.hypot(a, b)
    if not np.isfinite(phi).all():
        raise InputError(
            "a stage's rotation angle is not finite; Omega, Delta or the sweep time is too large"
        )
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
    """Near-equal split of consecutive classes into blocks of at most four atoms.

    ``sizes`` holds each class's atom count; returns the number of classes
    per block.  Each block takes classes while its atoms stay within the
    remaining atoms' equal share of the ceil(atoms/4) blocks they need; a
    class of more than four atoms is a block of its own.  A class of k atoms
    is an axis of dimension k+1 <= 2^k, so every other block has dimension
    at most 16.  One-atom classes split like atoms, larger blocks first.
    Products of dimension 24 to 32 cost more in flops than they save in
    calls.
    """
    split: list[int] = []
    rest = list(sizes)
    while rest:
        atoms = sum(rest)
        blocks = -(-atoms // 4)
        share = -(-atoms // blocks)
        count, taken = 1, rest[0]
        while count < len(rest) and taken + rest[count] <= share:
            taken += rest[count]
            count += 1
        split.append(count)
        rest = rest[count:]
    return split


def _kron_stages(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of per-stage matrices, per stage.

    Each array has shape (stages, d, d); the result has shape
    (stages, D, D), D the product of the d, with the first array as the
    most significant axis, matching the state's axes.
    """
    out = mats[0]
    for mat in mats[1:]:
        m = out.shape[1] * mat.shape[1]
        out = (out[:, :, None, :, None] * mat[:, None, :, None, :]).reshape(-1, m, m)
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


def _schedule_values(schedule, times: np.ndarray) -> list[np.ndarray]:
    """``schedule.value(times)`` as [Omega, Delta], each finite float64 of ``times``' shape or 0-d."""
    got = schedule.value(times)
    try:
        omega, delta = got
    except (TypeError, ValueError):
        raise InputError(f"schedule value must return (Omega, Delta), got {type(got).__name__}") from None
    out = []
    for name, x in (("Omega", omega), ("Delta", delta)):
        x = _reals(x, f"schedule {name} value")
        if x.shape not in ((), times.shape):
            raise InputError(
                f"schedule {name} values must be one number or of shape {times.shape}, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise InputError(f"schedule {name} values must be finite, got {x[~np.isfinite(x)].flat[0]}")
        out.append(x)
    return out


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
    rotations at the stage midpoint.  V and R are exactly unitary, so
    the norm guard below is a self-check rather than a tuning knob.  Halving the step size is the
    accuracy test: reported probabilities move by far less than 1e-4 at the
    default step count.

    ``schedule`` defaults to ``PulseSchedule()``; any other needs a finite
    positive real ``total_time`` and a ``value`` method, which is called once
    per chunk of steps with a 1-D float array of stage midpoints and returns
    (Omega, Delta) as two arrays of that shape or two scalars, all finite
    reals; anything else raises InputError.
    """
    schedule = PulseSchedule() if schedule is None else schedule
    total, value = getattr(schedule, "total_time", None), getattr(schedule, "value", None)
    if not (is_real_type(type(total)) and 0 < total < math.inf and callable(value)):
        raise InputError(f"schedule needs a positive total_time and a value method, got {schedule!r}")
    n = spec.n
    _check_cap(n, cap)
    steps = require_int(steps, "steps", 1)

    # Twins share one class axis; a block's rotation is its classes' Kronecker product.
    classes = _twin_classes(spec)
    sizes = [len(members) for members in classes]
    weights = np.array([spec.detuning_weights[members[0]] for members in classes])
    bounds = list(pairwise(accumulate(_block_split(sizes), initial=0)))
    block_dims = [math.prod(k + 1 for k in sizes[a:b]) for a, b in bounds]
    # Three stages per step.
    chunk = max(1, _CHUNK_ENTRIES // (3 * sum(dim**2 for dim in block_dims)))

    h = total / steps
    d1, d2, d3 = _W1 * h, _W0 * h, _W1 * h
    # The interaction and the two half-stage durations are fixed,
    # so both diagonal phase vectors are precomputed.  Finite couplings can
    # still sum past the float range; that is refused before numpy warns.
    with np.errstate(over="ignore", invalid="ignore"):
        interaction = _interaction_energy(spec, classes)
        phases = [-1j * _TWO_PI * (d / 2.0) * interaction for d in (d1, d1 + d2)]
    if not all(np.isfinite(phase).all() for phase in phases):
        raise InputError("the interaction energy or a stage's phase is not finite; the couplings are too large")
    u_half, u_merged = (np.exp(phase, out=phase) for phase in phases)

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
        # The stage midpoints of steps [begin, end), in order, take one schedule call.
        t0 = np.arange(begin, end) * h
        times = np.stack((t0 + 0.5 * d1, t0 + d1 + 0.5 * d2, t0 + d1 + d2 + 0.5 * d3), 1).ravel()
        durations = np.tile((d1, d2, d3), end - begin)
        omega, delta = _schedule_values(schedule, times)
        # Finite values can still overflow an angle, which _rotations refuses.
        with np.errstate(over="ignore", invalid="ignore"):
            rot = _rotations(
                (math.pi * omega * durations)[:, None],
                np.multiply.outer(math.pi * delta, weights) * durations[:, None],
            )
        mats = [_symmetric_power(rot[:, c], k) for c, k in enumerate(sizes)]
        blocks = [_kron_stages(mats[a:b]) for a, b in bounds]
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
        # Free this chunk's arrays before the next chunk builds its own.
        del rot, mats, blocks
    return _expand(psi, classes, n)


# ----------------------------------------------------------------------
# Measurement distributions
# ----------------------------------------------------------------------


def _checked_labels(labels) -> tuple[str, ...] | None:
    """``labels`` as a tuple, or None; refuses anything but a sequence of str."""
    if labels is not None:
        if isinstance(labels, str) or not isinstance(labels, Sequence) or not all(isinstance(s, str) for s in labels):
            raise InputError(f"atom_labels must be a sequence of str, got {labels!r}")
        labels = tuple(labels)
    return labels


def _bitstrings(index: np.ndarray, width: int) -> list[str]:
    """``format(i, f"0{width}b")`` for each i of ``index``, formatted in one numpy pass."""
    digits = (index[:, None] >> np.arange(width - 1, -1, -1)) & 1
    return (digits.astype(np.uint32) + ord("0")).view(f"<U{width}").ravel().tolist()


class StateDistribution:
    """Probability per measured bitstring.

    ``exact`` distinguishes Born probabilities from sampled frequencies.
    Probabilities are nonnegative reals summing to one within 1e-9; the
    outcomes are ranked on first read, so do not change the table after.
    A distribution from ``measure_distribution`` holds one probability array
    in index order and builds its ``probabilities`` table on first read.
    """

    def __init__(
        self,
        probabilities: Mapping[str, float],
        exact: bool = True,
        shots: int | None = None,
        atom_labels: Sequence[str] | None = None,
    ) -> None:
        table = probabilities
        if not isinstance(table, Mapping) or not all(issubclass(t, str) for t in set(map(type, table))):
            raise InputError("probabilities must map bitstrings, as str, to probabilities")
        self.atom_labels = _checked_labels(atom_labels)
        if not isinstance(exact, bool):
            raise InputError(f"exact must be a bool, got {exact!r}")
        self.exact = exact
        self.shots = None if shots is None else require_int(shots, "shots", 1)
        if not all(map(is_real_type, set(map(type, table.values())))):
            raise InputError("probabilities must be real numbers")
        keys = sorted(table)
        try:
            probs = np.fromiter((table[k] for k in keys), float, len(keys))
        except OverflowError:
            raise InputError("probabilities must be finite") from None
        if (probs < 0).any():
            raise InputError(f"probabilities must be nonnegative, got {probs.min()}")
        total = float(probs.sum())
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise InputError(f"probabilities sum to {total}, expected 1")
        self.probabilities = table
        # The outcomes in bitstring order: ``_outcomes`` lists them for a
        # table; for a measured state they are every ``_width``-bit string in
        # index order.  ``_values`` holds their probabilities as floats.
        self._outcomes: list[str] | None = keys
        self._width: int | None = None
        self._values = probs

    @classmethod
    def _measured(cls, probs: np.ndarray, width: int, atom_labels: tuple[str, ...] | None):
        """Born probabilities ``probs`` of the ``width``-bit strings in index order, already checked."""
        dist = cls.__new__(cls)
        dist.exact, dist.shots, dist.atom_labels = True, None, atom_labels
        dist._outcomes, dist._width, dist._values = None, width, probs
        return dist

    @functools.cached_property
    def probabilities(self) -> dict[str, float]:
        """The table: bitstring -> probability, in index order for a measured state."""
        return dict(zip(self._keys(np.arange(len(self._values))), self._values.tolist()))

    def _fields(self) -> tuple:
        return self.probabilities, self.exact, self.shots, self.atom_labels

    def __eq__(self, other) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        fields = "probabilities={!r}, exact={!r}, shots={!r}, atom_labels={!r}".format(*self._fields())
        return f"StateDistribution({fields})"

    def _keys(self, index: np.ndarray) -> list[str]:
        """The bitstrings at positions ``index`` of the bitstring order."""
        if self._outcomes is None:
            return _bitstrings(index, self._width)
        return [self._outcomes[i] for i in index.tolist()]

    @functools.cached_property
    def _order(self) -> np.ndarray:
        """Every outcome's position by falling probability, then by bitstring; taken once.

        Probabilities are ranked rounded to 1e-12, so outcomes equal up to
        rounding noise (by a symmetry of the graph) order by bitstring.
        """
        return np.argsort(-np.round(self._values, 12), kind="stable")

    def _columns(self, k: int | None = None) -> tuple[list[str], list[float]]:
        """Bitstrings and probabilities of the first ``k`` outcomes of the ranking (all when None)."""
        index = self._order[:k]
        return self._keys(index), self._values[index].tolist()

    def top(self, k: int = 1) -> list[tuple[str, float]]:
        """The k most probable bitstrings, ties broken lexicographically."""
        return list(zip(*self._columns(require_int(k, "k", 0))))

    def modal(self) -> str:
        return self._columns(1)[0][0]

    def to_csv(self) -> str:
        """Every outcome as a CSV row, by falling probability."""
        head = "# atom order: " + ",".join(self.atom_labels) + "\n" if self.atom_labels else ""
        keys, values = self._columns()
        cells = [None] * (2 * len(keys))
        cells[::2], cells[1::2] = keys, values
        return head + "bitstring,probability\n" + ("%s,%.12g\n" * len(keys)) % tuple(cells)

    def to_dict(self) -> dict:
        return {
            "atom_order": list(self.atom_labels) if self.atom_labels else None,
            "exact": self.exact,
            "shots": self.shots,
            "probabilities": dict(zip(*self._columns())),
        }


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
    labels = _checked_labels(atom_labels)
    if labels is not None and len(labels) != n:
        raise InputError("atom label count does not match the state size")
    # A one-amplitude state reads "0", as format(0, "b") does.
    return StateDistribution._measured(probs, max(n, 1), labels)


def sample_distribution(dist: StateDistribution, shots: int, seed: int = 0) -> StateDistribution:
    """Multinomial shot noise applied to an exact distribution.

    ``shots`` must be an integer in [1, 2**63 - 1], numpy's largest count,
    and ``seed`` an integer >= 0.
    """
    shots, seed = require_int(shots, "shots", 1), require_int(seed, "seed", 0)
    if shots > _MAX_SHOTS:
        raise InputError(f"shots must be at most {_MAX_SHOTS}, got {shots}")
    probs = dist._values / dist._values.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    drawn = np.flatnonzero(counts)
    table = dict(zip(dist._keys(drawn), (counts[drawn] / shots).tolist()))
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
