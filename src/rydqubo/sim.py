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

Each atom's rotation factors as R = g diag(1, u) M diag(1, u), with g and u
unit phases and M real orthogonal (see ``_rotation_factors``), so a class of
k twins rotates by g^k diag(u^m) Sym_k(M) diag(u^m).  Between two stages
the phase diagonals of both and the interaction phase merge into one complex
diagonal, so each stage is one complex diagonal multiply followed by real
block products.  The class axes are filled greedily into blocks of at most
three atoms (dimension at most 8); each block's Kronecker product of real
class factors acts as one real matrix product on the state viewed as
float64.  Each product also cycles the block's axes to the end, and the last
block, stored times I_2, also spans the real and imaginary axis, so after it
the state is back in class order and views as complex without a copy.  Real
blocks do half the flops of complex ones; the changed order of
floating-point sums moves CSV probabilities in about the 12th significant
digit.  The sweep runs in chunks of steps.  Each chunk evaluates the
schedule once, on the array of its stage midpoints, then builds the
rotation factors, one real product per block and two phase factors per
stage in one vectorised pass; it holds at most ``2 * _CHUNK_BYTES`` at its
build peak.  The stage diagonals are built from the phase factors a few
steps at a time, so the loop over stages only multiplies.

Bit order: atom k maps to character k of the measured bitstring; internally
that is bit (n-1-k) of the state index, so ``format(index, f"0{n}b")`` reads
in atom order.  A distribution holds its outcomes as one ascending index
array and one probability array, and formats a bitstring only when read.
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
# Steps are swept in chunks whose stored blocks and phase factors take at
# most this many bytes (2 MiB), whatever the step count.  Building them
# takes at most as much again, so a chunk holds at most 4 MiB.
_CHUNK_BYTES = 1 << 21
# A chunk builds its stage diagonals in batches of whole steps that take at
# most this many bytes, at least one step, so that a batch stays in cache
# until the sweep reads it.
_BATCH_BYTES = 1 << 20
_TWO_PI = 2.0 * math.pi
# Largest drift of a state's norm from 1 that evolve and measure accept.
_NORM_TOL = 1e-6
# numpy's multinomial draws int64 counts.
_MAX_SHOTS = 2**63 - 1
# A distribution's int64 index holds bitstrings of at most this many bits.
_MAX_WIDTH = 63

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


def _rotation_factors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors g, u and M of R = exp(-i (a sx - 2 b n)) for each entry of ``b``.

    For one atom over a stage of duration d, a = pi d Omega and
    b = pi d Delta w; ``a`` broadcasts against ``b``.  With phi = hypot(a, b),
    s = sin(phi)/phi and c = cos(phi), R = e^{ib} [[z, -i x], [-i x, z*]]
    where z = c - i b s and x = a s.  Let r = |z| and e = z/r (e = 1 when
    r = 0).  Then

        R = g diag(1, u) M diag(1, u),  g = e^{ib} e,  u = -i e*,
        M = [[r, x], [x, -r]],

    and M is real symmetric with M M = I, since r^2 + x^2 = c^2 + phi^2 s^2 = 1.
    On the normalised Dicke states of k twins, Sym_k(R) =
    g^k diag(u^m) Sym_k(M) diag(u^m), with m the excited atoms and Sym_k(M)
    real.  Returns g and u, complex of ``b``'s shape with |g| = |u| = 1, and
    M, real of shape b.shape + (2, 2).  Raises InputError if an angle is not
    finite; called under an errstate that ignores overflow, it does so
    before numpy warns.
    """
    phi = np.hypot(a, b)
    if not np.isfinite(phi).all():
        raise InputError(
            "a stage's rotation angle is not finite; Omega, Delta or the sweep time is too large"
        )
    s = np.divide(np.sin(phi), phi, out=np.ones_like(phi), where=phi != 0)
    c = np.cos(phi)
    bs = b * s
    r = np.hypot(c, bs)
    # e = z / r, as its real and imaginary parts.
    e_re = np.divide(c, r, out=np.ones_like(r), where=r != 0)
    e_im = np.divide(-bs, r, out=np.zeros_like(r), where=r != 0)
    g = (np.cos(b) + 1j * np.sin(b)) * (e_re + 1j * e_im)
    u = -e_im - 1j * e_re
    m = np.empty(phi.shape + (2, 2))
    m[..., 0, 0] = r
    m[..., 0, 1] = m[..., 1, 0] = a * s
    m[..., 1, 1] = -r
    return g, u, m


def _symmetric_power(rot: np.ndarray, k: int) -> np.ndarray:
    """R^(x)k on the normalised Dicke states of k atoms, per stage.

    ``rot`` has shape (stages, 2, 2) and is symmetric; the result has shape
    (stages, k+1, k+1), is symmetric too and has ``rot``'s dtype.  Each of
    the k-j ground atoms of a state with j excited atoms goes to r00 + r10 t
    and each excited atom to r01 + r11 t, t marking an excited atom, so entry
    (i, j) is sqrt(C(k,j)/C(k,i)) times the coefficient of t^i in
    (r00 + r10 t)^(k-j) (r01 + r11 t)^j.
    """
    # poly[i, j] is the t^i coefficient of column j's product so far, per
    # stage (the last axis, so every pass runs over contiguous stages).
    # Factor f of column j is column 1 of R, an excited atom, if f < j.
    columns = rot.transpose(1, 2, 0)
    poly = np.zeros((k + 1, k + 1, len(rot)), dtype=rot.dtype)
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
    """Consecutive classes filled greedily into blocks of at most three atoms.

    ``sizes`` holds each class's atom count; returns the number of classes
    per block.  Each block takes classes while its atoms stay within three,
    so its dimension stays within 8, since a class of k atoms is an axis of
    dimension k+1 <= 2^k.  A class of more than three atoms is a block of its
    own.
    """
    split: list[int] = []
    for k in sizes:
        if split and taken + k <= 3:
            split[-1] += 1
            taken += k
        else:
            split.append(1)
            taken = k
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


def _times_identity(block: np.ndarray) -> np.ndarray:
    """block[s] (x) I_2 for every stage s: the last block, spanning the real and imaginary axis."""
    stages, dim = block.shape[:2]
    out = np.zeros((stages, dim, 2, dim, 2))
    out[:, :, 0, :, 0] = out[:, :, 1, :, 1] = block
    return out.reshape(stages, 2 * dim, 2 * dim)


def _phase_factors(
    scale: np.ndarray, ratio: np.ndarray, sizes: Sequence[int], half: int
) -> tuple[np.ndarray, np.ndarray]:
    """Real factors of the diagonal scale[s] prod_c ratio[s, c]^m_c, per stage.

    ``scale`` has shape (stages,) and ``ratio`` (stages, classes), class c
    having ``sizes[c]`` atoms.  Classes before ``half`` fold into a complex
    ``lead`` and the others into ``trail``, so the diagonal is their outer
    product, in the state's order.  Returns it as the real matrix product
    ``left @ right``: ``left[s, i]`` = (Re, Im) of lead[s, i] and
    ``right[s]`` holds trail[s] and i trail[s], each as interleaved real and
    imaginary parts, so the product views as the complex diagonal.  A
    matrix product writes it faster than a broadcast complex product.
    """
    stages = len(scale)
    factors = [scale[:, None]]
    for c, k in enumerate(sizes):
        powers = np.empty((stages, k + 1), dtype=np.complex128)
        powers[:, 0] = 1.0
        powers[:, 1:] = ratio[:, c, None]
        factors.append(np.cumprod(powers, axis=1, out=powers))
    lead, trail = factors[:half + 1], [np.ones((stages, 1), dtype=np.complex128)] + factors[half + 1:]
    for part in (lead, trail):
        while len(part) > 1:
            low = part.pop()
            part[-1] = (part[-1][:, :, None] * low[:, None, :]).reshape(stages, -1)
    # Each complex factor is dropped once its real copy exists, so that the
    # build holds little more than its result (see _CHUNK_BYTES).
    left, trail = np.stack((lead[0].real, lead[0].imag), axis=2), trail[0]
    del lead
    right = np.empty((stages, 2, 2 * trail.shape[1]))
    right[:, 0] = trail.view(np.float64)
    right[:, 1, 0::2], right[:, 1, 1::2] = -trail.imag, trail.real
    return left, right


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


def _block_views(work: np.ndarray, dims: Sequence[int]) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Source and target views of every block product, for a state in ``work[0]`` and in ``work[1]``.

    ``work`` is float64 of shape (2, 2 * basis); ``dims`` holds each stored
    block's dimension.  A state is the complex view of one row, so its last
    axis holds the real and imaginary parts.  With a block's axes leading,
    ``source @ block`` with ``source = x.reshape(dim, -1).T`` applies it and
    writes its axes last, into the other row.  Once every other block has
    moved, the last block's axes lead and the real and imaginary axis
    follows them, so the last block is stored times I_2, of twice its
    dimension, and spans that axis too; a lone block is also the last.
    After the last block the axes are back in class order with the real and
    imaginary parts interleaved, in row ``(p + len(dims)) % 2`` for a state
    that started in row p.
    """
    return [
        [
            (work[(p + k) % 2].reshape(dim, -1).T, work[(p + k + 1) % 2].reshape(-1, dim))
            for k, dim in enumerate(dims)
        ]
        for p in (0, 1)
    ]


def _apply_stage(
    state: np.ndarray, diagonal: np.ndarray, blocks: Sequence[np.ndarray], stage: int,
    views: Sequence[tuple[np.ndarray, np.ndarray]],
) -> None:
    """One stage: ``state *= diagonal``, then the real block products of ``stage``.

    ``blocks[k][stage]`` is the Kronecker product of the real factors
    Sym_k(M) of block k's classes, real symmetric, so ``source @ block``
    applies it.  ``state`` is the complex view of the row of ``work`` that
    ``views``, one parity's entry of ``_block_views(work, ...)``, starts
    from; the result is in the row that they end in.
    """
    state *= diagonal
    for block, (source, target) in zip(blocks, views):
        np.matmul(source, block[stage], out=target)


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

    # Twins share one class axis; a block's real factor is its classes' Kronecker product.
    classes = _twin_classes(spec)
    sizes = [len(members) for members in classes]
    weights = np.array([spec.detuning_weights[members[0]] for members in classes])
    bounds = list(pairwise(accumulate(_block_split(sizes), initial=0)))
    block_dims = [math.prod(k + 1 for k in sizes[a:b]) for a, b in bounds]
    dims = [k + 1 for k in sizes]
    basis = math.prod(dims)
    # A stage's diagonal is the outer product of two factors of about the
    # square root of the basis: the leading classes, up to ``half``, and the
    # rest.
    half = next(c for c in range(len(dims) + 1) if math.prod(dims[:c]) ** 2 >= basis)
    # The last block is stored times I_2 to span the real and imaginary axis
    # (see _block_views).
    stored = block_dims[:-1] + [2 * block_dims[-1]]
    # Three stages per step.  A stage stores its blocks and its two real
    # phase factors (see _phase_factors) as float64.
    stage_bytes = 8 * sum(dim**2 for dim in stored)
    stage_bytes += 16 * math.prod(dims[:half]) + 32 * math.prod(dims[half:])
    chunk = max(1, _CHUNK_BYTES // (3 * stage_bytes))
    batch = max(1, _BATCH_BYTES // (3 * 16 * basis))

    h = total / steps
    d1, d2, d3 = _W1 * h, _W0 * h, _W1 * h
    # The interaction and the stage durations are fixed, so the interaction
    # phases are precomputed: half a first stage, the middle of a step
    # (d1 + d2)/2 = (d2 + d3)/2, and a step boundary d3/2 + d1/2 = d1.
    # Finite couplings can still sum past the float range; that is refused
    # before numpy warns.
    with np.errstate(over="ignore", invalid="ignore"):
        interaction = _interaction_energy(spec, classes)
        phases = [-1j * _TWO_PI * (d / 2.0) * interaction for d in (d1, d1 + d2, 2.0 * d1)]
    if not all(np.isfinite(phase).all() for phase in phases):
        raise InputError("the interaction energy or a stage's phase is not finite; the couplings are too large")
    u_half, u_merged, u_step = (np.exp(phase, out=phase) for phase in phases)
    # The sweep opens with u_half, but on |0...0> that equals u_step: both are 1.
    step_phases = np.stack((u_step, u_merged, u_merged))

    # Until something loads logging no handler exists to take the record, so
    # the package never loads it itself.
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("rydqubo").debug(
            "evolve: atoms=%d classes=%d twins=%s basis=%d full=%d blocks=%s steps=%d",
            n, len(classes), [c for c in classes if len(c) > 1], basis, 1 << n,
            block_dims, steps,
        )

    # The state lives in one row of ``work`` and each stage's products end
    # in the other row when the block count is odd.
    work = np.zeros((2, 2 * basis))
    states = list(work.view(np.complex128))
    views = _block_views(work, stored)
    flip, row = len(block_dims) % 2, 0
    states[0][0] = 1.0
    buffer = np.empty((3 * min(batch, steps), basis), dtype=np.complex128)
    # Stage s's rotation is G_s D_s K_s D_s: G_s = prod_c g_c^k_c a scalar,
    # D_s = prod_c u_c^m_c a diagonal and K_s the real blocks.  Between two
    # stages D, the interaction phase and D of the next stage merge into one
    # diagonal, which also takes the next stage's G; ``last_u`` holds the
    # previous stage's u per class, and the sweep closes with its D.
    last_u = np.ones(len(sizes), dtype=np.complex128)
    check_every = max(1, steps // 40)
    for begin in range(0, steps, chunk):
        end = min(begin + chunk, steps)
        # The stage midpoints of steps [begin, end), in order, take one schedule call.
        t0 = np.arange(begin, end) * h
        times = np.stack((t0 + 0.5 * d1, t0 + d1 + 0.5 * d2, t0 + d1 + d2 + 0.5 * d3), 1).ravel()
        durations = np.tile((d1, d2, d3), end - begin)
        omega, delta = _schedule_values(schedule, times)
        # Finite values can still overflow an angle, which _rotation_factors refuses.
        with np.errstate(over="ignore", invalid="ignore"):
            g, u, m = _rotation_factors(
                (math.pi * omega * durations)[:, None],
                np.multiply.outer(math.pi * delta, weights) * durations[:, None],
            )
        blocks = [_kron_stages([_symmetric_power(m[:, c], sizes[c]) for c in range(a, b)]) for a, b in bounds]
        blocks[-1] = _times_identity(blocks[-1])
        del m
        ratio = u * np.concatenate((last_u[None], u[:-1]))
        last_u = u[-1].copy()
        left, right = _phase_factors(np.prod(g ** np.array(sizes), axis=1), ratio, sizes, half)
        for first in range(begin, end, batch):
            # Stage rows [lo, hi) of this chunk, whole steps.
            lo, hi = 3 * (first - begin), 3 * (min(first + batch, end) - begin)
            diagonals = buffer[:hi - lo]
            target = diagonals.view(np.float64).reshape(hi - lo, left.shape[1], -1)
            np.matmul(left[lo:hi], right[lo:hi], out=target)
            diagonals.reshape(-1, 3, basis)[:] *= step_phases
            for stage in range(lo, hi):
                _apply_stage(states[row], diagonals[stage - lo], blocks, stage, views[row])
                row ^= flip
                if stage % 3 < 2:
                    continue
                step = begin + stage // 3
                if step % check_every == 0 or step == steps - 1:
                    norm = math.sqrt(float(np.vdot(states[row], states[row]).real))
                    if not (abs(norm - 1.0) <= _NORM_TOL):
                        raise SimulationError(
                            f"norm drifted to {norm} at step {step}; reduce the step size"
                        )
        # Free this chunk's arrays before the next chunk builds its own.
        del g, u, blocks, left, right
    left, right = _phase_factors(np.ones(1), last_u[None], sizes, half)
    psi = states[row] * (left[0] @ right[0]).reshape(-1).view(np.complex128) * u_half
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
    Probabilities are nonnegative reals summing to one within 1e-9; bitstrings
    are strings of 0 and 1 of one width from 1 to 63.  Every distribution holds
    ``_index``, its outcomes' bitstring indices ascending as int64, ``_values``,
    their float64 probabilities, and ``_width``, the bit count.
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
        labels = _checked_labels(atom_labels)
        if not isinstance(exact, bool):
            raise InputError(f"exact must be a bool, got {exact!r}")
        shots = None if shots is None else require_int(shots, "shots", 1)
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
        # The sum check refuses an empty table, so there is a first key.
        width = len(keys[0])
        bad = next((k for k in keys if len(k) != width or k.strip("01")), None)
        if bad is not None or not 0 < width <= _MAX_WIDTH:
            raise InputError(f"bitstrings must be 0s and 1s of one width, 1 to {_MAX_WIDTH}, got {bad or keys[0]!r}")
        if labels is not None and len(labels) != width:
            raise InputError(f"atom label count {len(labels)} does not match the bitstring width {width}")
        # Equal-width strings of 0 and 1 sort as their values, so the index ascends.
        index = np.fromiter((int(k, 2) for k in keys), np.int64, len(keys))
        self._fill(index, probs, width, exact, shots, labels)

    def _fill(self, index, values, width, exact, shots, atom_labels) -> StateDistribution:
        """Sets every field from already-checked values and returns self; every producer builds here."""
        self._index, self._values, self._width = index, values, width
        self.exact, self.shots, self.atom_labels = exact, shots, atom_labels
        return self

    def _table(self) -> dict[str, float]:
        return dict(zip(_bitstrings(self._index, self._width), self._values.tolist()))

    @functools.cached_property
    def probabilities(self) -> dict[str, float]:
        """The table: bitstring -> probability, in bitstring order."""
        return self._table()

    def __eq__(self, other) -> bool:
        """Compares the arrays and fields, not ``probabilities``: callers can change that dict."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self._width, self.exact, self.shots, self.atom_labels)
            == (other._width, other.exact, other.shots, other.atom_labels)
            and np.array_equal(self._index, other._index)
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:
        return (
            f"StateDistribution(probabilities={self._table()!r}, exact={self.exact!r}, "
            f"shots={self.shots!r}, atom_labels={self.atom_labels!r})"
        )

    def _keys(self, pos: np.ndarray) -> list[str]:
        """The bitstrings at positions ``pos`` of the bitstring order."""
        return _bitstrings(self._index[pos], self._width)

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
    return StateDistribution.__new__(StateDistribution)._fill(
        np.arange(dim, dtype=np.int64), probs, max(n, 1), True, None, labels)


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
    return StateDistribution.__new__(StateDistribution)._fill(
        dist._index[drawn], counts[drawn] / shots, dist._width, False, shots, dist.atom_labels)


def postselect(
    dist: StateDistribution, predicate: Callable[[str], bool]
) -> StateDistribution:
    """Drop outcomes failing ``predicate`` and renormalise the rest."""
    keep = np.array([bool(predicate(bs)) for bs in _bitstrings(dist._index, dist._width)], dtype=bool)
    kept = dist._values[keep]
    mass = sum(kept.tolist())
    if mass <= 0.0:
        raise EmptySelection("post-selection removed all probability mass")
    return StateDistribution.__new__(StateDistribution)._fill(
        dist._index[keep], kept / mass, dist._width, dist.exact, None, dist.atom_labels)


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
