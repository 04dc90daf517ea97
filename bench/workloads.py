"""The four benchmark workloads: their inputs, one timed operation each, and
the independent answers every operation is checked against.

An operation calls the program only through an ``api`` namespace (see
:func:`plain_api`), so a traced run can swap each entry for a span-recording
wrapper without touching the program.  Reference answers never come from
the program's own oracle: QUBO argmin sets are enumerated here in plain
Python, and bundled-graph verdicts and peak identities are fixed tables.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from rydqubo import cli, compiler, geometry, sim, solver
from rydqubo.qubo import QuboInstance

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REF_DISTS = BENCH_DIR / "ref_dists.json"

G7_STEPS = 200
DEMO_STEPS = 400
WARM_UP_STEPS = 4
DEMOS = ("G1", "G2", "G3", "G4", "G5P", "G6P", "G_LNK", "G_NOT")
BUNDLED = DEMOS + ("G7",)
D_R_UM = 7.7
PARAMS = geometry.PhysicalParams(omega=0.96, delta=5.0)  # ideal blockade U = 10 * delta = 50
SCHEDULE = sim.PulseSchedule()  # 2.5 us, omega 0.96, delta -4 -> 5
BATCH_RANDOM = 200
BATCH_ENUM_CAP = 64
LARGE_VARS = 6
LARGE_INSTANCES = 1024
LARGE_ENUM_CAP = 10_000

# Peak rules from acceptance criterion 6: "modal" (the default) decodes the
# most probable bitstring, "af" does so after alternation-filter
# post-selection, "top2" decodes the two most probable valid bitstrings as a
# set.  The modal peak must decode to one of the expected assignments; the
# top2 set must equal them.
PEAK_RULES = {"G4": "top2", "G5P": "af", "G6P": "af"}
EXPECTED_PEAKS = {
    "G1": {(1,)},
    "G2": {(0,)},
    "G3": {(1, 0)},
    "G4": {(1, 0), (1, 1)},
    "G5P": {(1, 0)},
    "G6P": {(1, 1)},
    "G_LNK": {(0, 0), (1, 1)},
    "G_NOT": {(0, 1), (1, 0)},
    "G7": {(1, 0, 0)},
}

# Certification verdict and decoded set of each bundled graph against its
# own source instance.  G6P fails without alternation filtering: its ground
# set decodes {(1,0), (1,1)} while the argmin is {(1,1)}.
EXPECTED_VERDICTS = {
    "G1": (True, {(1,)}),
    "G2": (True, {(0,)}),
    "G3": (True, {(1, 0)}),
    "G4": (True, {(1, 0), (1, 1)}),
    "G5P": (True, {(1, 0)}),
    "G6P": (False, {(1, 0), (1, 1)}),
    "G7": (True, {(1, 0, 0)}),
    "G_LNK": (True, {(0, 0), (1, 1)}),
    "G_NOT": (True, {(0, 1), (1, 0)}),
}


@dataclass
class Item:
    """One input of a workload and the answer its operation must produce."""

    key: str
    kind: str
    payload: Any
    expected: Any


@dataclass
class Workload:
    """Inputs plus the timed operation and its check.

    With ``whole_passes`` the measured loop stops only at the end of a pass
    over ``items``, so every run times the same mix; otherwise it stops at
    the deadline and the ordering of ``items`` keeps every prefix balanced.
    """

    name: str
    items: list[Item]
    run: Callable[[Item, SimpleNamespace], Any]
    check: Callable[[Item, Any], str | None]
    whole_passes: bool
    steps: int  # integration steps per sweep; 0 on the certify workloads
    warm_up: Callable[[SimpleNamespace], Any]


def plain_api() -> SimpleNamespace:
    """The program entry points the operations call."""
    return SimpleNamespace(
        cli_main=cli.main.main,
        load=geometry.load_builtin_layout,
        validate=geometry.validate_unit_disk,
        compile=compiler.compile_qubo,
        certify=solver.certify_equivalence,
        decode=compiler.try_decode,
        build=sim.build_hamiltonian,
        evolve=sim.evolve,
        measure=sim.measure_distribution,
        postselect=sim.postselect,
    )


# ----------------------------------------------------------------------
# Independent reference answers
# ----------------------------------------------------------------------


def argmin_set(n: int, linear: dict, quadratic: dict) -> set[tuple[int, ...]]:
    """Minimisers of a QUBO by plain enumeration, independent of the program."""
    best = None
    found: set[tuple[int, ...]] = set()
    for bits in itertools.product((0, 1), repeat=n):
        value = sum(c * bits[i] for i, c in linear.items())
        value += sum(c * bits[i] * bits[j] for (i, j), c in quadratic.items())
        if best is None or value < best:
            best, found = value, {bits}
        elif value == best:
            found.add(bits)
    return found


def load_ref_dists() -> dict[tuple[str, ...], dict[str, float]]:
    """Stored distributions, keyed by the atom labels of their layout."""
    data = json.loads(REF_DISTS.read_text(encoding="utf-8"))
    return {
        geometry.load_builtin_layout(name)[0].labels: dist for name, dist in data["dists"].items()
    }


def max_shift(probabilities: dict[str, float], ref: dict[str, float]) -> float:
    """Largest probability difference; bitstrings absent from ``ref`` count as 0."""
    return max(abs(p - ref.get(bits, 0.0)) for bits, p in probabilities.items())


def record_ref_dists(commit: str) -> dict:
    """Final distributions of every swept layout at the workloads' step counts."""
    dists = {}
    steps = {name: DEMO_STEPS for name in DEMOS} | {"G7": G7_STEPS}
    for name, count in steps.items():
        graph, _ = geometry.load_builtin_layout(name)
        state = sim.evolve(sim.build_hamiltonian(graph, PARAMS), SCHEDULE, steps=count)
        probabilities = sim.measure_distribution(state).probabilities
        dists[name] = {bits: float(f"{p:.12g}") for bits, p in probabilities.items() if p >= 1e-10}
    return {"commit": commit, "steps": steps, "dists": dists}


# ----------------------------------------------------------------------
# Certification workloads
# ----------------------------------------------------------------------


def _random_instance(rng: random.Random, n: int) -> tuple[dict, dict]:
    linear = {i: rng.randint(-2, 2) for i in range(n)}
    quadratic = {(i, j): rng.randint(-2, 2) for i in range(n) for j in range(i + 1, n)}
    return linear, quadratic


def _certify_item(key: str, kind: str, n: int, linear: dict, quadratic: dict) -> Item:
    argmin = argmin_set(n, linear, quadratic)
    q = QuboInstance(n=n, linear=linear, quadratic=quadratic)
    return Item(key, kind, (q, None), (True, argmin, argmin))


def _bundled_certify_items(api) -> list[Item]:
    items = []
    for name in BUNDLED:
        graph, _ = api.load(name)
        q = graph.source
        passed, decoded = EXPECTED_VERDICTS[name]
        argmin = argmin_set(q.n, q.linear, q.quadratic)
        items.append(Item(name, "bundled", (q, graph), (passed, decoded, argmin)))
    return items


def _certifier(enum_cap: int):
    def run(item: Item, api):
        q, graph = item.payload
        if graph is None:
            graph = api.compile(q)
        return api.certify(q, graph, enum_cap=enum_cap)

    return run


def check_verdict(item: Item, report) -> str | None:
    passed, decoded, argmin = item.expected
    if set(report.expected) != argmin:
        return f"{item.key}: oracle argmin {report.expected}, independent {sorted(argmin)}"
    if report.passed != passed or set(report.decoded) != decoded:
        verdict = "PASS" if report.passed else "FAIL"
        return f"{item.key}: {verdict} decoding {report.decoded}, expected {sorted(decoded)}"
    return None


def certify_batch(seed: int, api) -> Workload:
    """125-instance two-variable grid, seeded 3-4 variable instances, bundled graphs."""
    items = [
        _certify_item(f"grid{a},{b},{c}", "grid", 2, {0: a, 1: b}, {(0, 1): c})
        for a, b, c in itertools.product(range(-2, 3), repeat=3)
    ]
    rng = random.Random(seed)
    for k in range(BATCH_RANDOM):
        n = 3 + k % 2  # a fixed split, so the seed cannot move the size mix
        items.append(_certify_item(f"rand{k}", f"random{n}", n, *_random_instance(rng, n)))
    items += _bundled_certify_items(api)
    run = _certifier(BATCH_ENUM_CAP)
    return Workload(
        "certify-batch", items, run, check_verdict, True, 0, lambda a: run(items[0], a)
    )


# Positive units of one coupling drawn uniformly from [-2, 2]: 0, 1 or 2.
_UNIT_PMF = (0.6, 0.2, 0.2)


def _coupling_pmf(pairs: int) -> list[list[float]]:
    """pmf[m][t]: probability that m couplings drawn from [-2, 2] carry t positive units."""
    pmf = [[1.0]]
    for _ in range(pairs):
        prev = pmf[-1]
        nxt = [0.0] * (len(prev) + 2)
        for t, p in enumerate(prev):
            for c, w in enumerate(_UNIT_PMF):
                nxt[t + c] += p * w
        pmf.append(nxt)
    return pmf


def _radical_inverse(k: int) -> float:
    """Base-2 van der Corput point: any prefix of k = 1, 2, ... covers [0, 1) evenly."""
    u, scale = 0.0, 0.5
    while k:
        u += scale * (k & 1)
        k >>= 1
        scale *= 0.5
    return u


def stratified_instances(rng: random.Random, n: int, count: int) -> list[tuple[dict, dict]]:
    """Random [-2, 2] instances stratified by their number of positive coupling units.

    Each positive unit compiles to an even wire, and degenerate even wires
    multiply the ground configurations that certification lists, so this
    count sets an instance's cost over three orders of magnitude.  Instance
    k takes the population quantile of that count at the k-th van der
    Corput point and draws everything else from ``rng``; any prefix of the
    list therefore meets the population's mix, whatever the seed.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pmf = _coupling_pmf(len(pairs))
    out = []
    for k in range(count):
        u = _radical_inverse(k + 1)
        target, acc = 0, pmf[-1][0]
        while acc < u:
            target += 1
            acc += pmf[-1][target]
        quadratic = {}
        for index, pair in enumerate(pairs):
            rest = pmf[len(pairs) - index - 1]
            weights = [
                w * rest[target - c] if 0 <= target - c < len(rest) else 0.0
                for c, w in enumerate(_UNIT_PMF)
            ]
            c = rng.choices((0, 1, 2), weights=weights)[0]
            target -= c
            quadratic[pair] = c if c else rng.choice((-2, -1, 0))
        linear = {i: rng.randint(-2, 2) for i in range(n)}
        out.append((linear, quadratic))
    return out


def certify_large(seed: int, api) -> Workload:
    """Stratified random six-variable instances; MIS listing dominates."""
    rng = random.Random(seed)
    items = [
        _certify_item(f"rand{k}", f"random{LARGE_VARS}", LARGE_VARS, linear, quadratic)
        for k, (linear, quadratic) in enumerate(
            stratified_instances(rng, LARGE_VARS, LARGE_INSTANCES)
        )
    ]
    run = _certifier(LARGE_ENUM_CAP)
    return Workload(
        "certify-large", items, run, check_verdict, False, 0, lambda a: run(items[0], a)
    )


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------


def _cli_args(steps: int) -> list[str]:
    out = OUT_DIR / "g7-dist.csv"
    return ["simulate", "--builtin", "G7", "--json", "--steps", str(steps), "-o", str(out)]


def _run_cli(item: Item, api):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = api.cli_main(item.payload, standalone_mode=False)
    if code:
        raise RuntimeError(f"rydqubo {' '.join(item.payload)} exited with {code}")
    return json.loads(buffer.getvalue())


def _check_cli(item: Item, summary) -> str | None:
    decoded = summary["top_decodes_to"]
    decoded = tuple(decoded) if decoded is not None else None
    if summary["steps"] != G7_STEPS or decoded not in item.expected:
        return f"G7: modal peak decodes to {decoded}"
    return None


def sim_g7(seed: int, api) -> Workload:
    """``rydqubo simulate --builtin G7 --json`` in-process; the drive kernel dominates."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    items = [Item("G7", "cli", _cli_args(G7_STEPS), EXPECTED_PEAKS["G7"])]
    warm = Item("G7", "cli", _cli_args(WARM_UP_STEPS), None)
    return Workload("sim-g7", items, _run_cli, _check_cli, True, G7_STEPS, lambda a: _run_cli(warm, a))


def _sweeper(steps: int):
    def run(item: Item, api):
        """Validate, sweep, measure and decode one demo: (layout valid, decoded peak)."""
        graph, layout, rule = item.payload
        valid = api.validate(graph, layout, d_r=D_R_UM).ok
        spec = api.build(graph, PARAMS)
        dist = api.measure(api.evolve(spec, SCHEDULE, steps=steps), atom_labels=graph.labels)
        if rule == "af":
            dist = api.postselect(dist, sim.af_predicate(graph))
        if rule != "top2":
            return valid, api.decode(graph, dist.modal())
        peaks = []
        for bits, _ in dist.top(len(dist.probabilities)):
            assignment = api.decode(graph, bits)
            if assignment is not None:
                peaks.append(assignment)
                if len(peaks) == 2:
                    break
        return valid, frozenset(peaks)

    return run


def _check_peak(item: Item, outcome) -> str | None:
    valid, peak = outcome
    rule = item.payload[2]
    if not valid:
        return f"{item.key}: layout is not a unit-disk embedding at {D_R_UM} um"
    if not (peak == item.expected if rule == "top2" else peak in item.expected):
        return f"{item.key}: {rule} peak decodes to {peak}"
    return None


def sim_demos(seed: int, api) -> Workload:
    """The eight small bundled demonstrations; per-call overhead dominates."""
    items = [
        Item(name, "demo", (*api.load(name), PEAK_RULES.get(name, "modal")), EXPECTED_PEAKS[name])
        for name in DEMOS
    ]
    warm = _sweeper(WARM_UP_STEPS)
    return Workload(
        "sim-demos", items, _sweeper(DEMO_STEPS), _check_peak, True, DEMO_STEPS,
        lambda a: [warm(item, a) for item in items],
    )


WORKLOADS = {
    "sim-g7": sim_g7,
    "sim-demos": sim_demos,
    "certify-batch": certify_batch,
    "certify-large": certify_large,
}
