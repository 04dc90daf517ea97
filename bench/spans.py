"""Span tracing at the program's module boundaries, from outside the program.

A span is ``[name, start, end, parent, item]``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``item`` the operation it belongs
to.  Spans stay in memory until the run ends.  Wrappers replace the
operations' ``api`` entries and, while :func:`installed` is active, the
module attributes through which one layer calls another.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import statistics
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np

from rydqubo import cli, sim, solver
from workloads import max_shift

# api entry -> span name; a span name's prefix is the layer it measures.
API_SPANS = {
    "cli_main": "cli.main",
    "load": "geometry.load",
    "validate": "geometry.validate",
    "compile": "compiler.compile",
    "certify": "solver.certify",
    "decode": "compiler.decode",
    "build": "sim.build",
    "evolve": "sim.evolve",
    "measure": "sim.measure",
    "postselect": "sim.postselect",
}

# Attributes through which cli and solver call the layers below them.
PATCHES = (
    (solver, "enumerate_ground_configs", "solver.ground"),
    (solver, "brute_force_minima", "qubo.oracle"),
    (solver, "try_decode", "compiler.decode"),
    (cli, "load_builtin_layout", "geometry.load"),
    (cli, "build_hamiltonian", "sim.build"),
    (cli, "evolve", "sim.evolve"),
    (cli, "measure_distribution", "sim.measure"),
)

_EVOLVE = inspect.signature(sim.evolve)
_KEPT = ("sim.evolve", "sim.measure")
_PROBE_REPEATS = 3


class Tracer:
    """Spans and counters recorded by the wrappers it hands out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item: object = None
        self.counts: Counter = Counter()
        self.evolve_calls: list[tuple[object, int]] = []  # ((spec, schedule, steps), span index)
        self.results: dict[str, list] = defaultdict(list)  # kept for observe_sim
        self._stack: list[int] = []
        self._wrappers: dict[str, object] = {}

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.item])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if count is not None:
                count(self, index, args, kwargs, result)
            if name in _KEPT:
                self.results[name].append(result)
            return result

        return traced

    def wrapper(self, name: str, fn):
        """One wrapper per span name, shared by the api and the patched attributes."""
        if name not in self._wrappers:
            self._wrappers[name] = self.wrap(name, fn)
        return self._wrappers[name]

    def api(self, plain: SimpleNamespace) -> SimpleNamespace:
        return SimpleNamespace(
            **{key: self.wrapper(API_SPANS[key], fn) for key, fn in vars(plain).items()}
        )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap the cross-layer module attributes for the tracer's wrappers."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCHES]
    try:
        for module, attr, name in PATCHES:
            setattr(module, attr, tracer.wrapper(name, getattr(module, attr)))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _count_certify(tracer, index, args, kwargs, report):
    graph = args[1]
    tracer.counts["compiler.atoms"] += graph.atom_count
    tracer.counts["compiler.edges"] += len(graph.edges)
    tracer.counts["solver.decoded"] += len(report.decoded)


def _count_ground(tracer, index, args, kwargs, result):
    tracer.counts["solver.ground_configs"] += len(result[1])


def _count_oracle(tracer, index, args, kwargs, result):
    tracer.counts["qubo.assignments"] += 1 << args[0].n


def _count_evolve(tracer, index, args, kwargs, state):
    bound = _EVOLVE.bind(*args, **kwargs)
    bound.apply_defaults()
    call = bound.arguments
    schedule = call["schedule"] or sim.PulseSchedule()
    tracer.evolve_calls.append(((call["spec"], schedule, call["steps"]), index))
    tracer.counts["sim.basis_dim"] += len(state)
    tracer.counts["sim.steps"] += call["steps"]


_COUNTERS = {
    "solver.certify": _count_certify,
    "solver.ground": _count_ground,
    "qubo.oracle": _count_oracle,
    "sim.evolve": _count_evolve,
}


def observe_sim(tracer: Tracer, refs: dict, worst: dict) -> None:
    """Accuracy of the sweeps just traced: norm drift and shift from the stored distributions."""
    for state in tracer.results.pop("sim.evolve", ()):
        drift = abs(float(np.linalg.norm(state)) - 1.0)
        worst["sim.norm_drift"] = max(worst.get("sim.norm_drift", 0.0), drift)
    for dist in tracer.results.pop("sim.measure", ()):
        shift = max_shift(dist.probabilities, refs[dist.atom_labels])
        worst["sim.max_dp_ref"] = max(worst.get("sim.max_dp_ref", 0.0), shift)


def _median_time(fn) -> float:
    times = []
    for _ in range(_PROBE_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def drive_probes(tracer: Tracer) -> tuple[float, float, float]:
    """(drive seconds, diagonal seconds, per-step floor) summed over the traced evolve calls.

    Each distinct call is repeated with the drive off (omega0 = 0 sets every
    rotation angle to 0, so ``evolve`` skips the drive while the schedule and
    diagonal work stay the same), and on a single atom with the drive off
    for the per-step floor.
    """
    off: dict[object, float] = {}
    floor: dict[int, float] = {}
    drive = diag = 0.0
    for key, index in tracer.evolve_calls:
        spec, schedule, steps = key
        drive_off = dataclasses.replace(schedule, omega0=0.0)
        if key not in off:
            off[key] = _median_time(lambda: sim.evolve(spec, drive_off, steps=steps))
        if steps not in floor:
            one = sim.HamiltonianSpec(n=1)
            floor[steps] = _median_time(lambda: sim.evolve(one, drive_off, steps=steps)) / steps
        _, start, end, _, _ = tracer.spans[index]
        drive += (end - start) - off[key]
        diag += off[key] - steps * floor[steps]
    step_floor = statistics.median(floor.values()) if floor else 0.0
    return drive, diag, step_floor


def span_times(spans: list[list]) -> tuple[dict, dict, Counter]:
    """Total duration, total self time and call count per span name."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[index]
        calls[name] += 1
    return total, own, calls
