"""Benchmark of the rydqubo compile -> certify -> simulate pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload sim-g7 --seed 1 --seconds 20 --trace 0

It sets up the workload, runs its operation until ``--seconds`` have passed,
checks every output against an independently computed answer, prints each
metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` times the same operations untraced for
half the time, then traced, and reports the per-layer metrics, writing the
spans to ``bench/out/``.

    python3 bench/run.py --write-manifest   # rewrite BENCHMARK.json from the tables below
    python3 bench/run.py --record-refs      # rewrite bench/ref_dists.json from the program

See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_SECONDS = 25
SETUP_REPEATS = 3

WHY = {
    "sim-g7": "15-atom G7 through the simulate CLI; the per-atom drive rotation is ~94% of evolve",
    "sim-demos": "eight 2-11 atom demos swept and decoded; per-call numpy overhead dominates, not bytes moved",
    "certify-batch": "compile and certify of hundreds of 2-4 variable instances; every layer but sim is visible",
    "certify-large": "certify of stratified random 6-variable instances; listing every MIS is ~92% of the time",
}

# (name, unit, better, bound): reported by every workload with --trace 0.
# The other printed metrics are left unbounded: see bench/README.md.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
)

# (name, unit, better): reported by every workload with --trace 1.  Times
# are per operation unless the name says otherwise; a layer the workload
# does not reach reports 0.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("geometry.load_s", "s", "lower"),
    ("geometry.validate_s", "s", "lower"),
    ("compiler.compile_s", "s", "lower"),
    ("compiler.atoms", "count", "lower"),
    ("compiler.edges", "count", "lower"),
    ("compiler.decode_s", "s", "lower"),
    ("qubo.oracle_s", "s", "lower"),
    ("qubo.assignments", "count", "lower"),
    ("solver.ground_s", "s", "lower"),
    ("solver.ground_configs", "count", "lower"),
    ("solver.useful_ratio", "ratio", "higher"),
    ("solver.certify_self_s", "s", "lower"),
    ("sim.build_s", "s", "lower"),
    ("sim.evolve_s", "s", "lower"),
    ("sim.measure_s", "s", "lower"),
    ("sim.basis_dim", "count", "lower"),
    ("sim.steps", "count", "lower"),
    ("sim.drive_s", "s", "lower"),
    ("sim.step_floor_us", "us", "lower"),
    ("sim.diag_s", "s", "lower"),
    ("sim.norm_drift", "ratio", "lower"),
    ("sim.max_dp_ref", "ratio", "lower"),
    ("bench.op_self_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
)


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(wl, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "steps": wl.steps,
        "items": dict(Counter(item.kind for item in wl.items)),
    }


def schedule(wl, seconds: float):
    """Yield ``(k, item)`` cycling over the items until ``seconds`` have passed.

    With ``wl.whole_passes`` the last pass is finished, so every run times
    the same mix of inputs.
    """
    n = len(wl.items)
    deadline = time.perf_counter() + seconds
    k = 0
    while not (k and time.perf_counter() >= deadline and (not wl.whole_passes or k % n == 0)):
        yield k, wl.items[k % n]
        k += 1


def attempt(run, check, item, api) -> tuple[str, float, str | None]:
    """Time one operation and check its outcome: ``(item key, seconds, error or None)``.

    A raising operation or a wrong answer counts as failed; the run goes on.
    """
    began = time.perf_counter()
    try:
        outcome = run(item, api)
    except Exception as exc:  # counted in failed; the run continues
        return item.key, time.perf_counter() - began, f"{item.key}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - began
    return item.key, elapsed, check(item, outcome)


def _rows_untraced(wl, records, wall: float, setup_s: float) -> list[tuple[str, float, str]]:
    times = [t for _, t, _ in records]
    ops = len(times)
    rows = [("setup_s", setup_s, "s"), ("wall_s", wall, "s")]
    if wl.steps:
        by_item: dict[str, list[float]] = {}
        for key, t, _ in records:
            by_item.setdefault(key, []).append(t)
        # One sim operation sweeps every input once: the summed per-input
        # medians, so the mix of graph sizes cannot move the median.
        op_ms = 1e3 * sum(statistics.median(v) for v in by_item.values())
        rows += [
            ("sweep_s", statistics.median(times), "s"),
            ("sim_steps_per_s", wl.steps * ops / sum(times), "1/s"),
        ]
    else:
        op_ms = 1e3 * statistics.median(times)
        rows.append(("verdict_ms_p50", op_ms, "ms"))
        if ops >= 10:
            p90 = statistics.quantiles(times, n=10)[-1]
            if sum(t > p90 for t in times) >= 10:
                rows.append(("verdict_ms_p90", p90 * 1e3, "ms"))
        rows.append(("verdicts_per_s", ops / wall, "1/s"))
    failed = sum(error is not None for _, _, error in records)
    return rows + [
        ("op_ms_p50", op_ms, "ms"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        ("failed_frac", failed / ops, "ratio"),
    ]


def _rows_traced(tracer, ops: int, wall_u: float, wall_t: float, worst: dict, probes):
    from spans import span_times

    total, own, calls = span_times(tracer.spans)
    counts = tracer.counts
    drive, diag, floor = probes
    values = {
        "cli.self_s": own["cli.main"] / ops,
        "geometry.load_s": total["geometry.load"] / max(calls["geometry.load"], 1),
        "geometry.validate_s": total["geometry.validate"] / ops,
        "compiler.compile_s": total["compiler.compile"] / ops,
        "compiler.atoms": counts["compiler.atoms"] / ops,
        "compiler.edges": counts["compiler.edges"] / ops,
        "compiler.decode_s": total["compiler.decode"] / ops,
        "qubo.oracle_s": total["qubo.oracle"] / ops,
        "qubo.assignments": counts["qubo.assignments"] / ops,
        "solver.ground_s": total["solver.ground"] / ops,
        "solver.ground_configs": counts["solver.ground_configs"] / ops,
        "solver.useful_ratio": counts["solver.decoded"] / max(counts["solver.ground_configs"], 1),
        "solver.certify_self_s": own["solver.certify"] / ops,
        "sim.build_s": total["sim.build"] / ops,
        "sim.evolve_s": total["sim.evolve"] / ops,
        "sim.measure_s": total["sim.measure"] / ops,
        "sim.basis_dim": counts["sim.basis_dim"] / max(calls["sim.evolve"], 1),
        "sim.steps": counts["sim.steps"] / max(calls["sim.evolve"], 1),
        "sim.drive_s": drive / ops,
        "sim.step_floor_us": floor * 1e6,
        "sim.diag_s": diag / ops,
        "sim.norm_drift": worst.get("sim.norm_drift", 0.0),
        "sim.max_dp_ref": worst.get("sim.max_dp_ref", 0.0),
        "bench.op_self_s": own["op"] / ops,
        "trace.ops": ops,
        "trace.overhead_s": wall_t - wall_u,
        "trace.unaccounted_s": wall_t - total["op"],
    }
    return [(name, values[name], unit) for name, unit, _ in PER_LAYER]


def import_seconds(repeats: int) -> float:
    """Median time to import the program, each time in a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import rydqubo.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def _untraced(name, seed, seconds, setup_repeats, tamper):
    from workloads import WORKLOADS, plain_api

    api = plain_api()
    setups = []
    for _ in range(setup_repeats):
        began = time.perf_counter()
        wl = WORKLOADS[name](seed, api)
        setups.append(time.perf_counter() - began)
    began = time.perf_counter()
    wl.warm_up(api)
    warm_up = time.perf_counter() - began
    setup_s = import_seconds(setup_repeats) + statistics.median(setups) + warm_up
    if tamper is not None:
        tamper(wl)
    began = time.perf_counter()
    records = [attempt(wl.run, wl.check, item, api) for _, item in schedule(wl, seconds)]
    wall = time.perf_counter() - began
    return wl, records, _rows_untraced(wl, records, wall, setup_s), None


def _traced(name, seed, seconds, tamper):
    from spans import Tracer, drive_probes, installed, observe_sim
    from workloads import WORKLOADS, load_ref_dists, plain_api

    api = plain_api()
    tracer = Tracer()
    traced_api = tracer.api(api)
    tracer.item = "setup"
    wl = WORKLOADS[name](seed, traced_api)
    wl.warm_up(api)
    if tamper is not None:
        tamper(wl)
    refs = load_ref_dists() if wl.steps else None
    worst: dict[str, float] = {}
    op = tracer.wrap("op", wl.run)
    untraced, traced = [], []
    # Each item runs untraced, then traced, so both halves see the same
    # inputs under the same machine load; the difference of their summed
    # operation times is the tracing overhead.
    for k, item in schedule(wl, seconds):
        untraced.append(attempt(wl.run, wl.check, item, api))
        tracer.item = k
        with installed(tracer):
            traced.append(attempt(op, wl.check, item, traced_api))
        if refs is not None:
            observe_sim(tracer, refs, worst)
    wall_u = sum(t for _, t, _ in untraced)
    wall_t = sum(t for _, t, _ in traced)
    rows = _rows_traced(tracer, len(traced), wall_u, wall_t, worst, drive_probes(tracer))
    return wl, untraced + traced, rows, tracer.spans


def execute(name: str, seed: int, seconds: float, trace: int,
            setup_repeats: int = SETUP_REPEATS, tamper=None) -> dict:
    """Set up, measure and check one workload; ``tamper`` may edit its answers first."""
    if trace:
        wl, records, rows, spans = _traced(name, seed, seconds, tamper)
    else:
        wl, records, rows, spans = _untraced(name, seed, seconds, setup_repeats, tamper)
    listed = {metric[0] for metric in (PER_LAYER if trace else END_TO_END)}
    errors = [error for _, _, error in records if error is not None]
    return {
        "provenance": provenance(wl, seed, seconds, trace),
        "rows": rows,
        "attempted": len(records),
        "failed": len(errors),
        "errors": errors,
        "metrics": {n: {"value": v, "unit": u} for n, v, u in rows if n in listed},
        "spans": spans,
    }


def print_report(result: dict) -> None:
    print("provenance " + json.dumps(result["provenance"]))
    for error in result["errors"][:10]:
        print(f"FAILED {error}")
    for name, value, unit in result["rows"]:
        print(f"{name:24s} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--record-refs", action="store_true")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (SRC / "rydqubo" / "__init__.py").is_file():
        print(f"error: no rydqubo source under {SRC}", file=sys.stderr)
        return 2
    if not args.record_refs and args.workload is None:
        parser.error("--workload is required")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    if args.record_refs:
        from workloads import REF_DISTS, record_ref_dists

        refs = record_ref_dists(git_commit())
        REF_DISTS.write_text(json.dumps(refs, separators=(",", ":")) + "\n")
        return 0
    result = execute(args.workload, args.seed, args.seconds, args.trace)
    if result["spans"] is not None:
        from workloads import OUT_DIR

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        keep = {key: result[key] for key in ("provenance", "metrics", "spans")}
        path.write_text(json.dumps(keep) + "\n")
    print_report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
