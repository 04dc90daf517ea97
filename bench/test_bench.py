"""Tests of the benchmark itself, each workload at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import run  # noqa: E402

for var in run.THREAD_VARS:  # as run.main sets them, before numpy loads
    os.environ.setdefault(var, "1")

import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = 0.01  # one pass, or one operation on certify-large
NAMES = [w["name"] for w in MANIFEST["workloads"]]


def tiny(name: str, trace: int = 0, seed: int = 1, tamper=None) -> dict:
    return run.execute(name, seed, TINY_SECONDS, trace, setup_repeats=1, tamper=tamper)


def test_manifest_is_generated_from_the_tables():
    assert MANIFEST == run.manifest()
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_emits_every_listed_metric_with_its_unit(name, trace):
    result = tiny(name, trace)
    listed = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        key: metric["unit"] for key, metric in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0, result["errors"]


def _flip_first_answer(wl) -> str:
    """Make the first expected answer wrong; returns the name it is filed under."""
    item = wl.items[0]
    if wl.steps:
        item.expected = {tuple(1 - b for b in a) for a in item.expected}
        return item.key
    passed, decoded, argmin = item.expected
    item.expected = (not passed, decoded, argmin)
    return item.key


@pytest.mark.parametrize("name", NAMES)
def test_tampered_answer_counts_as_failed(name):
    tampered = []
    result = tiny(name, tamper=lambda wl: tampered.append(_flip_first_answer(wl)))
    rows = {row[0]: row[1] for row in result["rows"]}
    assert result["failed"] >= 1 and rows["failed_frac"] > 0
    assert result["errors"][0].startswith(tampered[0] + ":")


def _inputs(name: str, seed: int) -> list:
    described = []
    for item in workloads.WORKLOADS[name](seed, workloads.plain_api()).items:
        payload = item.payload
        if item.kind == "demo":
            graph, layout, rule = payload
            payload = (sorted(graph.edges), sorted(layout.positions.items()), rule)
        elif item.kind != "cli":
            q = payload[0]
            payload = (q.n, sorted(q.linear.items()), sorted(q.quadratic.items()))
        described.append((item.key, payload, item.expected))
    return described


@pytest.mark.parametrize("name", NAMES)
def test_only_certify_inputs_follow_the_seed(name):
    first = _inputs(name, 1)
    assert first == _inputs(name, 1)
    if name.startswith("certify"):
        assert first != _inputs(name, 2)
    else:
        assert first == _inputs(name, 2)


def test_strata_do_not_follow_the_seed():
    def draw(seed):
        rng = random.Random(seed)
        return workloads.stratified_instances(rng, 6, 64)

    def units(instances):
        return [sum(w for w in quadratic.values() if w > 0) for _, quadratic in instances]

    assert draw(3) != draw(4)
    assert units(draw(3)) == units(draw(4))
    assert min(units(draw(3))) < 5 < 14 < max(units(draw(3)))


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-g7", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
