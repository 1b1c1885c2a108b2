"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import COUNT_METRICS  # noqa: E402
from workloads import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Count metric that each span name's work shows up in, where one exists.
LAYER_COUNTS = {
    "sphere.roots": "sphere.roots.calls",
    "sphere.sph_dist": "sphere.sph_dist.calls",
    "correspondence.fiber": "correspondence.fibers",
    "grid.cell_index": "grid.cell_index.calls",
    "paths.enumerate": "paths.enumerated",
    "pullback.iterate": "pullback.particles",
    "transfer.kernel": "transfer.kernel_edges",
    "transfer.power": "transfer.power.iterations",
}


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def result(workload: str, trace: int, seed: int = 7) -> dict:
    done = bench(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, done.stderr
    return out


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(workloads("smoke"))
    assert sorted(WORKLOADS) == sorted(workloads("full"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    first = result(workload, 1)["metrics"]
    assert {k: v["unit"] for k, v in first.items()} == units("per_layer")

    # Every layer of the workload x layer matrix did work.
    spans = np.load(ROOT / ".bench_run" / workload / "spans.npz")
    calls = np.bincount(spans["name"], minlength=len(spans["names"]))
    called = {str(n): int(c) for n, c in zip(spans["names"], calls)}
    for layer in workloads("smoke")[workload].layers:
        assert called[layer] > 0, layer
        assert first[f"{layer}.self_s"]["value"] > 0, layer
        if layer in LAYER_COUNTS:
            assert first[LAYER_COUNTS[layer]]["value"] > 0, layer

    # Self times, cli included, plus the tracing cost taken out of them
    # account for the traced job time.
    self_total = sum(v["value"] for k, v in first.items() if k.endswith(".self_s"))
    job = first["trace.job_s"]["value"]
    wrappers = first["trace.wrapper_s"]["value"]
    assert abs(self_total + wrappers - job) <= 0.05 * job

    # The wrappers cover the work: what is left in the root span is config
    # handling and report writing, not an unwrapped hot path.
    assert first["cli.self_s"]["value"] < 0.2 * job

    # Counts repeat exactly for a fixed seed.
    second = result(workload, 1)["metrics"]
    for name in COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
