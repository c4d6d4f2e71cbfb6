"""Tier-1 smoke test of the end-to-end benchmark (a few rounds per workload).

Checks the contract, never a time: each workload's ``--trace 0`` run prints
exactly the end-to-end metric names of ``BENCHMARK.json`` and its
``--trace 1`` run exactly the per-layer names, every request matches its
plaintext reference, and the three exact-count metrics repeat across the two
runs (same seed, fresh process each).
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).with_name("run.py")
EXACT = ("online_mb_per_request", "online_rounds_per_request", "he_ops_per_request")

with open(ROOT / "BENCHMARK.json") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict[str, float]]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in EXACT:
            printed[parts[0]] = float(parts[1])
    return json.loads(lines[-1]), printed


@pytest.fixture(scope="module")
def results():
    """Every (workload, trace) smoke run, three subprocesses at a time."""
    jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=3) as pool:
        return dict(zip(jobs, pool.map(lambda job: _run(*job), jobs), strict=True))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_meets_the_contract(results, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, _printed = results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {n: c["unit"] for n, c in result["metrics"].items()} == wanted
    end_to_end = results[workload, 0][0]["metrics"]
    assert end_to_end["correct_share"]["value"] == 1.0
    layers = results[workload, 1][0]["metrics"]
    assert layers["runtime.scheduler.batch_fill_share"]["value"] == 1.0
    assert layers["runtime.fleet.conservation_gap"]["value"] == 0
    assert layers["trace.coverage_share"]["value"] > 0.5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_count_metrics_repeat(results, workload):
    first, second = results[workload, 0][1], results[workload, 1][1]
    assert set(first) == set(EXACT) == set(second)
    assert first == second
