"""Machine-readable benchmark records.

Benchmarks historically printed their tables and exited; nothing tracked the
performance trajectory across PRs.  This helper gives every benchmark module
one call to persist its headline numbers:

    from _record import record
    record("serving", "bsgs_matmul", {"rotation_reduction": 4.5, ...})

appends/overwrites one *section* of ``BENCH_<name>.json`` at the repository
root.  The file is committed so the trajectory lives in history, and CI
uploads it as a workflow artifact from the tier-2 benchmark job.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

__all__ = ["REPO_ROOT", "latency_percentiles", "record"]

REPO_ROOT = Path(__file__).resolve().parents[1]


def latency_percentiles(latencies_seconds: list[float]) -> dict[str, float]:
    """p50/p95/p99 of a latency sample, in milliseconds."""
    values = np.asarray(latencies_seconds, dtype=float) * 1e3
    return {
        "p50_ms": float(np.percentile(values, 50)),
        "p95_ms": float(np.percentile(values, 95)),
        "p99_ms": float(np.percentile(values, 99)),
    }


def record(bench: str, section: str, payload: dict) -> Path:
    """Merge ``payload`` under ``section`` of ``BENCH_<bench>.json``."""
    path = REPO_ROOT / f"BENCH_{bench}.json"
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {"benchmark": bench, "sections": {}}
    data.setdefault("sections", {})[section] = payload
    data["updated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    data["python"] = platform.python_version()
    try:
        from repro.he import kernels

        data["kernel_tier"] = kernels.active_tier_name()
        data["kernel_calibration"] = {
            tier: {metric: float(seconds) for metric, seconds in costs.items()}
            for tier, costs in sorted(kernels.calibration_snapshot().items())
        }
    except ImportError:
        pass
    try:
        from repro.analysis import tree_stats

        data["analysis"] = tree_stats()
    except ImportError:
        pass
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
