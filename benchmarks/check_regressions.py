"""Benchmark-regression gate over ``BENCH_serving.json``.

The serving benchmarks record their headline numbers (see
``benchmarks/_record.py``); this script is the committed floor under them.
CI runs it twice: in the blocking tier-1 job against the *committed*
``BENCH_serving.json`` (a PR cannot merge numbers below a floor), and
again after the tier-2 benchmark job against freshly measured numbers
(advisory, since wall-clock speedups are runner-dependent).  Either way a
regression of the cached-engine, BSGS-rotation, FHGS-slot-sharing,
plan-store-warm-start, NTT-domain-residency, kernel-tier, fault-recovery
or replica-fleet wins is caught before it lands silently.

Run with:  python benchmarks/check_regressions.py [path-to-BENCH_serving.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: ``section.metric`` -> minimum acceptable value.  These are deliberately
#: below the typically measured numbers (≈8x, ≈4x, 4.5x, 4.0x, ≈20x+)
#: so the gate only trips on real regressions, not benchmark noise.
FLOORS: dict[str, float] = {
    "shared_slot_exact_bfv.throughput_speedup": 3.0,
    "cached_engine_serving.throughput_speedup": 3.0,
    "bsgs_matmul.rotation_reduction": 3.0,
    "fhgs_slot_sharing.cross_term_ciphertext_reduction": 3.0,
    "plan_store_warm_start.warm_start_speedup": 5.0,
    # Evaluation-domain residency: >= 3x fewer NTT transforms on the BSGS
    # linear path (typically ~80x) and a real wall-clock win on the exact
    # backend's resident plaintext products (typically far above 2x).
    "ntt_domain_residency.transform_reduction": 3.0,
    "ntt_domain_residency.exact_backend_speedup": 2.0,
    # Compiled kernel tier: the self-calibrated fastest tier must keep a
    # real wall-clock win on exact-backend serving at paper dimensions
    # (N = 4096, six limbs; typically ~2.7x on a single core, more with
    # multicore parallelism available).
    "kernel_tier.exact_backend_speedup": 2.0,
    # Fault recovery: serving throughput under the injected transient-fault
    # rate (with one guaranteed firing) must stay within 0.8x of the
    # fault-free pass -- retries amortise, they do not serialise the drain.
    "fault_recovery.throughput_ratio": 0.8,
    # Replica fleet: two forked replica processes overlapping their batch
    # linger windows must beat the single-process front door on the
    # closed-loop workload (typically ~1.6x on a one-core runner).
    "replica_fleet.throughput_speedup": 1.3,
}

#: ``section.metric`` -> exact required value (correctness, not wall clock):
#: a warm-started engine must run *zero* offline HE operations, and the
#: EVAL-resident transform count must equal its closed form exactly (any
#: gap is a redundant -- or missing -- domain crossing).
EXACT: dict[str, float] = {
    "plan_store_warm_start.warm_offline_he_operations": 0,
    "ntt_domain_residency.closed_form_gap": 0,
    # Double-CRT serving: the two-limb transform count must equal the
    # limb-scaled closed form (input_cts + output_cts) * L exactly -- any
    # gap is a limb-scaling bug in a charge site or a redundant transform.
    "rns_limb_arithmetic.closed_form_gap": 0,
    # Every kernel tier must serve logits bit-identical to the reference
    # numpy path with the limb-scaled transform closed form intact -- the
    # tier is a performance knob, never a semantics knob.
    "kernel_tier.bit_identical": 1,
    "kernel_tier.closed_form_gap": 0,
    # Fault tolerance: conservation must close exactly -- every submitted
    # request either completed or failed typed; a nonzero gap is a dropped
    # handle, and a typed failure under an all-transient plan with retry
    # headroom is a broken recovery path.
    "fault_recovery.conservation_gap": 0,
    "fault_recovery.typed_failures": 0,
    # Replica fleet: the router ledger must close exactly over the wire
    # (no dropped, duplicated, or hung requests), the fleet's logits must
    # be bit-identical to the single-process drain, and a fresh replica
    # over the shared plan store must warm-start every engine from disk.
    "replica_fleet.conservation_gap": 0,
    "replica_fleet.typed_failures": 0,
    "replica_fleet.bit_identical": 1,
    "replica_fleet.warm_start_hit_rate": 1.0,
}

#: Ceiling on `# repro-lint: disable=` suppressions across the checked tree
#: (stamped into the record by ``_record.py``).  Currently zero: every
#: project-invariant finding so far has been fixed rather than suppressed.
MAX_SUPPRESSIONS = 0


def check(path: Path) -> list[str]:
    """Return a list of human-readable failures (empty = all floors hold)."""
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        return [f"{path} is missing; run the serving benchmarks first"]
    except json.JSONDecodeError as error:
        return [f"{path} is not valid JSON: {error}"]
    sections = data.get("sections", {})
    failures = []

    def lookup(key: str) -> float | None:
        section_name, metric = key.split(".", 1)
        section = sections.get(section_name)
        if section is None:
            failures.append(f"section {section_name!r} missing from {path.name}")
            return None
        value = section.get(metric)
        if not isinstance(value, (int, float)):
            failures.append(f"{key} missing or non-numeric in {path.name}")
            return None
        return value

    for key, floor in FLOORS.items():
        value = lookup(key)
        if value is not None and value < floor:
            failures.append(
                f"{key} = {value:.2f} fell below the committed floor {floor:.2f}"
            )
    for key, expected in EXACT.items():
        value = lookup(key)
        if value is not None and value != expected:
            failures.append(f"{key} = {value} must be exactly {expected}")

    # Static-analysis hygiene: _record.py stamps `python -m repro.analysis`
    # stats into the record (top-level, not a benchmark section).  The
    # suppression count is regression-gated at its current value -- zero --
    # so `# repro-lint: disable=...` comments cannot accumulate silently.
    analysis = data.get("analysis")
    if not isinstance(analysis, dict):
        failures.append(f"analysis stats missing from {path.name} (re-run a benchmark)")
    else:
        suppressions = analysis.get("suppression_count")
        if not isinstance(suppressions, int):
            failures.append(f"analysis.suppression_count missing from {path.name}")
        elif suppressions > MAX_SUPPRESSIONS:
            failures.append(
                f"analysis.suppression_count = {suppressions} exceeds the "
                f"committed ceiling {MAX_SUPPRESSIONS}"
            )
    return failures


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "BENCH_serving.json"
    path = Path(argv[1]) if len(argv) > 1 else default
    failures = check(path)
    if failures:
        print("benchmark regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"benchmark regression gate OK ({len(FLOORS)} floors and "
        f"{len(EXACT)} exact checks hold in {path.name})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
