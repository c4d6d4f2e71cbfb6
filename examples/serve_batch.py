"""Batch serving demo: many private inference requests, one runtime.

Shows the layers of the serving runtime:

1. Six full private-inference requests (two protocol variants) flow through
   the request queue, are grouped into compatible batches, and run on cached
   engines -- keys and the whole HGS/FHGS offline phase are paid once per
   (model, variant) instead of once per request.  Queue observability
   (pending counts, per-key depth, max wait) and per-request reports show
   what the runtime is doing.
2. Eight private ``X @ W`` requests are packed tokens-first into *shared*
   ciphertext slots on the exact BFV backend: the batch needs one ciphertext
   per input feature, the same as a single request would.
3. The *async front door*: requests are submitted while earlier batches are
   still executing -- each ``submit()`` returns a handle whose ``result()``
   blocks until that request's report is ready -- and a second process-style
   runtime *warm-starts* its engine from the on-disk plan store, skipping
   the offline HE exchange entirely.

Run with:  PYTHONPATH=src python examples/serve_batch.py
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro.costmodel import format_table
from repro.he import ExactBFVBackend, serving_parameters
from repro.nn import BERT_BASE, TransformerEncoder, scaled_config
from repro.protocols import PRIMER_F, PRIMER_FPC, Phase
from repro.runtime import (
    AsyncServingRuntime,
    ServingRuntime,
    run_sequential_baseline,
    summarize,
)


def full_inference_demo() -> None:
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=2
    )
    model = TransformerEncoder.initialise(config, seed=3)
    rng = np.random.default_rng(7)
    sequences = [rng.integers(0, config.vocab_size, size=config.seq_len) for _ in range(6)]

    runtime = ServingRuntime({"tiny-bert": model}, max_batch_size=4)
    print("Submitting 6 private inference requests (4x FPC, 1x F, 1x FPC) ...")
    for index, tokens in enumerate(sequences):
        variant = PRIMER_F if index == 4 else PRIMER_FPC
        runtime.submit("tiny-bert", tokens, variant=variant)

    scheduler = runtime.scheduler
    print(f"Queue before drain: {scheduler.pending_count()} pending, "
          f"max wait {scheduler.max_queue_wait() * 1e3:.1f} ms")
    for key, depth in scheduler.queue_depths().items():
        print(f"  depth[{key.model}/{key.variant}] = {depth}")

    start = time.perf_counter()
    reports = runtime.run_pending()
    wall = time.perf_counter() - start

    print(format_table(
        ["Request", "Variant", "Batch", "Pred", "Latency ms", "Online KB", "Rounds"],
        [
            [
                r.request_id, r.variant, str(r.batch_id), str(r.prediction),
                f"{r.latency_seconds * 1e3:.1f}", f"{r.online_bytes / 1e3:.1f}",
                str(r.online_rounds),
            ]
            for r in reports
        ],
    ))
    stats = summarize(reports, wall)
    print(f"Batches formed   : {stats.num_batches}")
    print(f"Serving wall time: {wall:.3f}s  ({stats.requests_per_second:.1f} req/s)")
    print(f"Queue wait       : mean {stats.mean_queue_seconds * 1e3:.1f} ms, "
          f"max {stats.max_queue_seconds * 1e3:.1f} ms")

    solo_logits, solo_wall = run_sequential_baseline(model, sequences[:4])
    identical = all(
        np.array_equal(report.result, expected)
        for report, expected in zip(reports[:4], solo_logits, strict=True)
    )
    print(f"Sequential (fresh engine per request, 4 reqs): {solo_wall:.3f}s")
    print(f"Batched results bit-identical to solo runs    : {identical}")


def shared_slot_demo() -> None:
    backend = ExactBFVBackend(serving_parameters(256), seed=5)
    runtime = ServingRuntime(backend_factory=lambda: backend, max_batch_size=8)
    rng = np.random.default_rng(0)
    weights = rng.integers(0, 7, size=(16, 4))
    runtime.register_weights("projection", weights)

    print("\nSubmitting 8 private X @ W requests to the exact BFV backend ...")
    matrices = [rng.integers(0, 100, size=(8, 16)) for _ in range(8)]
    for matrix in matrices:
        runtime.submit_linear("projection", matrix)
    reports = runtime.run_pending()

    encrypts = reports[0].he_operations.get("encrypt", 0)
    correct = all(
        np.array_equal(report.result, (matrix @ weights) % backend.plaintext_modulus)
        for matrix, report in zip(matrices, reports, strict=True)
    )
    print(f"Requests served       : {len(reports)} (one shared-slot batch)")
    print(f"Ciphertexts encrypted : {encrypts} "
          f"(= input features; a sequential run needs {len(reports) * encrypts})")
    print(f"All results exact     : {correct}")


def front_door_demo() -> None:
    """Async submission over a plan-store-backed runtime, then a warm start."""
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1
    )
    model = TransformerEncoder.initialise(config, seed=3)
    rng = np.random.default_rng(4)
    tokens = [rng.integers(0, 40, size=6) for _ in range(6)]

    with tempfile.TemporaryDirectory() as plan_dir:
        print("\nAsync front door: submitting while the drain loop is running ...")
        start = time.perf_counter()
        with AsyncServingRuntime(
            {"tiny-bert": model}, max_batch_size=3, seed=11, plan_store=plan_dir
        ) as door:
            handles = []
            for t in tokens:
                handles.append(door.submit("tiny-bert", t))
                time.sleep(0.02)  # traffic trickles in mid-drain
            reports = [handle.result(timeout=300) for handle in handles]
        wall = time.perf_counter() - start
        batches = len({report.batch_id for report in reports})
        print(f"Requests served  : {len(reports)} across {batches} batches "
              f"in {wall:.2f}s (submissions interleaved with execution)")

        print("Restarting the runtime against the same plan store ...")
        warm = ServingRuntime({"tiny-bert": model}, seed=11, plan_store=plan_dir,
                              max_batch_size=3)
        start = time.perf_counter()
        engine = warm.engine_for("tiny-bert")
        warm_build = time.perf_counter() - start
        offline_ops = sum(engine.tracker.phase_snapshot(Phase.OFFLINE.value).values())
        stats = warm.engine_cache.stats()
        print(f"Warm-start build : {warm_build * 1e3:.1f} ms, "
              f"{offline_ops} offline HE operations "
              f"(warm starts: {stats.warm_starts}, cold builds: {stats.cold_builds})")
        identical = np.array_equal(
            engine.run(tokens[0]).logits, reports[0].result
        )
        print(f"Warm logits bit-identical to the front door's: {identical}")


def main() -> None:
    full_inference_demo()
    shared_slot_demo()
    front_door_demo()


if __name__ == "__main__":
    main()
