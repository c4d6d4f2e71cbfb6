"""Property tests for scheduling policies.

Two families of guarantees:

1. Every :class:`~repro.runtime.scheduler.SchedulingPolicy` preserves
   *per-key FIFO fairness*: batches are single-key, contain the oldest
   queued request of their key (no head starvation), serve each key's
   requests in arrival order, and a full drain serves everything exactly
   once.  Hypothesis drives random arrival patterns through all policies.

2. Service order is invisible in the results: whichever policy orders the
   drain, and whether it runs as a serial ``run_pending()`` pass or behind
   the async front door, every request's logits and per-request accounting
   are bit-identical, for all four Primer variants.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols import ALL_VARIANTS
from repro.runtime import (
    AsyncServingRuntime,
    BatchKey,
    BatchScheduler,
    DeadlinePolicy,
    FifoPolicy,
    InferenceRequest,
    ServingRuntime,
    SizeAwarePolicy,
)

KEYS = [
    BatchKey(kind="inference", model="a", variant="primer-fpc"),
    BatchKey(kind="inference", model="b", variant="primer-fpc"),
    BatchKey(kind="inference", model="a", variant="primer-f"),
]

LINEAR_KEYS = [
    BatchKey(kind="linear", model="bank-a", variant=""),
    BatchKey(kind="linear", model="bank-b", variant=""),
]

#: (policy factory, whether per-key service order is strictly FIFO)
POLICIES = [
    pytest.param(FifoPolicy, True, id="fifo"),
    pytest.param(DeadlinePolicy, True, id="edf"),
    pytest.param(lambda: SizeAwarePolicy(slot_count=16), False, id="size"),
]


#: one queued request: (key index, deadline or None, linear row count)
request_strategy = st.tuples(
    st.integers(min_value=0, max_value=len(KEYS) - 1),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    st.integers(min_value=1, max_value=12),
)


def _build_scheduler(policy_factory, entries, *, linear: bool, max_batch_size: int):
    scheduler = BatchScheduler(max_batch_size=max_batch_size, policy=policy_factory())
    keys = LINEAR_KEYS if linear else KEYS
    for index, (key_index, deadline, rows) in enumerate(entries):
        key = keys[key_index % len(keys)]
        payload = np.zeros((rows, 4), dtype=np.int64) if linear else np.zeros(4, dtype=np.int64)
        scheduler.submit(
            InferenceRequest(
                request_id=f"r{index}",
                key=key,
                payload=payload,
                submitted_at=float(index),
                deadline=deadline,
            )
        )
    return scheduler


def _assert_fairness(scheduler: BatchScheduler, *, strict_fifo: bool) -> None:
    """Drain and assert the per-key fairness invariants batch by batch.

    All policies: single-key batches, the per-key head is always included
    (no starvation), within-batch arrival order, everything served exactly
    once.  ``strict_fifo`` policies (FIFO, EDF) additionally serve each
    key's requests in exact arrival order; the size-aware policy may pack a
    smaller, younger request ahead of one that did not fit the slot
    capacity -- but never ahead of the per-key head, which the head check
    below covers for every formed batch.
    """
    submitted = list(scheduler._queue)  # inspected before draining
    served: list[InferenceRequest] = []
    while True:
        pending_by_key: dict[BatchKey, list[InferenceRequest]] = {}
        for request in scheduler._queue:
            pending_by_key.setdefault(request.key, []).append(request)
        batch = scheduler.next_batch()
        if batch is None:
            break
        # Single key per batch.
        assert all(request.key == batch.key for request in batch.requests)
        # The per-key head is in the batch: no starvation of the oldest
        # compatible request.
        head = min(pending_by_key[batch.key], key=lambda r: r.sequence)
        assert head in batch.requests
        # Requests inside the batch run in arrival order.
        sequences = [request.sequence for request in batch.requests]
        assert sequences == sorted(sequences)
        served.extend(batch.requests)
    # Everything is served exactly once.
    assert sorted(r.request_id for r in served) == sorted(r.request_id for r in submitted)
    if strict_fifo:
        # Per-key service order equals per-key arrival order.
        for key in {r.key for r in submitted}:
            served_key = [r.sequence for r in served if r.key == key]
            assert served_key == sorted(served_key)


class TestPolicyFairnessProperties:
    @pytest.mark.parametrize("policy_factory,strict_fifo", POLICIES)
    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(request_strategy, min_size=1, max_size=24),
        max_batch_size=st.integers(min_value=1, max_value=6),
    )
    def test_inference_queues_preserve_per_key_fifo(
        self, policy_factory, strict_fifo, entries, max_batch_size
    ):
        scheduler = _build_scheduler(
            policy_factory, entries, linear=False, max_batch_size=max_batch_size
        )
        _assert_fairness(scheduler, strict_fifo=strict_fifo)

    @pytest.mark.parametrize("policy_factory,strict_fifo", POLICIES)
    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(request_strategy, min_size=1, max_size=24),
        max_batch_size=st.integers(min_value=1, max_value=6),
    )
    def test_linear_queues_preserve_per_key_fifo(
        self, policy_factory, strict_fifo, entries, max_batch_size
    ):
        scheduler = _build_scheduler(
            policy_factory, entries, linear=True, max_batch_size=max_batch_size
        )
        _assert_fairness(scheduler, strict_fifo=strict_fifo)

    def test_size_aware_packs_to_slot_capacity(self):
        """Size-aware fill keeps the head and prefers requests that fit."""
        scheduler = BatchScheduler(max_batch_size=4, policy=SizeAwarePolicy(slot_count=16))
        key = LINEAR_KEYS[0]
        rows = [10, 12, 4, 2]  # head=10; 12 does not fit, 4 and 2 do
        for index, r in enumerate(rows):
            scheduler.submit(
                InferenceRequest(
                    request_id=f"r{index}", key=key,
                    payload=np.zeros((r, 4), dtype=np.int64),
                )
            )
        batch = scheduler.next_batch()
        assert [r.request_id for r in batch.requests] == ["r0", "r2", "r3"]
        # The skipped request kept its position and leads the next batch.
        batch = scheduler.next_batch()
        assert [r.request_id for r in batch.requests] == ["r1"]

    def test_edf_orders_batches_by_urgency_across_keys(self):
        scheduler = BatchScheduler(max_batch_size=8, policy=DeadlinePolicy())
        a, b = KEYS[0], KEYS[1]
        scheduler.submit(InferenceRequest("a0", a, None, deadline=50.0))
        scheduler.submit(InferenceRequest("b0", b, None, deadline=10.0))
        batches = scheduler.drain()
        assert [batch.key for batch in batches] == [b, a]


@pytest.fixture(scope="module")
def two_tiny_models():
    from repro.nn import BERT_BASE, TransformerEncoder, scaled_config

    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1
    )
    return {
        "tiny-a": TransformerEncoder.initialise(config, seed=3),
        "tiny-b": TransformerEncoder.initialise(config, seed=4),
    }


@pytest.fixture(scope="module")
def mixed_jobs():
    """(model, tokens, variant, deadline) over two models and all variants.

    Deadlines tighten with arrival, so the deadline policy serves the queue
    in a different order from FIFO.
    """
    rng = np.random.default_rng(5)
    count = 2 * len(ALL_VARIANTS)
    return [
        (
            "tiny-a" if index % 2 == 0 else "tiny-b",
            rng.integers(0, 40, size=6),
            ALL_VARIANTS[index % len(ALL_VARIANTS)],
            float(100 - index),
        )
        for index in range(count)
    ]


def _serial_reports(models, jobs, policy=None):
    """Reports of one ``run_pending()`` drain, in submission order, plus the
    request ids in the order the drain served them."""
    runtime = ServingRuntime(models, max_batch_size=2, seed=9, policy=policy)
    ids = [
        runtime.submit(model, tokens, variant=variant, deadline_seconds=deadline)
        for model, tokens, variant, deadline in jobs
    ]
    served = [report.request_id for report in runtime.run_pending()]
    return [runtime.result(rid) for rid in ids], served


def _accounting(report):
    return report.online_bytes, report.online_rounds, report.he_operations


class TestDrainEquivalence:
    def test_policies_serve_bit_identical_logits_all_variants(
        self, two_tiny_models, mixed_jobs
    ):
        """Reordering the drain never changes a request's logits."""
        fifo, _ = _serial_reports(two_tiny_models, mixed_jobs)
        assert {r.variant for r in fifo} == {v.name for v in ALL_VARIANTS}
        for policy in (DeadlinePolicy(), SizeAwarePolicy(slot_count=16)):
            reports, _ = _serial_reports(two_tiny_models, mixed_jobs, policy)
            for want, got in zip(fifo, reports, strict=True):
                assert np.array_equal(want.result, got.result)
                assert want.prediction == got.prediction

    def test_policies_agree_on_per_request_accounting(
        self, two_tiny_models, mixed_jobs
    ):
        """Per-request online bytes/rounds/ops do not depend on service order."""
        fifo, fifo_order = _serial_reports(two_tiny_models, mixed_jobs)
        edf, edf_order = _serial_reports(two_tiny_models, mixed_jobs, DeadlinePolicy())
        # The deadline policy really did serve a different order.
        assert edf_order != fifo_order
        for want, got in zip(fifo, edf, strict=True):
            assert _accounting(want) == _accounting(got)

    def test_front_door_matches_serial_drain_all_variants(
        self, two_tiny_models, mixed_jobs
    ):
        """The async front door serves what the serial drain serves: same
        logits, same per-request accounting, and no fleet worker label."""
        serial, _ = _serial_reports(two_tiny_models, mixed_jobs)
        with AsyncServingRuntime(two_tiny_models, max_batch_size=2, seed=9) as door:
            handles = [
                door.submit(model, tokens, variant=variant)
                for model, tokens, variant, _ in mixed_jobs
            ]
            reports = [handle.result(timeout=120) for handle in handles]
        for want, got in zip(serial, reports, strict=True):
            assert np.array_equal(want.result, got.result)
            assert _accounting(want) == _accounting(got)
            assert want.worker is None and got.worker is None
