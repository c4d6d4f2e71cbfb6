"""Tests for the batch-serving runtime: scheduler policy, per-request
accounting, slot-sharing linear batches, and batched-vs-solo equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.he import ExactBFVBackend, SimulatedHEBackend, serving_parameters, toy_parameters
from repro.he.tracker import OperationTracker
from repro.protocols import PRIMER_F, PRIMER_FPC, Phase
from repro.protocols.channel import Channel
from repro.runtime import (
    BatchKey,
    BatchScheduler,
    DeadlinePolicy,
    FifoPolicy,
    InferenceRequest,
    ServingRuntime,
    run_sequential_baseline,
    summarize,
)

KEY_A = BatchKey(kind="inference", model="a", variant="primer-fpc")
KEY_B = BatchKey(kind="inference", model="b", variant="primer-fpc")
KEY_A_F = BatchKey(kind="inference", model="a", variant="primer-f")


def _request(key: BatchKey, rid: str) -> InferenceRequest:
    return InferenceRequest(request_id=rid, key=key, payload=np.zeros(1, dtype=np.int64))


class TestBatchScheduler:
    def test_groups_compatible_requests(self):
        scheduler = BatchScheduler(max_batch_size=4)
        for i in range(3):
            scheduler.submit(_request(KEY_A, f"a{i}"))
        scheduler.submit(_request(KEY_B, "b0"))
        batch = scheduler.next_batch()
        assert batch.key == KEY_A
        assert [r.request_id for r in batch.requests] == ["a0", "a1", "a2"]
        assert scheduler.pending() == 1

    def test_fifo_head_defines_the_batch(self):
        """The oldest request is always in the next batch (no starvation)."""
        scheduler = BatchScheduler(max_batch_size=4)
        scheduler.submit(_request(KEY_B, "b0"))
        for i in range(6):
            scheduler.submit(_request(KEY_A, f"a{i}"))
        batch = scheduler.next_batch()
        assert batch.key == KEY_B
        assert [r.request_id for r in batch.requests] == ["b0"]

    def test_fifo_order_preserved_within_key(self):
        scheduler = BatchScheduler(max_batch_size=2)
        order = ["a0", "b0", "a1", "a2", "b1"]
        for rid in order:
            scheduler.submit(_request(KEY_A if rid.startswith("a") else KEY_B, rid))
        batches = scheduler.drain()
        assert [[r.request_id for r in b.requests] for b in batches] == (
            [["a0", "a1"], ["b0", "b1"], ["a2"]]
        )

    def test_max_batch_size_enforced(self):
        scheduler = BatchScheduler(max_batch_size=3)
        for i in range(7):
            scheduler.submit(_request(KEY_A, f"a{i}"))
        sizes = [len(b) for b in scheduler.drain()]
        assert sizes == [3, 3, 1]

    def test_variants_are_incompatible(self):
        scheduler = BatchScheduler(max_batch_size=8)
        scheduler.submit(_request(KEY_A, "a0"))
        scheduler.submit(_request(KEY_A_F, "f0"))
        batches = scheduler.drain()
        assert len(batches) == 2
        assert batches[0].key == KEY_A and batches[1].key == KEY_A_F

    def test_empty_queue_yields_none(self):
        assert BatchScheduler().next_batch() is None

    def test_rejects_degenerate_batch_size(self):
        with pytest.raises(ProtocolError):
            BatchScheduler(max_batch_size=0)


@pytest.fixture(scope="module")
def served(tiny_model):
    """One serving run over six requests across two variants (shared)."""
    rng = np.random.default_rng(7)
    tokens = [rng.integers(0, 40, size=6) for _ in range(6)]
    runtime = ServingRuntime({"tiny": tiny_model}, max_batch_size=4, seed=21)
    ids = [runtime.submit("tiny", t) for t in tokens[:4]]
    ids.append(runtime.submit("tiny", tokens[4], variant=PRIMER_F))
    ids.append(runtime.submit("tiny", tokens[5]))
    reports = runtime.run_pending()
    return runtime, tokens, ids, reports


class TestServingRuntime:
    def test_all_requests_served_in_batches(self, served):
        runtime, tokens, ids, reports = served
        assert [r.request_id for r in reports] == ids
        assert runtime.scheduler.pending() == 0
        # 4 fpc + 1 f + 1 fpc overflow -> three batches.
        assert len({r.batch_id for r in reports}) == 3

    def test_batched_results_match_solo_runs(self, served, tiny_model):
        """Batch execution must be bit-identical to engine-per-request runs."""
        runtime, tokens, ids, reports = served
        solo_logits, _ = run_sequential_baseline(tiny_model, tokens[:4], seed=999)
        for rid, expected in zip(ids[:4], solo_logits, strict=True):
            report = runtime.result(rid)
            assert np.array_equal(report.result, expected), rid
            assert report.prediction == int(np.argmax(expected))

    def test_per_request_channel_accounting_sums_to_totals(self, served):
        runtime, tokens, ids, reports = served
        for variant in ("primer-fpc", "primer-f"):
            engine = runtime.engine_for(
                "tiny", PRIMER_FPC if variant == "primer-fpc" else PRIMER_F
            )
            channel = engine.channel
            tagged_bytes = sum(
                channel.total_bytes(Phase.ONLINE, request=rid) for rid in channel.requests()
            )
            # The engine's shared offline phase sends nothing online, so the
            # per-request attribution covers all online traffic exactly.
            assert tagged_bytes == channel.total_bytes(Phase.ONLINE)
            tagged_rounds = sum(
                channel.round_count(Phase.ONLINE, request=rid) for rid in channel.requests()
            )
            assert tagged_rounds == channel.round_count(Phase.ONLINE)

    def test_per_request_tracker_accounting_sums_to_totals(self, served):
        runtime, tokens, ids, reports = served
        engine = runtime.engine_for("tiny", PRIMER_FPC)
        tracker = engine.tracker
        recombined = dict(tracker.unattributed())
        for rid in tracker.requests():
            for op, count in tracker.request_snapshot(rid).items():
                recombined[op] = recombined.get(op, 0) + count
        assert recombined == tracker.snapshot()

    def test_reports_carry_per_request_breakdowns(self, served):
        _, _, _, reports = served
        for report in reports:
            assert report.online_bytes > 0
            assert report.online_rounds > 0
            assert report.latency_seconds > 0
            assert report.queue_seconds >= 0
            assert report.summary()["batch_size"] >= 1

    def test_summarize_throughput(self, served):
        _, _, _, reports = served
        stats = summarize(reports)
        assert stats.num_requests == 6
        assert stats.num_batches == 3
        assert stats.requests_per_second > 0

    def test_unknown_model_rejected(self):
        runtime = ServingRuntime()
        with pytest.raises(ProtocolError):
            runtime.submit("nope", np.zeros(4, dtype=np.int64))

    def test_engine_cache_reused_across_run_pending_calls(self, served, tiny_model):
        runtime, tokens, ids, reports = served
        engine_before = runtime.engine_for("tiny", PRIMER_FPC)
        runtime.submit("tiny", tokens[0])
        more = runtime.run_pending()
        assert runtime.engine_for("tiny", PRIMER_FPC) is engine_before
        assert np.array_equal(more[-1].result, runtime.result(ids[0]).result)


class TestLinearServing:
    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda: ExactBFVBackend(serving_parameters(256), seed=5),
            lambda: SimulatedHEBackend(toy_parameters(256)),
        ],
    )
    def test_batched_linear_results_exact(self, make_backend, rng):
        runtime = ServingRuntime(backend_factory=make_backend, max_batch_size=8)
        weights = rng.integers(0, 7, size=(16, 4))
        runtime.register_weights("proj", weights)
        matrices = [rng.integers(0, 100, size=(8, 16)) for _ in range(8)]
        ids = [runtime.submit_linear("proj", m) for m in matrices]
        reports = runtime.run_pending()
        t = make_backend().plaintext_modulus
        for m, rid in zip(matrices, ids, strict=True):
            report = runtime.result(rid)
            assert np.array_equal(report.result, (m @ weights) % t)
            assert report.shared_slot_batch

    def test_batch_shares_ciphertexts_across_requests(self, rng):
        """8 requests cost the same number of encryptions as one request."""
        backend = ExactBFVBackend(serving_parameters(256), seed=5)
        runtime = ServingRuntime(backend_factory=lambda: backend, max_batch_size=8)
        weights = rng.integers(0, 7, size=(16, 4))
        runtime.register_weights("proj", weights)
        for _ in range(8):
            runtime.submit_linear("proj", rng.integers(0, 100, size=(8, 16)))
        reports = runtime.run_pending()
        # One ciphertext per input feature, shared by the whole batch.
        assert reports[0].he_operations["encrypt"] == 16
        assert reports[0].batch_size == 8

    def test_oversized_batches_are_chunked_to_slot_capacity(self, rng):
        backend = SimulatedHEBackend(toy_parameters(64))  # 64 slots
        runtime = ServingRuntime(backend_factory=lambda: backend, max_batch_size=8)
        weights = rng.integers(0, 7, size=(4, 2))
        runtime.register_weights("proj", weights)
        matrices = [rng.integers(0, 30, size=(24, 4)) for _ in range(5)]  # 120 rows total
        for m in matrices:
            runtime.submit_linear("proj", m)
        reports = runtime.run_pending()
        t = backend.plaintext_modulus
        for m, report in zip(matrices, reports, strict=True):
            assert np.array_equal(report.result, (m @ weights) % t)
        # 24-row requests fit two per 64-slot ciphertext -> chunks of <= 2.
        assert max(r.batch_size for r in reports) == 2
        # Every chunk gets its own accounting tag: a later chunk's report
        # must not accumulate the earlier chunks' operations.  Both chunk
        # sizes run the BSGS kernel here (simulated backend): 48-row chunks
        # get one feature block per ciphertext (4 input ciphertexts), the
        # final 24-row chunk packs two blocks per ciphertext (2) -- strictly
        # fewer, never accumulated.
        first_chunk_ops = reports[0].he_operations
        last_chunk_ops = reports[-1].he_operations
        assert first_chunk_ops["encrypt"] == 4
        assert last_chunk_ops["encrypt"] == 2
        assert last_chunk_ops["encrypt"] < first_chunk_ops["encrypt"]

    def test_request_larger_than_slot_capacity_rejected_at_submit(self, rng):
        backend = SimulatedHEBackend(toy_parameters(64))
        runtime = ServingRuntime(backend_factory=lambda: backend)
        runtime.register_weights("proj", rng.integers(0, 7, size=(4, 2)))
        with pytest.raises(ProtocolError):
            runtime.submit_linear("proj", rng.integers(0, 30, size=(65, 4)))
        # Nothing was queued, so the runtime keeps serving normally.
        assert runtime.scheduler.pending() == 0

    def test_engine_for_unknown_model_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            ServingRuntime().engine_for("typo")

    def test_shape_mismatch_rejected(self, rng):
        runtime = ServingRuntime()
        runtime.register_weights("proj", rng.integers(0, 7, size=(16, 4)))
        with pytest.raises(ProtocolError):
            runtime.submit_linear("proj", rng.integers(0, 10, size=(8, 5)))
        with pytest.raises(ProtocolError):
            runtime.submit_linear("unknown", rng.integers(0, 10, size=(8, 16)))


class TestWeightBankReplacement:
    """Regression: replacing a bank under queued requests must be safe."""

    def test_incompatible_replacement_rejected_while_requests_queued(self, rng):
        runtime = ServingRuntime()
        runtime.register_weights("proj", rng.integers(0, 7, size=(16, 4)))
        runtime.submit_linear("proj", rng.integers(0, 50, size=(8, 16)))
        # The queued request was validated against a 16-row bank; swapping
        # in an 8-row bank would let it run against the wrong shape.
        with pytest.raises(ProtocolError):
            runtime.register_weights("proj", rng.integers(0, 7, size=(8, 4)))
        # The old bank still serves the queued request correctly.
        reports = runtime.run_pending()
        assert len(reports) == 1

    def test_same_input_dim_replacement_allowed(self, rng):
        runtime = ServingRuntime()
        runtime.register_weights("proj", rng.integers(0, 7, size=(16, 4)))
        matrix = rng.integers(0, 50, size=(8, 16))
        request_id = runtime.submit_linear("proj", matrix)
        # Same input dimension (different values/output width) stays
        # compatible with everything in the queue.
        replacement = rng.integers(0, 7, size=(16, 6))
        runtime.register_weights("proj", replacement)
        runtime.run_pending()
        report = runtime.result(request_id)
        t = runtime._linear.backend().plaintext_modulus
        assert np.array_equal(report.result, (matrix @ replacement) % t)

    def test_replacement_allowed_once_queue_drained(self, rng):
        runtime = ServingRuntime()
        runtime.register_weights("proj", rng.integers(0, 7, size=(16, 4)))
        runtime.submit_linear("proj", rng.integers(0, 50, size=(8, 16)))
        runtime.run_pending()
        runtime.register_weights("proj", rng.integers(0, 7, size=(8, 4)))
        request_id = runtime.submit_linear("proj", rng.integers(0, 50, size=(8, 8)))
        runtime.run_pending()
        assert runtime.result(request_id).result.shape == (8, 4)

    def test_batch_time_revalidation_guards_direct_mutation(self, rng):
        """The executor re-checks shapes even if the bank dict is mutated."""
        runtime = ServingRuntime()
        runtime.register_weights("proj", rng.integers(0, 7, size=(16, 4)))
        runtime.submit_linear("proj", rng.integers(0, 50, size=(8, 16)))
        # Bypass register_weights entirely (defence-in-depth check).
        runtime._weight_banks["proj"] = rng.integers(0, 7, size=(8, 4))
        with pytest.raises(ProtocolError):
            runtime.run_pending()


class TestDeadlineScheduling:
    """EDF meets a deadline mix that FIFO provably misses.

    Virtual-time argument: batches cost one time unit each, a request's
    completion time is its batch's position in the drain order (1-based).
    The workload queues two full batches of key A ahead of one urgent
    request on key B with deadline 1 unit from arrival:

    * FIFO drains A, A, B -- the urgent request finishes at t=3 > 1: missed.
    * EDF picks B's key first (earliest deadline), then serves A's two
      batches: everything with a deadline finishes in time.

    Both schedules keep per-key FIFO order, so the difference is purely the
    cross-key policy.
    """

    A = BatchKey(kind="inference", model="a", variant="primer-fpc")
    B = BatchKey(kind="inference", model="b", variant="primer-fpc")

    def _workload(self):
        # (id, key, deadline in virtual units)
        return [
            ("a0", self.A, 3.0),
            ("a1", self.A, 3.0),
            ("a2", self.A, None),
            ("a3", self.A, None),
            ("b0", self.B, 1.0),
        ]

    def _drain_completion_times(self, policy) -> dict[str, float]:
        scheduler = BatchScheduler(max_batch_size=2, policy=policy)
        for request_id, key, deadline in self._workload():
            scheduler.submit(
                InferenceRequest(
                    request_id=request_id, key=key,
                    payload=np.zeros(1, dtype=np.int64),
                    submitted_at=0.0, deadline=deadline,
                )
            )
        completion: dict[str, float] = {}
        for position, batch in enumerate(scheduler.drain(), start=1):
            for request in batch.requests:
                completion[request.request_id] = float(position)
        return completion

    def _missed(self, completion: dict[str, float]) -> list[str]:
        deadlines = {rid: d for rid, _, d in self._workload() if d is not None}
        return [rid for rid, d in deadlines.items() if completion[rid] > d]

    def test_fifo_provably_misses_the_urgent_deadline(self):
        completion = self._drain_completion_times(FifoPolicy())
        assert self._missed(completion) == ["b0"]

    def test_edf_meets_every_deadline_fifo_missed(self):
        completion = self._drain_completion_times(DeadlinePolicy())
        assert self._missed(completion) == []
        # The urgent cross-key request ran first; per-key FIFO still holds.
        assert completion["b0"] == 1.0
        assert completion["a0"] <= completion["a2"]

    def test_runtime_edf_serves_urgent_batch_first_end_to_end(self, tiny_model):
        rng = np.random.default_rng(3)
        runtime = ServingRuntime(
            {"a": tiny_model, "b": tiny_model},
            max_batch_size=2,
            policy=DeadlinePolicy(),
            seed=5,
        )
        runtime.submit("a", rng.integers(0, 40, size=6))
        runtime.submit("a", rng.integers(0, 40, size=6))
        urgent = runtime.submit("b", rng.integers(0, 40, size=6), deadline_seconds=120.0)
        reports = runtime.run_pending()
        # The deadline-bearing request's batch ran first despite arriving last.
        assert reports[0].request_id == urgent
        assert reports[0].deadline_met is True
        stats = summarize(reports)
        assert stats.deadlines_met == 1 and stats.deadlines_missed == 0


class TestReviewRegressions:
    def test_conflicting_variant_name_rejected(self, tiny_model):
        from repro.he.packing import PackingLayout
        from repro.protocols import PrimerVariant

        runtime = ServingRuntime({"tiny": tiny_model})
        impostor = PrimerVariant(
            "primer-fpc", preprocess_offline=False,
            packing=PackingLayout.FEATURE_BASED, combine_layers=False,
        )
        # Batch keys carry only the variant name; a different configuration
        # under a taken name must fail loudly instead of silently running
        # under the originally registered variant.
        with pytest.raises(ProtocolError):
            runtime.submit("tiny", np.zeros(6, dtype=np.int64), variant=impostor)

    def test_failure_keeps_completed_batches(self, tiny_model, rng):
        """A failing batch must not lose reports of batches that finished."""
        runtime = ServingRuntime({"tiny": tiny_model}, seed=4)
        runtime.register_weights("proj", rng.integers(0, 7, size=(16, 4)))
        inference_id = runtime.submit("tiny", rng.integers(0, 40, size=6))
        runtime.submit_linear("proj", rng.integers(0, 50, size=(8, 16)))
        # Corrupt the bank under the executor's feet: the linear batch fails
        # its batch-time re-validation while the inference batch succeeds.
        runtime._weight_banks["proj"] = rng.integers(0, 7, size=(8, 4))
        with pytest.raises(ProtocolError):
            runtime.run_pending()
        report = runtime.result(inference_id)
        assert report.request_id == inference_id


class TestQueueObservability:
    def test_scheduler_exposes_depths_and_wait(self, tiny_model):
        runtime = ServingRuntime({"tiny": tiny_model}, max_batch_size=4)
        rng = np.random.default_rng(0)
        for _ in range(3):
            runtime.submit("tiny", rng.integers(0, 40, size=6))
        runtime.submit("tiny", rng.integers(0, 40, size=6), variant=PRIMER_F)
        scheduler = runtime.scheduler
        assert scheduler.pending_count() == 4
        depths = scheduler.queue_depths()
        assert depths[BatchKey("inference", "tiny", "primer-fpc")] == 3
        assert depths[BatchKey("inference", "tiny", "primer-f")] == 1
        assert scheduler.max_queue_wait() > 0.0
        reports = runtime.run_pending()
        assert scheduler.pending_count() == 0
        assert scheduler.queue_depths() == {}
        assert scheduler.max_queue_wait() == 0.0
        stats = summarize(reports)
        assert stats.max_queue_seconds >= stats.mean_queue_seconds > 0.0


class TestTrackerAttribution:
    def test_attribute_scopes_nest_and_restore(self):
        tracker = OperationTracker()
        tracker.record("op")
        with tracker.attribute("r1"):
            tracker.record("op")
            with tracker.attribute("r2"):
                tracker.record("op", count=2)
            tracker.record("op")
        tracker.record("op")
        assert tracker.count("op") == 6
        assert tracker.request_snapshot("r1") == {"op": 2}
        assert tracker.request_snapshot("r2") == {"op": 2}
        assert tracker.unattributed() == {"op": 2}


class TestChannelRunningTotals:
    def test_phase_totals_match_a_rescan_and_never_filter_the_log(
        self, tiny_model, rng, monkeypatch
    ):
        """Per-phase bytes/rounds are running totals: they equal a rescan of
        the message log, and serving a batch never rescans that log."""
        runtime = ServingRuntime({"tiny": tiny_model}, max_batch_size=2, seed=4)
        engine = runtime.engine_for("tiny")
        channel = engine.channel
        results = engine.run_batch([rng.integers(0, 40, size=6) for _ in range(2)])

        def rescan(phase):
            picked = [m for m in channel.messages if phase is None or m.phase is phase]
            return sum(m.num_bytes for m in picked), len(picked)

        for phase in (Phase.ONLINE, Phase.OFFLINE, None):
            assert (channel.total_bytes(phase), channel.round_count(phase)) == rescan(phase)
        last = results[-1]
        assert (last.online_bytes, last.online_rounds) == rescan(Phase.ONLINE)
        assert (last.offline_bytes, last.offline_rounds) == rescan(Phase.OFFLINE)

        filtered_calls = []
        original = Channel._filtered

        def counting_filtered(self, *args, **kwargs):
            filtered_calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Channel, "_filtered", counting_filtered)
        for _ in range(2):
            runtime.submit("tiny", rng.integers(0, 40, size=6))
        assert len(runtime.run_pending()) == 2
        assert filtered_calls == []

    def test_step_filters_and_reset_agree_with_a_rescan(self):
        channel = Channel()
        sends = [
            ("a", Phase.OFFLINE, None, 5),
            ("a", Phase.ONLINE, "r1", 7),
            ("b", Phase.ONLINE, "r1", 11),
            ("b", Phase.ONLINE, None, 13),
        ]
        for step, phase, request, num_bytes in sends:
            channel.set_request(request)
            channel.send("client", "server", num_bytes, step=step, phase=phase)
        channel.set_request(None)
        for phase in (Phase.ONLINE, Phase.OFFLINE, None):
            for step in ("a", "b", None):
                for request in ("r1", None):
                    picked = [
                        n for s, p, r, n in sends
                        if (phase is None or p is phase)
                        and (step is None or s == step)
                        and (request is None or r == request)
                    ]
                    assert channel.total_bytes(phase, step, request) == sum(picked)
                    assert channel.round_count(phase, step, request) == len(picked)
        channel.reset()
        assert channel.total_bytes() == channel.round_count() == 0
        assert channel.total_bytes(Phase.ONLINE, request="r1") == 0
