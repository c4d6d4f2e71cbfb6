"""Tests for the persistent plan store and engine-cache warm start.

The acceptance bar from the issue: a warm-started engine produces
bit-identical logits to a cold-built one, and its tracker shows **zero
offline HE operations** -- the whole offline exchange is replaced by reading
the stored :class:`~repro.protocols.plan.OfflinePlan` from disk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.he import SimulatedHEBackend
from repro.nn import BERT_BASE, TransformerEncoder, scaled_config
from repro.protocols import (
    PRIMER_F,
    PRIMER_FPC,
    Phase,
    PlanStore,
    PrivateTransformerInference,
    model_fingerprint,
    plan_nbytes,
    protocol_he_parameters,
)
from repro.runtime import ServingRuntime


@pytest.fixture(scope="module")
def small_model() -> TransformerEncoder:
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1
    )
    return TransformerEncoder.initialise(config, seed=3)


@pytest.fixture(scope="module")
def other_model() -> TransformerEncoder:
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1
    )
    return TransformerEncoder.initialise(config, seed=4)


@pytest.fixture
def token_ids() -> np.ndarray:
    return np.array([4, 7, 12, 20, 33, 5])


class TestKeying:
    def test_model_fingerprint_is_content_stable(self, small_model, other_model):
        assert model_fingerprint(small_model) == model_fingerprint(small_model)
        assert model_fingerprint(small_model) != model_fingerprint(other_model)

    def test_key_components_all_matter(self, tmp_path, small_model, other_model):
        store = PlanStore(tmp_path)
        base = store.key_for(small_model, "primer-fpc", 0, 1)
        assert base == store.key_for(small_model, "primer-fpc", 0, 1)
        variations = [
            store.key_for(other_model, "primer-fpc", 0, 1),
            store.key_for(small_model, "primer-f", 0, 1),
            store.key_for(small_model, "primer-fpc", 1, 1),
            store.key_for(small_model, "primer-fpc", 0, 4),
        ]
        digests = {base.digest()} | {key.digest() for key in variations}
        assert len(digests) == 5  # every component changes the digest


class TestPersistence:
    def test_round_trip_serves_a_sibling_engine(self, tmp_path, small_model, token_ids):
        producer = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        plan = producer.prepare()
        store = PlanStore(tmp_path)
        key = store.key_for(small_model, "primer-fpc", 17, 1)
        path = store.store(key, plan)
        assert path.exists()
        assert store.contains(key)
        assert store.entry_bytes(key) == path.stat().st_size

        revived = store.load(key)
        assert revived is not None
        assert revived.module_names() == plan.module_names()

        consumer = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        consumer.install(revived)
        baseline = PrivateTransformerInference(small_model, PRIMER_FPC, seed=99)
        baseline.offline()
        assert np.array_equal(
            consumer.run(token_ids).logits, baseline.run(token_ids).logits
        )

    def test_missing_entry_is_a_miss(self, tmp_path, small_model):
        store = PlanStore(tmp_path)
        assert store.load(store.key_for(small_model, "primer-fpc", 0, 1)) is None

    def test_corrupted_payload_is_a_miss_and_discarded(
        self, tmp_path, small_model
    ):
        producer = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        store = PlanStore(tmp_path)
        key = store.key_for(small_model, "primer-fpc", 17, 1)
        path = store.store(key, producer.prepare())
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload bit
        path.write_bytes(bytes(blob))
        assert store.load(key) is None
        assert not path.exists()  # the corrupt entry was deleted

    def test_truncated_entry_is_a_miss(self, tmp_path, small_model):
        producer = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        store = PlanStore(tmp_path)
        key = store.key_for(small_model, "primer-fpc", 17, 1)
        path = store.store(key, producer.prepare())
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.load(key) is None

    @pytest.mark.parametrize(
        "stale_magic", [b"REPRO-PLAN1\n", b"REPRO-PLAN2\n"], ids=["v1", "v2"]
    )
    def test_previous_format_version_is_a_miss(self, tmp_path, small_model, stale_magic):
        """v1 (pre-residency) and v2 (pre-RNS) entries must never install."""
        producer = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        store = PlanStore(tmp_path)
        key = store.key_for(small_model, "primer-fpc", 17, 1)
        path = store.store(key, producer.prepare())
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"REPRO-PLAN3\n", stale_magic, 1))
        assert store.load(key) is None
        assert not path.exists()  # discarded, falls back to a cold build

    def test_key_metadata_mismatch_is_a_miss(self, tmp_path, small_model):
        """An entry renamed onto another key's path fails header validation."""
        producer = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        store = PlanStore(tmp_path)
        key = store.key_for(small_model, "primer-fpc", 17, 1)
        other = store.key_for(small_model, "primer-fpc", 18, 1)
        store.path_for(other).write_bytes(
            store.store(key, producer.prepare()).read_bytes()
        )
        assert store.load(other) is None

    def test_store_rejects_non_plans(self, tmp_path, small_model):
        store = PlanStore(tmp_path)
        key = store.key_for(small_model, "primer-fpc", 0, 1)
        with pytest.raises(ProtocolError):
            store.store(key, {"not": "a plan"})

    def test_clear_and_counters(self, tmp_path, small_model):
        producer = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        store = PlanStore(tmp_path)
        store.store(store.key_for(small_model, "primer-fpc", 17, 1), producer.prepare())
        assert store.entry_count() == 1
        assert store.total_bytes() > 0
        assert store.clear() == 1
        assert store.entry_count() == 0


class TestEngineCacheWarmStart:
    def test_warm_start_skips_the_offline_phase_entirely(
        self, tmp_path, small_model, token_ids
    ):
        cold_runtime = ServingRuntime({"tiny": small_model}, plan_store=tmp_path, seed=7)
        cold_engine = cold_runtime.engine_for("tiny")
        cold_stats = cold_runtime.engine_cache.stats()
        assert cold_stats.cold_builds == 1 and cold_stats.warm_starts == 0
        store = cold_runtime.engine_cache.plan_store
        assert store is not None and store.entry_count() == 1

        # A freshly started process: new runtime, same store directory.
        warm_runtime = ServingRuntime({"tiny": small_model}, plan_store=tmp_path, seed=7)
        warm_engine = warm_runtime.engine_for("tiny")
        warm_stats = warm_runtime.engine_cache.stats()
        assert warm_stats.warm_starts == 1 and warm_stats.cold_builds == 0

        # Zero offline HE operations and zero offline traffic on the warm
        # engine: the offline phase was read from disk, not re-run.
        assert warm_engine.tracker.phase_snapshot(Phase.OFFLINE.value) == {}
        assert warm_engine.channel.total_bytes(Phase.OFFLINE) == 0

        # Bit-identical logits.
        assert np.array_equal(
            warm_engine.run(token_ids).logits, cold_engine.run(token_ids).logits
        )

    def test_warm_started_serving_end_to_end(self, tmp_path, small_model):
        rng = np.random.default_rng(23)
        tokens = [rng.integers(0, 40, size=6) for _ in range(4)]
        cold = ServingRuntime({"tiny": small_model}, plan_store=tmp_path, seed=7)
        for t in tokens:
            cold.submit("tiny", t)
        cold_reports = cold.run_pending()

        warm = ServingRuntime({"tiny": small_model}, plan_store=tmp_path, seed=7)
        for t in tokens:
            warm.submit("tiny", t)
        warm_reports = warm.run_pending()
        assert warm.engine_cache.stats().warm_starts == 1
        for cold_report, warm_report in zip(cold_reports, warm_reports, strict=True):
            assert np.array_equal(cold_report.result, warm_report.result)

    def test_variant_and_prepare_seconds_reflect_warm_start(
        self, tmp_path, small_model
    ):
        from repro.runtime import BatchKey

        ServingRuntime(
            {"tiny": small_model}, plan_store=tmp_path, seed=7
        ).engine_for("tiny", PRIMER_F)
        warm = ServingRuntime({"tiny": small_model}, plan_store=tmp_path, seed=7)
        warm.engine_for("tiny", PRIMER_F)
        entry = warm.engine_cache.entry(
            BatchKey(kind="inference", model="tiny", variant="primer-f")
        )
        assert entry.warm_start is True
        assert entry.prepare_seconds == 0.0
        assert entry.plan_bytes > 0
        assert entry.plan_bytes == entry.engine.offline_plan.approx_nbytes()

    def test_replaced_model_misses_the_store(self, tmp_path, small_model, other_model):
        runtime = ServingRuntime({"tiny": small_model}, plan_store=tmp_path, seed=7)
        runtime.engine_for("tiny")
        # Replacing the model changes the content fingerprint: the old plan
        # can never warm-start the new model.
        runtime.register_model("tiny", other_model)
        engine = runtime.engine_for("tiny")
        assert engine.model is other_model
        stats = runtime.engine_cache.stats()
        assert stats.cold_builds == 2 and stats.warm_starts == 0
        assert runtime.engine_cache.plan_store.entry_count() == 2

    def test_custom_backend_disables_persistence(self, tmp_path, small_model):
        """Backend-specific handles must not be revived across processes."""
        runtime = ServingRuntime(
            {"tiny": small_model},
            plan_store=tmp_path,
            backend_factory=lambda: SimulatedHEBackend(protocol_he_parameters()),
            seed=7,
        )
        runtime.engine_for("tiny")
        assert not runtime.engine_cache.persists_plans
        assert runtime.engine_cache.plan_store.entry_count() == 0

    def test_persistence_needs_a_store_on_the_default_backend(self, tmp_path, small_model):
        stored = ServingRuntime({"tiny": small_model}, plan_store=tmp_path)
        assert stored.engine_cache.persists_plans
        assert not ServingRuntime({"tiny": small_model}).engine_cache.persists_plans


class TestGarbageCollection:
    def test_entry_budget_prunes_oldest_first(self, tmp_path, small_model):
        """Over-budget stores evict by recency (mtime), never the new entry."""
        import os

        producer = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        plan = producer.prepare()
        store = PlanStore(tmp_path, max_entries=2)
        keys = [store.key_for(small_model, "primer-fpc", seed, 1) for seed in range(3)]
        for age, key in enumerate(keys):
            path = store.store(key, plan)
            # Separate the mtimes deterministically (same-second writes).
            os.utime(path, (path.stat().st_atime, 1_000_000 + age))
        assert store.entry_count() == 2
        assert not store.contains(keys[0])      # the oldest entry aged out
        assert store.contains(keys[1]) and store.contains(keys[2])
        assert store.stats().prunes == 1

    def test_byte_budget_and_protected_fresh_entry(self, tmp_path, small_model):
        """A single over-budget entry survives: evicting it would thrash."""
        producer = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        plan = producer.prepare()
        store = PlanStore(tmp_path, max_bytes=1)  # everything is over budget
        key = store.key_for(small_model, "primer-fpc", 17, 1)
        store.store(key, plan)
        assert store.contains(key)
        # The next store prunes the previous entry but protects itself.
        other = store.key_for(small_model, "primer-fpc", 18, 1)
        store.store(other, plan)
        assert store.contains(other) and not store.contains(key)

    def test_warm_start_still_hits_after_pruning_cold_entries(
        self, tmp_path, small_model, other_model, token_ids
    ):
        """The GC'd store keeps serving warm starts for the surviving plan."""
        import os

        store = PlanStore(tmp_path, max_entries=1)
        cold = ServingRuntime({"a": small_model, "b": other_model},
                              plan_store=store, seed=7)
        a_engine = cold.engine_for("a")
        # Age model a's entry so model b's build deterministically prunes it.
        a_path = store.path_for(
            store.key_for(small_model, "primer-fpc", 7, a_engine.slot_sharing)
        )
        os.utime(a_path, (a_path.stat().st_atime, 1_000_000))
        cold_engine = cold.engine_for("b")
        assert store.entry_count() == 1
        assert store.stats().prunes == 1

        warm = ServingRuntime({"a": small_model, "b": other_model},
                              plan_store=store, seed=7)
        warm_engine = warm.engine_for("b")       # survives the GC: warm start
        assert warm.engine_cache.stats().warm_starts == 1
        assert np.array_equal(
            warm_engine.run(token_ids).logits, cold_engine.run(token_ids).logits
        )
        warm.engine_for("a")                      # pruned: cold rebuild, no error
        assert warm.engine_cache.stats().cold_builds == 1

    def test_load_refreshes_recency(self, tmp_path, small_model):
        """A hit protects its entry from the next prune (LRU, not FIFO)."""
        import os

        producer = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        plan = producer.prepare()
        store = PlanStore(tmp_path, max_entries=2)
        first = store.key_for(small_model, "primer-fpc", 0, 1)
        second = store.key_for(small_model, "primer-fpc", 1, 1)
        for age, key in enumerate((first, second)):
            path = store.store(key, plan)
            os.utime(path, (path.stat().st_atime, 1_000_000 + age))
        assert store.load(first) is not None      # refreshes first's mtime
        third = store.key_for(small_model, "primer-fpc", 2, 1)
        store.store(third, plan)
        assert store.contains(first) and store.contains(third)
        assert not store.contains(second)         # now the LRU victim

    def test_stats_counters(self, tmp_path, small_model):
        producer = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        store = PlanStore(tmp_path)
        key = store.key_for(small_model, "primer-fpc", 17, 1)
        assert store.load(key) is None
        store.store(key, producer.prepare())
        assert store.load(key) is not None
        stats = store.stats()
        assert stats.entries == 1 and stats.total_bytes > 0
        assert stats.hits == 1 and stats.misses == 1
        assert stats.stores == 1 and stats.prunes == 0

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ProtocolError):
            PlanStore(tmp_path, max_entries=0)
        with pytest.raises(ProtocolError):
            PlanStore(tmp_path, max_bytes=0)


class TestPlanNbytes:
    def test_counts_the_arrays_a_plan_holds(self, small_model):
        engine = PrivateTransformerInference(small_model, PRIMER_FPC, seed=17)
        plan = engine.prepare()
        total = plan.approx_nbytes()
        assert total > 0
        # The embedding module's masks alone are a strict lower bound.
        embedding = plan.module("embedding")
        assert total > plan_nbytes(embedding) > 0
        # Shared arrays are only counted once.
        assert plan_nbytes([embedding, embedding]) == plan_nbytes(embedding)
