"""Concurrent cache/queue lifecycle regressions.

Covers the two races the async front door exposed, plus the bounded-cache
behaviour:

* ``EngineCache.invalidate_model`` vs an in-flight ``entry()`` build -- the
  build used to re-insert a stale-model engine after the
  invalidation returned; the per-key generation fence now discards it and
  rebuilds against the current model.
* ``BatchScheduler.submit`` vs a concurrent drain -- ``next_batch`` rebinds
  the queue deque, and an unlocked submit could append to the abandoned
  deque and vanish.
* LRU eviction: entry/byte budgets, recency order, and eviction while a
  batch is still executing on the evicted engine.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.nn import BERT_BASE, TransformerEncoder, scaled_config
from repro.protocols import PrivateTransformerInference
from repro.runtime import (
    BatchKey,
    BatchScheduler,
    InferenceRequest,
    ServingRuntime,
    run_sequential_baseline,
)

FPC = "primer-fpc"


def _small_model(seed: int) -> TransformerEncoder:
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1
    )
    return TransformerEncoder.initialise(config, seed=seed)


@pytest.fixture(scope="module")
def model_a() -> TransformerEncoder:
    return _small_model(3)


@pytest.fixture(scope="module")
def model_b() -> TransformerEncoder:
    return _small_model(8)


class TestInvalidateVersusInflightBuild:
    def test_invalidate_fences_an_inflight_build(self, model_a, model_b, monkeypatch):
        """Regression: a build started before ``invalidate_model`` must not
        re-insert the replaced model's engine after the invalidation."""
        runtime = ServingRuntime({"m": model_a}, seed=5)
        cache = runtime.engine_cache
        key = BatchKey(kind="inference", model="m", variant=FPC)

        build_started = threading.Event()
        release_build = threading.Event()
        original_prepare = PrivateTransformerInference.prepare

        def gated_prepare(engine):
            build_started.set()
            assert release_build.wait(timeout=30)
            return original_prepare(engine)

        monkeypatch.setattr(PrivateTransformerInference, "prepare", gated_prepare)

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(cache.entry, key)
            assert build_started.wait(timeout=30)
            # The build is paused inside the old model's offline phase.
            # Replace the model -- this invalidates, bumping the key's
            # generation -- and only then let the build finish.
            runtime.register_model("m", model_b)
            release_build.set()
            entry = future.result(timeout=120)

        # The stale build was fenced off and re-run: both the returned
        # entry and the cached one serve the *new* model.
        assert entry.engine.model is model_b
        assert cache.entry(key).engine.model is model_b
        assert cache.entry(key) is entry

    def test_invalidation_drops_cached_engines(self, model_a, model_b):
        runtime = ServingRuntime({"m": model_a}, seed=5)
        runtime.engine_for("m")
        assert runtime.engine_cache.stats().entries == 1
        runtime.register_model("m", model_b)
        stats = runtime.engine_cache.stats()
        assert stats.entries == 0
        assert stats.invalidations == 1

    def test_concurrent_misses_on_one_key_build_once(self, model_a, monkeypatch):
        """Two threads missing on the same key share one build: the second
        waits on the key lock and is served the first thread's engine."""
        runtime = ServingRuntime({"m": model_a}, seed=5)
        cache = runtime.engine_cache
        key = BatchKey(kind="inference", model="m", variant=FPC)

        prepares = []
        build_started = threading.Event()
        release_build = threading.Event()
        original_prepare = PrivateTransformerInference.prepare

        def gated_prepare(engine):
            prepares.append(engine)
            build_started.set()
            assert release_build.wait(timeout=30)
            return original_prepare(engine)

        monkeypatch.setattr(PrivateTransformerInference, "prepare", gated_prepare)

        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(cache.entry, key)
            assert build_started.wait(timeout=30)
            second = pool.submit(cache.entry, key)
            # Let the second caller reach the key lock while the first
            # build is still paused.
            time.sleep(0.05)
            release_build.set()
            entries = [first.result(timeout=120), second.result(timeout=120)]

        assert entries[0] is entries[1]
        assert len(prepares) == 1
        stats = cache.stats()
        assert stats.cold_builds == 1 and stats.warm_starts == 0
        assert stats.entries == 1

    def test_fenced_build_does_not_poison_the_plan_store(
        self, tmp_path, model_a, model_b, monkeypatch
    ):
        """Regression: a build fenced off by ``invalidate_model`` must not
        leave a plan that a later warm start for the new model picks up --
        the forced rebuild (and any future process) would then serve the
        replaced model's logits."""
        rng = np.random.default_rng(17)
        tokens = rng.integers(0, 40, size=6)
        runtime = ServingRuntime({"m": model_a}, plan_store=tmp_path, seed=5)
        cache = runtime.engine_cache
        key = BatchKey(kind="inference", model="m", variant=FPC)

        # Freeze the build inside model_a's offline phase, swap the model,
        # then let the stale build finish.
        build_started = threading.Event()
        release_build = threading.Event()
        original_prepare = PrivateTransformerInference.prepare

        def gated_prepare(engine):
            if engine.model is model_a:
                build_started.set()
                assert release_build.wait(timeout=30)
            return original_prepare(engine)

        monkeypatch.setattr(PrivateTransformerInference, "prepare", gated_prepare)
        with ThreadPoolExecutor(max_workers=1) as pool:
            build = pool.submit(cache.entry, key)
            assert build_started.wait(timeout=30)
            runtime.register_model("m", model_b)
            release_build.set()
            entry = build.result(timeout=120)
        assert entry.engine.model is model_b
        # The fenced build persisted nothing; only model_b's plan is stored.
        assert cache.plan_store.stats().entries == 1

        # The gold assertion: a fresh process warm-starting for model_b
        # must serve model_b's logits, not model_a's.
        fresh = ServingRuntime({"m": model_b}, plan_store=tmp_path, seed=5)
        engine = fresh.engine_for("m")
        expected, _ = run_sequential_baseline(model_b, [tokens])
        assert np.array_equal(engine.run(tokens).logits, expected[0])


class TestBoundedEngineCache:
    def test_lru_eviction_order_respects_recency(self, model_a):
        models = {name: model_a for name in ("a", "b", "c")}
        runtime = ServingRuntime(models, engine_cache_entries=2, seed=5)
        cache = runtime.engine_cache

        def key(name: str) -> BatchKey:
            return BatchKey(kind="inference", model=name, variant=FPC)

        runtime.engine_for("a")
        runtime.engine_for("b")
        cache.entry(key("a"))  # touch: "a" becomes most recent
        runtime.engine_for("c")  # over budget: evicts "b", the LRU entry
        assert [k.model for k in cache.cached_keys()] == ["a", "c"]
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.evictions == 1

    def test_byte_budget_evicts_but_keeps_the_newest_entry(self, model_a):
        # 1-byte budget: every entry is over budget, but the just-inserted
        # engine is never evicted (the cache must not thrash on one key).
        runtime = ServingRuntime(
            {"a": model_a, "b": model_a}, engine_cache_bytes=1, seed=5
        )
        cache = runtime.engine_cache
        runtime.engine_for("a")
        assert [k.model for k in cache.cached_keys()] == ["a"]
        runtime.engine_for("b")
        assert [k.model for k in cache.cached_keys()] == ["b"]
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.plan_bytes > 0  # the surviving entry's weight

    def test_degenerate_budgets_rejected(self, model_a):
        with pytest.raises(ProtocolError):
            ServingRuntime({"a": model_a}, engine_cache_entries=0)
        with pytest.raises(ProtocolError):
            ServingRuntime({"a": model_a}, engine_cache_bytes=0)

    def test_eviction_while_a_batch_is_executing(self, model_a, model_b, monkeypatch):
        """Evicting an engine mid-batch only drops the cache's reference:
        the executing batch finishes correctly on its own reference and the
        next request rebuilds the engine."""
        rng = np.random.default_rng(11)
        tokens = rng.integers(0, 40, size=6)
        runtime = ServingRuntime(
            {"a": model_a, "b": model_b}, engine_cache_entries=1, seed=5
        )
        cache = runtime.engine_cache
        key_a = BatchKey(kind="inference", model="a", variant=FPC)

        executing = threading.Event()
        evicted = threading.Event()
        original_run_batch = PrivateTransformerInference.run_batch

        def gated_run_batch(engine, payloads):
            executing.set()
            assert evicted.wait(timeout=30)
            return original_run_batch(engine, payloads)

        monkeypatch.setattr(PrivateTransformerInference, "run_batch", gated_run_batch)

        request_id = runtime.submit("a", tokens)
        drain: list = []
        thread = threading.Thread(target=lambda: drain.extend(runtime.run_pending()))
        thread.start()
        assert executing.wait(timeout=60)
        # While "a"'s batch is executing, building "b" under the 1-entry
        # budget evicts "a" out from under it.
        cache.entry(BatchKey(kind="inference", model="b", variant=FPC))
        assert [k.model for k in cache.cached_keys()] == ["b"]
        evicted.set()
        thread.join(timeout=120)
        assert not thread.is_alive()

        assert len(drain) == 1
        expected, _ = run_sequential_baseline(model_a, [tokens])
        assert np.array_equal(runtime.result(request_id).result, expected[0])
        # The next request for "a" rebuilds transparently.
        evicted.set()  # keep the gate open for the rebuild's run
        runtime.submit("a", tokens)
        rebuilt = runtime.run_pending()
        assert np.array_equal(rebuilt[0].result, expected[0])
        assert cache.stats().evictions >= 2  # "a" evicted, then "b"

    def test_explicit_evict(self, model_a):
        runtime = ServingRuntime({"a": model_a}, seed=5)
        key = BatchKey(kind="inference", model="a", variant=FPC)
        runtime.engine_for("a")
        assert runtime.engine_cache.evict(key) is True
        assert runtime.engine_cache.evict(key) is False
        assert runtime.engine_cache.cached_keys() == []


class TestSchedulerQueueLock:
    def test_concurrent_submit_is_never_dropped(self):
        """Regression: submits racing ``next_batch`` used to land in the
        abandoned queue deque and vanish from all accounting."""
        scheduler = BatchScheduler(max_batch_size=3)
        key = BatchKey(kind="inference", model="m", variant=FPC)
        drained: list[str] = []
        stop = threading.Event()

        def drain_loop() -> None:
            while not stop.is_set() or scheduler.pending():
                batch = scheduler.next_batch()
                if batch is None:
                    time.sleep(0.0002)
                else:
                    drained.extend(r.request_id for r in batch.requests)

        drainer = threading.Thread(target=drain_loop)
        drainer.start()

        per_thread = 400
        prefixes = ("a", "b", "c", "d")

        def submitter(prefix: str) -> None:
            for index in range(per_thread):
                scheduler.submit(
                    InferenceRequest(
                        request_id=f"{prefix}{index}", key=key, payload=None
                    )
                )

        threads = [
            threading.Thread(target=submitter, args=(prefix,)) for prefix in prefixes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        drainer.join(timeout=60)
        assert not drainer.is_alive()

        expected = {f"{p}{i}" for p in prefixes for i in range(per_thread)}
        assert scheduler.pending() == 0
        assert len(drained) == len(expected)  # nothing dropped or duplicated
        assert set(drained) == expected

    def test_submit_during_drain_is_accounted(self, model_a):
        """A submit racing ``run_pending`` either joins that drain or stays
        queued for the next one -- it never disappears."""
        rng = np.random.default_rng(2)
        runtime = ServingRuntime({"a": model_a}, seed=5)
        runtime.engine_for("a")  # keep the drain window tight
        first = runtime.submit("a", rng.integers(0, 40, size=6))

        late_ids: list[str] = []

        def late_submitter() -> None:
            for _ in range(3):
                late_ids.append(runtime.submit("a", rng.integers(0, 40, size=6)))

        thread = threading.Thread(target=late_submitter)
        thread.start()
        reports = runtime.run_pending()
        thread.join(timeout=60)

        drained_ids = {r.request_id for r in reports}
        assert first in drained_ids
        # Conservation: every late submit is either in this drain's reports
        # or still pending -- dropped-from-both is the bug this guards.
        assert runtime.scheduler.pending() == len(set(late_ids) - drained_ids)
        leftover = runtime.run_pending()
        assert drained_ids | {r.request_id for r in leftover} == {first, *late_ids}
