"""Fault-tolerant serving: deterministic injection, retry, degradation.

The acceptance bar from the issue: under a deterministic
:class:`~repro.runtime.faults.FaultPlan` injecting transient faults at every
registered site, all submitted requests either complete with logits
bit-identical to the fault-free run (retries) or fail with typed errors
carrying retry hints (shedding / quarantine) -- zero hangs, zero silently
dropped handles, verified by a conservation check
(``submitted == completed + typed-failed``).

Every recovery behaviour here is driven by *induced* failure through the
seeded injector (``REPRO_FAULT_SEED`` is matrixed in CI), never by mocks of
the recovery machinery itself.
"""

from __future__ import annotations

import re
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    EngineQuarantined,
    OverloadedError,
    ProtocolError,
    RequestFailed,
    ShapeError,
    ShutdownTimeout,
    TransientFault,
)
from repro.he import kernels, toy_parameters
from repro.he.ntt import get_ntt_context
from repro.nn import BERT_BASE, TransformerEncoder, scaled_config
from repro.protocols import PRIMER_FPC, PrivateTransformerInference
from repro.protocols.planstore import PlanStore
from repro.runtime import (
    ALL_SITES,
    AdmissionController,
    AsyncServingRuntime,
    BatchKey,
    BatchScheduler,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InferenceRequest,
    RetryPolicy,
    ServingRuntime,
    active_injector,
    fault_scope,
    faults,
)
from repro.runtime.faults import (
    SITE_ENGINE_BUILD,
    SITE_KERNEL_DISPATCH,
    SITE_ONLINE_EXECUTE,
    SITE_PLANSTORE_LOAD,
    SITE_PLANSTORE_STORE,
    fault_seed_from_env,
)
from repro.runtime.serving import summarize

SEED = fault_seed_from_env()


@pytest.fixture(autouse=True)
def _clean_slate():
    """No injector leaks between tests; kernel fallback pins are cleared."""
    assert active_injector() is None
    yield
    assert active_injector() is None
    kernels.clear_kernel_state()


@pytest.fixture(scope="module")
def small_model() -> TransformerEncoder:
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1
    )
    return TransformerEncoder.initialise(config, seed=3)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(29)
    return [rng.integers(0, 40, size=6) for _ in range(6)]


@pytest.fixture(scope="module")
def fault_free_logits(small_model, workload):
    """Logits of an injection-free serial pass, keyed by token payload."""
    runtime = ServingRuntime({"tiny": small_model}, max_batch_size=4, seed=21)
    ids = [runtime.submit("tiny", tokens) for tokens in workload]
    runtime.run_pending()
    return {
        tokens.tobytes(): runtime.result(rid).result
        for tokens, rid in zip(workload, ids, strict=True)
    }


def _door(small_model, **kwargs) -> AsyncServingRuntime:
    kwargs.setdefault("max_batch_size", 4)
    kwargs.setdefault("seed", 21)
    return AsyncServingRuntime({"tiny": small_model}, **kwargs)


def _request(rid: str = "r0", sequence: int = 0) -> InferenceRequest:
    return InferenceRequest(
        request_id=rid,
        key=BatchKey(kind="inference", model="tiny", variant=PRIMER_FPC.name),
        payload=np.zeros(6, dtype=np.int64),
        sequence=sequence,
    )


class TestFaultInjector:
    def test_rules_validate(self):
        with pytest.raises(ProtocolError):
            FaultRule(site="nonsite", fires=(1,))
        with pytest.raises(ProtocolError):
            FaultRule(site=SITE_ONLINE_EXECUTE, kind="explode", fires=(1,))
        with pytest.raises(ProtocolError):
            FaultRule(site=SITE_ONLINE_EXECUTE, rate=1.5)
        with pytest.raises(ProtocolError):
            FaultRule(site=SITE_ONLINE_EXECUTE)  # neither fires nor rate

    def test_registry_matches_the_documented_site_table(self):
        """``ALL_SITES`` and the module docstring's site table list the same
        sites in the same order; a retired site name is rejected like any
        other unknown one."""
        documented = re.findall(r"^``(\w+)``", faults.__doc__, flags=re.MULTILINE)
        assert tuple(documented) == ALL_SITES
        for retired in ("worker_shard", "offline_prepare"):
            with pytest.raises(ProtocolError, match="unknown fault site"):
                FaultRule(site=retired, fires=(1,))

    def test_occurrence_schedule_fires_exactly_as_listed(self):
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_ONLINE_EXECUTE, fires=(2, 4)),), seed=SEED
        )
        injector = FaultInjector(plan)
        outcomes = []
        for _ in range(5):
            try:
                injector.visit(SITE_ONLINE_EXECUTE)
                outcomes.append("ok")
            except TransientFault as fault:
                assert fault.site == SITE_ONLINE_EXECUTE
                assert fault.retryable
                outcomes.append("fault")
        assert outcomes == ["ok", "fault", "ok", "fault", "ok"]
        assert injector.occurrences(SITE_ONLINE_EXECUTE) == 5
        assert injector.fired_count(SITE_ONLINE_EXECUTE) == 2

    def test_seeded_rate_replays_identically(self):
        rule = FaultRule(site=SITE_KERNEL_DISPATCH, rate=0.4)

        def schedule(seed: int) -> list[bool]:
            injector = FaultInjector(FaultPlan(rules=(rule,), seed=seed))
            fired = []
            for _ in range(32):
                try:
                    injector.visit(SITE_KERNEL_DISPATCH)
                    fired.append(False)
                except TransientFault:
                    fired.append(True)
            return fired

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)  # the seed matters
        assert 0 < sum(schedule(11)) < 32  # a real Bernoulli schedule

    def test_max_fires_caps_a_rate_rule(self):
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_ONLINE_EXECUTE, rate=1.0, max_fires=2),),
            seed=SEED,
        )
        injector = FaultInjector(plan)
        faults = 0
        for _ in range(6):
            try:
                injector.visit(SITE_ONLINE_EXECUTE)
            except TransientFault:
                faults += 1
        assert faults == 2

    def test_corrupt_counters_are_independent_of_inject(self):
        plan = FaultPlan(
            rules=(
                FaultRule(site=SITE_PLANSTORE_LOAD, kind="corrupt", fires=(1,)),
                FaultRule(site=SITE_PLANSTORE_LOAD, fires=(99,)),
            ),
            seed=SEED,
        )
        injector = FaultInjector(plan)
        injector.visit(SITE_PLANSTORE_LOAD)  # inject occurrence 1: no fire
        assert injector.corrupt(SITE_PLANSTORE_LOAD, b"abc") == bytes(
            b ^ 0xFF for b in b"abc"
        )
        # corrupt occurrence 2: the rule fired once already, back to clean.
        assert injector.corrupt(SITE_PLANSTORE_LOAD, b"abc") == b"abc"
        assert injector.occurrences(SITE_PLANSTORE_LOAD, "inject") == 1
        assert injector.occurrences(SITE_PLANSTORE_LOAD, "corrupt") == 2

    def test_plain_exception_types_are_injectable(self):
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_PLANSTORE_LOAD, fires=(1,), error=OSError),),
            seed=SEED,
        )
        with pytest.raises(OSError):
            FaultInjector(plan).visit(SITE_PLANSTORE_LOAD)

    def test_delay_rule_sleeps_without_raising(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_ONLINE_EXECUTE, kind="delay", fires=(1,),
                    delay_seconds=0.05,
                ),
            ),
            seed=SEED,
        )
        injector = FaultInjector(plan)
        start = time.perf_counter()
        injector.visit(SITE_ONLINE_EXECUTE)
        assert time.perf_counter() - start >= 0.045
        assert injector.events()[0].kind == "delay"

    def test_fault_scope_restores_previous_injector(self):
        outer_plan = FaultPlan(
            rules=(FaultRule(site=SITE_ONLINE_EXECUTE, fires=(99,)),), seed=SEED
        )
        with fault_scope(outer_plan) as outer:
            assert active_injector() is outer
            with fault_scope(FaultPlan(rules=(), seed=SEED)) as inner:
                assert active_injector() is inner
            assert active_injector() is outer
        assert active_injector() is None
        with fault_scope(None) as none_scope:
            assert none_scope is None
            assert active_injector() is None

    def test_seed_comes_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "17")
        assert fault_seed_from_env() == 17
        assert RetryPolicy().seed == 17
        monkeypatch.setenv("REPRO_FAULT_SEED", "not-a-number")
        assert fault_seed_from_env(default=3) == 3

    def test_event_log_is_bounded_while_counters_stay_exact(self):
        """Regression: the process-global event log must not grow unbounded.

        Long-lived fleet replicas visit sites indefinitely; the log is a
        bounded replay window (``max_events``) but :meth:`fired_count` is
        counted separately and stays exact past the cap.
        """
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_ONLINE_EXECUTE, rate=1.0),), seed=SEED
        )
        injector = FaultInjector(plan, max_events=8)
        for index in range(50):
            with pytest.raises(TransientFault):
                injector.visit(SITE_ONLINE_EXECUTE, detail=f"v{index}")
        assert len(injector.events()) == 8
        # The retained window is the *most recent* firings, oldest first.
        assert [event.detail for event in injector.events()] == [
            f"v{i}" for i in range(42, 50)
        ]
        assert injector.fired_count() == 50
        assert injector.fired_count(SITE_ONLINE_EXECUTE) == 50
        assert injector.fired_count(SITE_KERNEL_DISPATCH) == 0
        with pytest.raises(ProtocolError):
            FaultInjector(plan, max_events=0)

    def test_event_log_is_thread_safe_under_concurrent_visits(self):
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_ONLINE_EXECUTE, rate=1.0),), seed=SEED
        )
        injector = FaultInjector(plan, max_events=16)
        per_thread, num_threads = 200, 8

        def hammer() -> None:
            for _ in range(per_thread):
                try:
                    injector.visit(SITE_ONLINE_EXECUTE)
                except TransientFault:
                    pass

        threads = [threading.Thread(target=hammer) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert injector.fired_count() == per_thread * num_threads
        assert injector.occurrences(SITE_ONLINE_EXECUTE) == per_thread * num_threads
        assert len(injector.events()) == 16


class TestCircuitBreaker:
    def test_full_cycle_closed_open_halfopen_closed(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_seconds=10.0, clock=lambda: clock[0]
        )
        assert breaker.allow() and breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.allow()  # one failure under the threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.retry_after_seconds() == pytest.approx(10.0)
        clock[0] = 10.5
        assert breaker.allow()  # the half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # only one probe in flight
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_probe_failure_reopens_immediately(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.retry_after_seconds() == pytest.approx(5.0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ProtocolError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ProtocolError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ProtocolError):
            RetryPolicy(timeout_seconds=0.0)

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.retryable(TransientFault("x"))
        assert not policy.retryable(ShapeError("x"))
        assert not policy.retryable(ValueError("x"))

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            backoff_seconds=0.01, backoff_multiplier=2.0, jitter=0.1, seed=5
        )
        for attempt in (1, 2, 3):
            base = 0.01 * 2.0 ** (attempt - 1)
            delay = policy.backoff_for("req-7", attempt)
            assert delay == policy.backoff_for("req-7", attempt)
            assert base * 0.9 <= delay <= base * 1.1
        # distinct requests de-synchronise (the point of the jitter)
        assert policy.backoff_for("req-7", 1) != policy.backoff_for("req-8", 1)

    def test_budget_is_shared_across_attempts(self):
        policy = RetryPolicy(timeout_seconds=1.0)
        assert policy.budget_remaining(submitted_at=0.0, now=0.4) == pytest.approx(0.6)
        assert policy.budget_remaining(submitted_at=0.0, now=1.2) < 0
        assert RetryPolicy().budget_remaining(0.0, 1e9) == float("inf")


class TestRetryPath:
    def test_transient_fault_retries_bit_identical(
        self, small_model, workload, fault_free_logits
    ):
        """One injected executor fault → the batch retries → identical logits."""
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_ONLINE_EXECUTE, fires=(1,)),), seed=SEED
        )
        with fault_scope(plan) as injector:
            with _door(
                small_model,
                retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=0.001),
            ) as door:
                handles = [door.submit("tiny", tokens) for tokens in workload]
                reports = [handle.result(timeout=120) for handle in handles]
        assert injector.fired_count(SITE_ONLINE_EXECUTE) == 1
        retried = [r for r in reports if r.retried]
        assert retried, "the injected fault must have forced at least one retry"
        for report in retried:
            assert report.attempts == 2
        for tokens, report in zip(workload, reports, strict=True):
            assert np.array_equal(report.result, fault_free_logits[tokens.tobytes()])
        stats = summarize(reports)
        assert stats.retried_requests == len(retried)
        assert stats.total_attempts == len(reports) + len(retried)

    def test_exhausted_attempts_fail_typed(self, small_model, workload):
        """A persistent fault fails the request with attempts == max_attempts."""
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_ONLINE_EXECUTE, rate=1.0),), seed=SEED
        )
        with fault_scope(plan):
            with _door(
                small_model,
                retry_policy=RetryPolicy(max_attempts=2, backoff_seconds=0.001),
            ) as door:
                handle = door.submit("tiny", workload[0])
                with pytest.raises(RequestFailed) as info:
                    handle.result(timeout=120)
        assert info.value.request_id == handle.request_id
        assert info.value.attempts == 2
        assert info.value.site == SITE_ONLINE_EXECUTE
        assert isinstance(info.value.__cause__, TransientFault)

    def test_non_retryable_errors_fail_fast(self, small_model, workload):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_ONLINE_EXECUTE, fires=(1,), error=ShapeError,
                    message="injected shape error",
                ),
            ),
            seed=SEED,
        )
        with fault_scope(plan):
            with _door(
                small_model,
                retry_policy=RetryPolicy(max_attempts=5, backoff_seconds=0.001),
            ) as door:
                handle = door.submit("tiny", workload[0])
                with pytest.raises(RequestFailed, match="injected shape error") as info:
                    handle.result(timeout=120)
        assert info.value.attempts == 1  # no retry was attempted

    def test_timeout_budget_fails_instead_of_retrying(self, small_model, workload):
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_ONLINE_EXECUTE, rate=1.0),), seed=SEED
        )
        policy = RetryPolicy(
            max_attempts=50, backoff_seconds=0.05, timeout_seconds=0.001
        )
        with fault_scope(plan):
            with _door(small_model, retry_policy=policy) as door:
                handle = door.submit("tiny", workload[0])
                with pytest.raises(RequestFailed) as info:
                    handle.result(timeout=120)
        # far fewer executions than max_attempts: the budget cut the retries
        assert info.value.attempts < 10


class TestAdmissionControl:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ProtocolError):
            AdmissionController(max_inflight_bytes=0)
        with pytest.raises(ProtocolError):
            AdmissionController(retry_after_seconds=-1.0)

    def test_queue_depth_watermark_sheds(self):
        admission = AdmissionController(max_queue_depth=2, retry_after_seconds=0.1)
        admission.admit(0, 10)
        admission.admit(1, 10)
        with pytest.raises(OverloadedError) as info:
            admission.admit(2, 10)
        assert info.value.retry_after_seconds > 0.1  # scaled by the overload
        assert admission.shed_count == 1
        assert admission.admitted_count == 2

    def test_inflight_bytes_watermark_and_release(self):
        admission = AdmissionController(max_inflight_bytes=100)
        admission.admit(0, 60)
        with pytest.raises(OverloadedError):
            admission.admit(0, 60)
        admission.release(60)
        admission.admit(0, 60)  # freed budget admits again
        assert admission.inflight_bytes == 60

    def test_shedding_at_the_door_preserves_served_order(
        self, small_model, workload, fault_free_logits
    ):
        """Admitted requests are served FIFO; shed ones fail typed at submit."""
        admission = AdmissionController(max_queue_depth=2)
        door = _door(small_model, max_batch_size=2, admission=admission)
        try:
            # Wedge the drain loop briefly so the queue genuinely fills.
            gate = threading.Event()
            original = door.runtime.executor.execute

            def gated(batch, **kwargs):
                gate.wait(timeout=30)
                return original(batch, **kwargs)

            door.runtime.executor.execute = gated
            admitted, shed = [], 0
            for tokens in workload:
                try:
                    admitted.append((tokens, door.submit("tiny", tokens)))
                except OverloadedError as overloaded:
                    assert overloaded.retry_after_seconds > 0
                    shed += 1
            gate.set()
            reports = [handle.result(timeout=120) for _, handle in admitted]
        finally:
            gate.set()
            door.runtime.executor.execute = original
            door.close()
        assert shed > 0 and len(admitted) + shed == len(workload)
        assert admission.shed_count == shed
        # FIFO per key: completion order equals admission order.
        assert [r.request_id for r in reports] == sorted(
            (r.request_id for r in reports), key=lambda rid: int(rid.split("-")[1])
        )
        for tokens, _ in admitted:
            assert tokens.tobytes() in fault_free_logits
        assert admission.inflight_bytes == 0  # everything released


class TestEngineQuarantine:
    def _runtime(self, small_model, clock) -> ServingRuntime:
        return ServingRuntime(
            {"tiny": small_model},
            max_batch_size=4,
            seed=21,
            breaker_threshold=2,
            breaker_cooldown_seconds=30.0,
            breaker_clock=lambda: clock[0],
        )

    def test_single_build_fault_rebuilds_in_place(self, small_model, workload):
        clock = [0.0]
        runtime = self._runtime(small_model, clock)
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_ENGINE_BUILD, fires=(1,)),), seed=SEED
        )
        with fault_scope(plan):
            rid = runtime.submit("tiny", workload[0])
            runtime.run_pending()
        assert runtime.result(rid).prediction is not None
        stats = runtime.executor.engines.stats()
        assert stats.build_failures == 1
        assert stats.cold_builds == 1
        assert stats.quarantine_rejections == 0

    def test_repeated_failures_quarantine_then_probe_recovers(
        self, small_model, workload, fault_free_logits
    ):
        clock = [0.0]
        runtime = self._runtime(small_model, clock)
        engines = runtime.executor.engines
        key = BatchKey(kind="inference", model="tiny", variant=PRIMER_FPC.name)
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_ENGINE_BUILD, fires=(1, 2)),), seed=SEED
        )
        with fault_scope(plan):
            # Build + in-place rebuild both fail: the breaker opens.
            with pytest.raises(TransientFault):
                engines.entry(key)
            # While open, builds are quarantined with a retry hint.
            with pytest.raises(EngineQuarantined) as info:
                engines.entry(key)
            assert info.value.retry_after_seconds == pytest.approx(30.0)
            # After the cooldown, the half-open probe build succeeds and
            # closes the breaker.
            clock[0] = 31.0
            entry = engines.entry(key)
        assert entry.engine is not None
        stats = engines.stats()
        assert stats.build_failures == 2
        assert stats.quarantine_rejections == 1
        assert stats.probe_builds == 1
        # The recovered engine serves bit-identical logits.
        rid = runtime.submit("tiny", workload[0])
        runtime.run_pending()
        assert np.array_equal(
            runtime.result(rid).result, fault_free_logits[workload[0].tobytes()]
        )

    def test_probe_failure_reopens_the_quarantine(self, small_model):
        clock = [0.0]
        runtime = self._runtime(small_model, clock)
        engines = runtime.executor.engines
        key = BatchKey(kind="inference", model="tiny", variant=PRIMER_FPC.name)
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_ENGINE_BUILD, fires=(1, 2, 3)),), seed=SEED
        )
        with fault_scope(plan):
            with pytest.raises(TransientFault):
                engines.entry(key)
            clock[0] = 31.0
            with pytest.raises(TransientFault):
                engines.entry(key)  # the probe build fails (occurrence 3)
            with pytest.raises(EngineQuarantined):
                engines.entry(key)  # ... and the breaker re-opened
        assert engines.stats().probe_builds == 1

    def test_build_failure_leaves_no_poisoned_entry_and_releases_lock(
        self, small_model, workload
    ):
        """Satellite: a failed build must not cache anything or wedge the
        per-key lock -- the next entry() builds cleanly."""
        clock = [0.0]
        runtime = self._runtime(small_model, clock)
        engines = runtime.executor.engines
        key = BatchKey(kind="inference", model="tiny", variant=PRIMER_FPC.name)
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_ENGINE_BUILD, fires=(1,), error=ProtocolError,
                    message="injected non-retryable build failure",
                ),
            ),
            seed=SEED,
        )
        with fault_scope(plan):
            with pytest.raises(ProtocolError, match="injected non-retryable"):
                engines.entry(key)
            assert engines.cached_keys() == []  # nothing poisoned
            entry = engines.entry(key)  # lock released, clean rebuild
        assert entry.engine is not None
        assert engines.cached_keys() == [key]


class TestPlanStoreFaults:
    @pytest.fixture()
    def plan(self, small_model):
        engine = PrivateTransformerInference(small_model, PRIMER_FPC, seed=21)
        return engine.prepare()

    @pytest.fixture()
    def store_and_key(self, tmp_path, small_model):
        store = PlanStore(tmp_path, io_error_disable_threshold=3)
        key = store.key_for(small_model, PRIMER_FPC.name, 21, 1)
        return store, key

    def test_transient_load_error_retries_and_hits(self, plan, store_and_key):
        store, key = store_and_key
        store.store(key, plan)
        rules = (
            FaultRule(site=SITE_PLANSTORE_LOAD, fires=(1,), error=OSError),
        )
        with fault_scope(FaultPlan(rules=rules, seed=SEED)):
            loaded = store.load(key)
        assert loaded is not None  # the in-line retry absorbed the fault
        stats = store.stats()
        assert stats.io_errors == 1
        assert stats.hits == 1
        assert stats.integrity_failures == 0

    def test_exhausted_load_retry_is_a_miss_that_keeps_the_file(
        self, plan, store_and_key
    ):
        store, key = store_and_key
        store.store(key, plan)
        rules = (
            FaultRule(site=SITE_PLANSTORE_LOAD, fires=(1, 2), error=OSError),
        )
        with fault_scope(FaultPlan(rules=rules, seed=SEED)):
            assert store.load(key) is None
        assert store.contains(key)  # transient: the entry survives
        stats = store.stats()
        assert stats.io_errors == 2
        assert stats.integrity_failures == 0
        assert not store.disabled
        assert store.load(key) is not None  # fine once the fault clears

    def test_corruption_is_an_integrity_failure_that_deletes(
        self, plan, store_and_key
    ):
        store, key = store_and_key
        store.store(key, plan)
        rules = (
            FaultRule(site=SITE_PLANSTORE_LOAD, kind="corrupt", fires=(1,)),
        )
        with fault_scope(FaultPlan(rules=rules, seed=SEED)):
            assert store.load(key) is None
        assert not store.contains(key)  # damaged entries are discarded
        stats = store.stats()
        assert stats.integrity_failures == 1
        assert stats.io_errors == 0

    def test_store_fault_is_swallowed_and_counted(self, plan, store_and_key):
        store, key = store_and_key
        rules = (
            FaultRule(site=SITE_PLANSTORE_STORE, fires=(1,), error=OSError),
        )
        with fault_scope(FaultPlan(rules=rules, seed=SEED)):
            store.store(key, plan)  # best-effort: no raise
        assert not store.contains(key)
        assert store.stats().io_errors == 1
        store.store(key, plan)
        assert store.contains(key)

    def test_consecutive_io_errors_disable_the_store(self, plan, tmp_path, small_model):
        store = PlanStore(tmp_path, io_error_disable_threshold=2)
        key = store.key_for(small_model, PRIMER_FPC.name, 21, 1)
        rules = (FaultRule(site=SITE_PLANSTORE_STORE, rate=1.0, error=OSError),)
        with fault_scope(FaultPlan(rules=rules, seed=SEED)):
            store.store(key, plan)
            assert not store.disabled
            store.store(key, plan)
            assert store.disabled
        # Disabled: stores no-op and loads miss, even without faults.
        store.store(key, plan)
        assert not store.contains(key)
        assert store.load(key) is None
        stats = store.stats()
        assert stats.disabled
        assert stats.io_errors == 2

    def test_a_successful_op_resets_the_consecutive_count(
        self, plan, tmp_path, small_model
    ):
        store = PlanStore(tmp_path, io_error_disable_threshold=2)
        key = store.key_for(small_model, PRIMER_FPC.name, 21, 1)
        rules = (
            FaultRule(site=SITE_PLANSTORE_STORE, fires=(1, 3), error=OSError),
        )
        with fault_scope(FaultPlan(rules=rules, seed=SEED)):
            store.store(key, plan)  # failure 1
            store.store(key, plan)  # success: the streak resets
            store.store(key, plan)  # failure 1 again -- not 2
        assert not store.disabled
        assert store.stats().io_errors == 2


class TestKernelFallback:
    class _FlakyTier(kernels.KernelTier):
        """Delegates to the reference tier (so fault injection alone fails it)."""

        name = "flaky-test-tier"

        def available(self) -> bool:
            return True

        def ntt_batch(self, ctx, arr, inverse):
            return kernels._TIERS["reference"].ntt_batch(ctx, arr, inverse)

        def stacked_ntt(self, contexts, polys, inverse):
            return kernels._TIERS["reference"].stacked_ntt(contexts, polys, inverse)

    @pytest.fixture()
    def flaky_tier(self):
        kernels._TIERS[self._FlakyTier.name] = self._FlakyTier()
        try:
            yield self._FlakyTier.name
        finally:
            kernels._TIERS.pop(self._FlakyTier.name, None)
            kernels.clear_kernel_state()

    def test_dispatch_fault_pins_reference_fallback(self, flaky_tier):
        params = toy_parameters(64)
        ctx = get_ntt_context(params.ring_degree, params.ciphertext_modulus)
        n, q = ctx.ring_degree, ctx.modulus
        rows = np.arange(2 * n, dtype=np.int64).reshape(2, n) % q
        expected = kernels._TIERS["reference"].ntt_batch(ctx, rows, False)
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_KERNEL_DISPATCH, fires=(1,)),), seed=SEED
        )
        with fault_scope(plan):
            with kernels.tier_scope(flaky_tier):
                out = kernels.ntt_batch(ctx, rows, inverse=False)
                # The faulted dispatch still returned the right answer...
                assert np.array_equal(out, expected)
                # ... and pinned the reference fallback for the rest of the
                # process (fallback wins over the scope).
                fallback = kernels.kernel_fallback()
                assert fallback is not None
                assert fallback[0] == flaky_tier
                assert "ntt_batch" in fallback[1]
                assert kernels.active_tier_name() == "reference"
        # The pin outlives the fault scope, until kernel state is cleared.
        assert kernels.active_tier_name() == "reference"
        kernels.clear_kernel_state()
        assert kernels.kernel_fallback() is None

    def test_reference_tier_faults_are_not_swallowed(self):
        params = toy_parameters(64)
        ctx = get_ntt_context(params.ring_degree, params.ciphertext_modulus)
        rows = np.zeros((1, ctx.ring_degree), dtype=np.int64)
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_KERNEL_DISPATCH, fires=(1,)),), seed=SEED
        )
        with fault_scope(plan):
            with kernels.tier_scope("reference"):
                with pytest.raises(TransientFault):
                    kernels.ntt_batch(ctx, rows, inverse=False)


class TestErrorPaths:
    def test_scheduler_submit_after_close_raises(self):
        scheduler = BatchScheduler(max_batch_size=2)
        scheduler.submit(_request("r0"))
        scheduler.close()
        assert scheduler.closed
        with pytest.raises(ProtocolError, match="closed"):
            scheduler.submit(_request("r1"))
        # The shutdown flush still works: queued batches keep forming and
        # retried requests may re-enter.
        batch = scheduler.next_batch()
        assert batch is not None and len(batch) == 1
        scheduler.requeue(batch.requests[0])
        assert scheduler.pending() == 1
        scheduler.close()  # idempotent

    def test_fail_batch_marks_every_handle_exactly_once(self, small_model, workload):
        """Satellite: `_fail_batch` resolves each handle once; a second pass
        over the same requests is a no-op (futures already popped)."""
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site=SITE_ONLINE_EXECUTE, fires=(1,), error=ProtocolError,
                    message="injected batch failure",
                ),
            ),
            seed=SEED,
        )
        with fault_scope(plan):
            with _door(small_model, max_batch_size=4) as door:
                handles = [door.submit("tiny", tokens) for tokens in workload[:3]]
                failures = []
                for handle in handles:
                    with pytest.raises(RequestFailed, match="injected batch failure"):
                        handle.result(timeout=120)
                    failures.append(handle.exception(timeout=1))
                assert all(isinstance(f, RequestFailed) for f in failures)
                assert door.inflight_count() == 0
                # Exactly once: re-failing the same (already popped) requests
                # must not touch the resolved futures.
                requests = [_request(h.request_id) for h in handles]
                door._fail_requests(requests, ProtocolError("second pass"))
                for handle, failure in zip(handles, failures, strict=True):
                    assert handle.exception(timeout=1) is failure

    def test_close_timeout_raises_shutdown_timeout_with_outstanding_ids(
        self, small_model, workload
    ):
        door = _door(small_model)
        gate = threading.Event()
        original = door.runtime.executor.execute

        def wedged(batch, **kwargs):
            gate.wait(timeout=60)
            return original(batch, **kwargs)

        door.runtime.executor.execute = wedged
        try:
            handle = door.submit("tiny", workload[0])
            time.sleep(0.1)  # let the drain loop pick the batch up and wedge
            with pytest.raises(ShutdownTimeout) as info:
                door.close(timeout=0.3)
            assert handle.request_id in info.value.outstanding
            # The handle failed (not abandoned): result() raises immediately.
            with pytest.raises(ShutdownTimeout):
                handle.result(timeout=1)
        finally:
            gate.set()
            door.runtime.executor.execute = original
            door._thread.join(timeout=60)


class TestConservationUnderFaultsEverywhere:
    def test_all_sites_faulted_every_request_accounted(
        self, small_model, workload, fault_free_logits, tmp_path
    ):
        """The issue's acceptance check: transient faults scheduled at every
        registered site; every submitted request either completes with
        fault-free logits or fails typed -- and the counts conserve."""
        rules = tuple(
            FaultRule(site=site, rate=0.25, max_fires=2) for site in ALL_SITES
        )
        plan = FaultPlan(rules=rules, seed=SEED)
        admission = AdmissionController(max_queue_depth=64)
        completed, failed = [], []
        with fault_scope(plan) as injector:
            with _door(
                small_model,
                retry_policy=RetryPolicy(max_attempts=4, backoff_seconds=0.001),
                admission=admission,
                plan_store=PlanStore(tmp_path),
            ) as door:
                handles = [door.submit("tiny", tokens) for tokens in workload]
            # close() returned: zero hangs -- every handle must be resolved.
            for tokens, handle in zip(workload, handles, strict=True):
                assert handle.done(), f"{handle.request_id} was dropped"
                error = handle.exception(timeout=1)
                if error is None:
                    completed.append((tokens, handle.result(timeout=1)))
                else:
                    failed.append(error)
            # Conservation: submitted == completed + typed-failed.
            assert len(completed) + len(failed) == len(handles)
            for error in failed:
                assert isinstance(error, RequestFailed)
                assert error.attempts >= 1
                cause = error.__cause__
                assert isinstance(cause, Exception)
                if isinstance(cause, EngineQuarantined):
                    assert cause.retry_after_seconds >= 0.0
            for tokens, report in completed:
                assert np.array_equal(
                    report.result, fault_free_logits[tokens.tobytes()]
                )
        assert injector.fired_count() > 0, "the plan must have actually fired"
        assert admission.inflight_bytes == 0
