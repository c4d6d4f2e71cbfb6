"""Execution engine behind the batch-serving runtime.

This module is the execution half of what used to be the ``serving.py``
monolith, split along the paper's own offline/online axis:

* :class:`EngineCache` -- one prepared
  :class:`~repro.protocols.primer.PrivateTransformerInference` engine per
  ``(model, variant)`` key.  Engines are built through the explicit
  ``prepare()`` → :class:`~repro.protocols.plan.OfflinePlan` → ``install()``
  split, so the whole offline phase is one artifact that the persistent
  plan store can keep across processes.
* :class:`LinearServingPath` -- the shared backend, channel and cached
  NTT-form diagonal plans of the slot-sharing linear path.
* :class:`BatchExecutor` -- runs one batch (full-inference or shared-slot
  linear) with per-request channel/tracker attribution.
  ``ServingRuntime.run_pending()`` and the async front door's drain loop
  both execute through it batch by batch.  Process-level parallelism is
  the replica fleet's job (:mod:`repro.runtime.fleet`), one runtime per
  process.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from ..errors import EngineQuarantined, ProtocolError, ShapeError
from ..he.backend import HEBackend
from ..he.bsgs import BSGSMatmulPlan, bsgs_geometry, prepare_bsgs_plan
from ..he.matmul import bsgs_kernel_fits, encrypted_batch_matmul
from ..he.simulated import SimulatedHEBackend
from ..nn.transformer import TransformerEncoder
from ..protocols.channel import Channel, NetworkModel, Phase
from ..protocols.formats import protocol_he_parameters
from ..protocols.planstore import PlanStore
from ..protocols.primer import PrimerVariant, PrivateTransformerInference
from .faults import SITE_ENGINE_BUILD, SITE_ONLINE_EXECUTE, CircuitBreaker, maybe_inject
from .scheduler import Batch, BatchKey, InferenceRequest

__all__ = [
    "RequestReport",
    "EngineEntry",
    "EngineCache",
    "EngineCacheStats",
    "LinearServingPath",
    "BatchExecutor",
    "STEP_LINEAR",
]

#: step label used for the linear serving path's wire accounting
STEP_LINEAR = "linear_serving"

#: bound on cached NTT-form BSGS plans in :class:`LinearServingPath` -- one
#: per (bank, chunk geometry); enough for every steady-state workload mix
#: while keeping a long-lived server's pre-transformed masks finite.
_BSGS_PLAN_CACHE_SIZE = 32


@dataclass
class RequestReport:
    """Per-request outcome with latency and communication breakdowns."""

    request_id: str
    kind: str
    model: str
    variant: str
    batch_id: int
    batch_size: int
    result: np.ndarray
    prediction: int | None
    queue_seconds: float
    latency_seconds: float
    online_bytes: int
    online_rounds: int
    offline_bytes: int
    he_operations: dict[str, int]
    #: slot-sharing groups (linear chunks, FHGS-shared inference batches)
    #: execute as one unit, so ``he_operations`` / ``latency_seconds`` are
    #: joint figures for the whole group, not per-request sums -- every
    #: request in the group genuinely completes at the same instant, which
    #: is why latency percentiles over one such batch coincide.
    shared_slot_batch: bool = False
    #: where the batch ran, set by the replica fleet ("replica-0:drain",
    #: "local"); None for an in-process drain
    worker: str | None = None
    #: absolute completion target and whether it was met (None = no deadline)
    deadline: float | None = None
    deadline_met: bool | None = None
    #: executions this request took (>1 only after transient-fault retries)
    attempts: int = 1
    #: whether the request succeeded only after at least one retry
    retried: bool = False

    def summary(self) -> dict[str, float | int | str]:
        return {
            "request": self.request_id,
            "model": self.model,
            "variant": self.variant,
            "batch": self.batch_id,
            "batch_size": self.batch_size,
            "latency_ms": self.latency_seconds * 1e3,
            "queue_ms": self.queue_seconds * 1e3,
            "online_kilobytes": self.online_bytes / 1e3,
            "he_operations": sum(self.he_operations.values()),
        }


@dataclass
class EngineEntry:
    """A cached engine plus how long its offline plan took to produce."""

    engine: PrivateTransformerInference
    build_seconds: float
    prepare_seconds: float
    #: approximate footprint of the engine's offline plan (the eviction
    #: budget's weight for this entry)
    plan_bytes: int = 0
    #: True when the offline phase was skipped entirely because the plan
    #: came out of the persistent :class:`~repro.protocols.planstore.PlanStore`
    warm_start: bool = False


@dataclass(frozen=True)
class EngineCacheStats:
    """Point-in-time counters of the engine cache's lifecycle activity.

    ``warm_starts + cold_builds`` equals the total number of engine
    builds: warm starts installed a plan from the persistent store, cold
    builds ran the offline phase locally.

    The fault-tolerance counters track the degradation ladder:
    ``build_failures`` counts failed build attempts (each feeds the key's
    circuit breaker), ``quarantine_rejections`` counts requests refused
    while a key's breaker was open, and ``probe_builds`` counts half-open
    probe builds after the cooldown.
    """

    entries: int
    plan_bytes: int
    evictions: int
    invalidations: int
    warm_starts: int
    cold_builds: int
    build_failures: int = 0
    quarantine_rejections: int = 0
    probe_builds: int = 0


class EngineCache:
    """Bounded prepared-engine cache keyed by ``(model, variant)``.

    Construction goes through the explicit plan split -- ``prepare()``
    produces the :class:`~repro.protocols.plan.OfflinePlan`, ``install()``
    adopts it -- and is guarded per key, so two threads missing on the same
    key (the front door's drain loop and an ``engine_for`` caller, say)
    cannot build the same engine twice.

    Three lifecycle mechanisms compose on top of that:

    * **Plan persistence** -- with a :class:`PlanStore`, a cold build first
      tries to *warm-start* from a stored plan (the whole offline HE
      exchange is skipped; the tracker records zero offline operations) and
      persists freshly prepared plans for the next process.
    * **LRU eviction** -- ``max_entries`` / ``max_bytes`` bound the cache;
      inserting over budget evicts least-recently-used entries.  Eviction
      only drops the cache's reference: a batch already executing on an
      evicted engine finishes unharmed, and the next request rebuilds (or
      warm-starts) the engine.
    * **Generation fencing** -- every build snapshots a per-key generation
      counter and re-checks it at insert time, so a build that was in
      flight when :meth:`invalidate_model` ran discards its stale engine
      and rebuilds against the current model instead of silently
      re-inserting weights that were replaced under it.
    """

    def __init__(
        self,
        models: dict[str, TransformerEncoder],
        variants: dict[str, PrimerVariant],
        backend_factory: Callable[[], HEBackend] | None,
        seed: int,
        network: NetworkModel | None = None,
        slot_sharing: int = 1,
        plan_store: PlanStore | None = None,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        breaker_threshold: int = 2,
        breaker_cooldown_seconds: float = 30.0,
        breaker_clock: Callable[[], float] | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ProtocolError("max_entries must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise ProtocolError("max_bytes must be positive")
        self._models = models
        self._variants = variants
        self._backend_factory = backend_factory
        self._seed = seed
        self._network = network
        self._slot_sharing = max(1, slot_sharing)
        self._plan_store = plan_store
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        #: insertion/recency-ordered: the first entry is the eviction victim
        self._entries: OrderedDict[BatchKey, EngineEntry] = OrderedDict()  # guarded_by: _mutex
        self._locks: dict[BatchKey, threading.Lock] = {}  # guarded_by: _mutex
        self._generations: dict[BatchKey, int] = {}  # guarded_by: _mutex
        self._plan_bytes = 0  # guarded_by: _mutex
        self._evictions = 0  # guarded_by: _mutex
        self._invalidations = 0  # guarded_by: _mutex
        self._warm_starts = 0  # guarded_by: _mutex
        self._cold_builds = 0  # guarded_by: _mutex
        self._build_failures = 0  # guarded_by: _mutex
        self._quarantine_rejections = 0  # guarded_by: _mutex
        self._probe_builds = 0  # guarded_by: _mutex
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown_seconds
        self._breaker_clock = breaker_clock if breaker_clock is not None else time.monotonic
        self._breakers: dict[BatchKey, CircuitBreaker] = {}  # guarded_by: _mutex
        self._mutex = threading.Lock()

    @property
    def persists_plans(self) -> bool:
        """Whether builds may use the plan store: only on the default backend.

        A custom ``backend_factory`` may produce handles a revived plan
        cannot serve, so those builds stay cold.
        """
        return self._plan_store is not None and self._backend_factory is None

    @property
    def plan_store(self) -> PlanStore | None:
        return self._plan_store

    def _key_lock(self, key: BatchKey) -> threading.Lock:
        with self._mutex:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            return lock

    def breaker_for(self, key: BatchKey) -> CircuitBreaker:
        """The circuit breaker guarding ``key``'s engine builds."""
        with self._mutex:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = self._breakers[key] = CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    cooldown_seconds=self._breaker_cooldown,
                    clock=self._breaker_clock,
                )
            return breaker

    def entry(self, key: BatchKey) -> EngineEntry:
        """The cached entry for ``key``, building (prepare+install) if needed.

        A build whose model was invalidated mid-flight is discarded and
        re-run against the current model (see the class docstring).

        Builds are circuit-broken per key: a transient build fault is
        retried once in place; repeated failures open the breaker and
        :class:`~repro.errors.EngineQuarantined` (with a retry hint) is
        raised until the cooldown admits a half-open probe build.
        """
        with self._key_lock(key):
            while True:
                with self._mutex:
                    entry = self._entries.get(key)
                    if entry is not None:
                        self._entries.move_to_end(key)
                        return entry
                    generation = self._generations.setdefault(key, 0)
                entry = self._guarded_build(key, generation)
                if self._insert(key, generation, entry):
                    return entry
                # invalidate_model ran while this build was in flight: the
                # engine embeds the replaced model's weights.  Loop and
                # rebuild against the model registered *now*.

    def _guarded_build(self, key: BatchKey, generation: int) -> EngineEntry:
        """One breaker-guarded build attempt chain for ``key``.

        Degradation rungs, in order: an open breaker rejects with
        :class:`~repro.errors.EngineQuarantined`; a retryable build fault
        gets exactly one in-place rebuild; any further failure records into
        the breaker (opening it at the threshold) and propagates.
        """
        breaker = self.breaker_for(key)
        if not breaker.allow():
            with self._mutex:
                self._quarantine_rejections += 1
            raise EngineQuarantined(
                f"engine builds for ({key.model!r}, {key.variant!r}) are "
                f"quarantined after repeated build failures",
                retry_after_seconds=breaker.retry_after_seconds(),
            )
        if breaker.state == CircuitBreaker.HALF_OPEN:
            with self._mutex:
                self._probe_builds += 1
        try:
            entry = self._build(key, generation)
        except Exception as first:  # noqa: BLE001 - classified below
            breaker.record_failure()
            with self._mutex:
                self._build_failures += 1
            if not getattr(first, "retryable", False) or not breaker.allow():
                raise
            try:
                entry = self._build(key, generation)
            except Exception:
                breaker.record_failure()
                with self._mutex:
                    self._build_failures += 1
                raise
        breaker.record_success()
        return entry

    def _insert(self, key: BatchKey, generation: int, entry: EngineEntry) -> bool:
        """Insert a finished build unless its generation was fenced off."""
        with self._mutex:
            if self._generations.get(key, 0) != generation:
                return False
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._plan_bytes += entry.plan_bytes
            self._evict_over_budget_locked(protect=key)
            return True

    def _evict_over_budget_locked(self, protect: BatchKey) -> None:
        """Evict LRU entries until the budgets hold (``protect`` stays).

        The just-inserted entry is never the victim -- even if it alone
        exceeds ``max_bytes`` -- because evicting it would make the cache
        thrash on every request for that key.
        """
        def over_budget() -> bool:
            if self._max_entries is not None and len(self._entries) > self._max_entries:
                return True
            if self._max_bytes is not None and self._plan_bytes > self._max_bytes:
                return True
            return False

        while over_budget():
            victim = next(iter(self._entries))
            if victim == protect:
                break
            self._remove_locked(victim)
            self._evictions += 1

    def _remove_locked(self, key: BatchKey) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._plan_bytes -= entry.plan_bytes

    def _engine_skeleton(self, key: BatchKey) -> PrivateTransformerInference:
        if key.model not in self._models:
            raise ProtocolError(f"unknown model {key.model!r}")
        model = self._models[key.model]
        variant = self._variants[key.variant]
        backend = self._backend_factory() if self._backend_factory else None
        return PrivateTransformerInference(
            model, variant, backend=backend, seed=self._seed,
            network=self._network, slot_sharing=self._slot_sharing,
        )

    def _store_key(self, key: BatchKey, engine: PrivateTransformerInference):
        """The plan-store key of ``key``'s build, or None when persistence is off.

        Persistence is gated by :attr:`persists_plans`.  The key fingerprints the
        *engine's own* model -- not whatever ``self._models`` currently maps
        the name to, which a concurrent ``register_model`` may have
        replaced mid-build -- and uses the *effective* slot sharing the
        engine clamped to (plans prepared at different sharing levels pack
        different tilings).
        """
        if not self.persists_plans:
            return None
        return self._plan_store.key_for(
            engine.model, key.variant, self._seed, engine.slot_sharing
        )

    def _persist_plan(self, key: BatchKey, generation: int, store_key, plan) -> None:
        """Write ``plan`` to the store unless the build was fenced off.

        If ``invalidate_model`` ran since this build snapshotted its
        generation, the plan was prepared from the replaced model --
        persisting it would poison the store and let the forced rebuild
        warm-start from exactly the stale plan the fence rejected.
        """
        if store_key is None:
            return
        with self._mutex:
            if self._generations.get(key, 0) != generation:
                return
        self._plan_store.store(store_key, plan)

    def _build(self, key: BatchKey, generation: int) -> EngineEntry:
        maybe_inject(SITE_ENGINE_BUILD, f"{key.model}/{key.variant}")
        start = time.perf_counter()
        engine = self._engine_skeleton(key)
        store_key = self._store_key(key, engine)
        plan = None
        if store_key is not None:
            plan = self._plan_store.load(store_key)
            if plan is not None:
                try:
                    engine.install(plan)
                except (ProtocolError, ShapeError):
                    # A stored plan that no longer fits this engine (e.g.
                    # produced by an older layout of the same fingerprint)
                    # is just a miss; fall through to the cold build.
                    plan = None
        warm = plan is not None
        prepare_seconds = 0.0
        if not warm:
            prepare_start = time.perf_counter()
            plan = engine.prepare()
            engine.install(plan)
            prepare_seconds = time.perf_counter() - prepare_start
            self._persist_plan(key, generation, store_key, plan)
        end = time.perf_counter()
        with self._mutex:
            if warm:
                self._warm_starts += 1
            else:
                self._cold_builds += 1
        return EngineEntry(
            engine=engine,
            build_seconds=end - start,
            prepare_seconds=prepare_seconds,
            plan_bytes=plan.approx_nbytes(),
            warm_start=warm,
        )

    def invalidate_model(self, name: str) -> None:
        """Drop cached engines built for an older model under ``name``.

        Builds *currently in flight* are fenced by bumping the per-key
        generation: their insert is rejected and they rebuild against the
        current model (see :meth:`entry`).
        """
        with self._mutex:
            for key in [k for k in self._entries if k.model == name]:
                self._remove_locked(key)
                self._invalidations += 1
            for key in self._generations:
                if key.model == name:
                    self._generations[key] += 1

    def evict(self, key: BatchKey) -> bool:
        """Explicitly drop one cached entry; returns whether it existed."""
        with self._mutex:
            existed = key in self._entries
            if existed:
                self._remove_locked(key)
                self._evictions += 1
            return existed

    def cached_keys(self) -> list[BatchKey]:
        """Cached keys, least-recently-used first."""
        with self._mutex:
            return list(self._entries)

    def stats(self) -> EngineCacheStats:
        """Lifecycle counters (entries, bytes, evictions, warm starts...)."""
        with self._mutex:
            return EngineCacheStats(
                entries=len(self._entries),
                plan_bytes=self._plan_bytes,
                evictions=self._evictions,
                invalidations=self._invalidations,
                warm_starts=self._warm_starts,
                cold_builds=self._cold_builds,
                build_failures=self._build_failures,
                quarantine_rejections=self._quarantine_rejections,
                probe_builds=self._probe_builds,
            )


class LinearServingPath:
    """Shared state of the slot-sharing linear path.

    One backend and one accounting channel serve every weight bank, so
    linear batches serialise on :attr:`lock` (which also makes a bank swap
    atomic against a running batch) -- the HE win of the linear path is
    slot sharing, not thread parallelism.

    The path additionally caches one :class:`~repro.he.bsgs.BSGSMatmulPlan`
    per ``(bank, geometry)``: the weight bank's generalized diagonals,
    pre-transformed into NTT form once (the plan-time forward transforms
    stay unattributed, like any shared pre-processing) and reused by every
    batch whose chunk geometry matches -- the online diagonal
    multiply-accumulate is then transform-free on the evaluation-resident
    backend.  Replacing a bank invalidates its plans
    (:meth:`invalidate_bank`), mirroring the engine cache's model
    invalidation.
    """

    def __init__(
        self,
        weight_banks: dict[str, np.ndarray],
        backend_factory: Callable[[], HEBackend] | None,
        network: NetworkModel | None = None,
    ) -> None:
        self.weight_banks = weight_banks
        self._backend_factory = backend_factory
        self._backend: HEBackend | None = None
        self.channel = Channel()
        if network is not None:
            self.channel.network = network
            self.channel.realize_network = True
        self.lock = threading.Lock()
        #: (bank name, BSGSGeometry) -> plan; guarded by :attr:`lock`.
        #: LRU-bounded: chunk geometry varies with the batch's total row
        #: count, so a long-lived server with diverse workloads would
        #: otherwise accumulate plans without limit.
        self._bsgs_plans: OrderedDict[tuple, BSGSMatmulPlan] = OrderedDict()  # guarded_by: lock

    def backend(self) -> HEBackend:
        if self._backend is None:
            if self._backend_factory is not None:
                self._backend = self._backend_factory()
            else:
                self._backend = SimulatedHEBackend(protocol_he_parameters())
        return self._backend

    def bsgs_plan_locked(self, name: str, weights: np.ndarray, geometry) -> BSGSMatmulPlan:
        """The cached NTT-form diagonal plan for ``(name, geometry)``.

        Must be called with :attr:`lock` held (batch execution already
        holds it).  A miss builds the plan -- charging its one-off forward
        transforms outside any request attribution -- and caches it for
        every later batch of the same chunk geometry.
        """
        key = (name, geometry)
        plan = self._bsgs_plans.get(key)
        if plan is None:
            plan = self._bsgs_plans[key] = prepare_bsgs_plan(
                self.backend(), weights, geometry
            )
        self._bsgs_plans.move_to_end(key)
        while len(self._bsgs_plans) > _BSGS_PLAN_CACHE_SIZE:
            self._bsgs_plans.popitem(last=False)
        return plan

    def replace_bank(self, name: str, weights: np.ndarray) -> None:
        """Install a new weight bank and drop its stale plans atomically.

        Batch execution reads the bank *and* resolves its plan under
        :attr:`lock`, so swapping the bank and invalidating the plans in
        one critical section guarantees no batch ever pairs the new bank
        with diagonals pre-transformed from the old one (or vice versa) --
        the same-shape replacement case where the geometry key alone could
        not tell the two apart.
        """
        with self.lock:
            self.weight_banks[name] = weights
            self._invalidate_bank_locked(name)

    def invalidate_bank(self, name: str) -> None:
        """Drop cached plans built from an older weight bank under ``name``."""
        with self.lock:
            self._invalidate_bank_locked(name)

    def _invalidate_bank_locked(self, name: str) -> None:
        for key in [k for k in self._bsgs_plans if k[0] == name]:
            del self._bsgs_plans[key]


class BatchExecutor:
    """Runs one batch at a time with full per-request attribution."""

    def __init__(self, engines: EngineCache, linear: LinearServingPath) -> None:
        self.engines = engines
        self.linear = linear

    def execute(self, batch: Batch) -> list[RequestReport]:
        """Run one batch with per-request attribution."""
        maybe_inject(SITE_ONLINE_EXECUTE, f"batch-{batch.batch_id}")
        if batch.key.kind == "inference":
            return self._run_inference_batch(batch)
        return self._run_linear_batch(batch)

    # -- full-inference batches ---------------------------------------------
    def _run_inference_batch(self, batch: Batch) -> list[RequestReport]:
        entry = self.engines.entry(batch.key)
        engine = entry.engine
        if len(batch.requests) > 1 and getattr(engine, "slot_sharing", 1) > 1:
            # The engine's FHGS modules can pack this batch's cross terms
            # block-diagonally into shared ciphertext slots: run the batch
            # through the engine as one unit.
            return self._run_shared_inference_batch(batch, engine)
        reports: list[RequestReport] = []
        for request in batch.requests:
            start = time.perf_counter()
            engine.tracker.set_request(request.request_id)
            engine.channel.set_request(request.request_id)
            try:
                result = engine.run(request.payload)
            finally:
                engine.tracker.set_request(None)
                engine.channel.set_request(None)
            end = time.perf_counter()
            reports.append(
                RequestReport(
                    request_id=request.request_id,
                    kind="inference",
                    model=batch.key.model,
                    variant=batch.key.variant,
                    batch_id=batch.batch_id,
                    batch_size=len(batch),
                    result=result.logits,
                    prediction=result.prediction,
                    queue_seconds=start - request.submitted_at,
                    latency_seconds=end - start,
                    online_bytes=engine.channel.total_bytes(
                        Phase.ONLINE, request=request.request_id
                    ),
                    online_rounds=engine.channel.round_count(
                        Phase.ONLINE, request=request.request_id
                    ),
                    offline_bytes=engine.channel.total_bytes(
                        Phase.OFFLINE, request=request.request_id
                    ),
                    he_operations=engine.tracker.request_snapshot(request.request_id),
                    deadline=request.deadline,
                    deadline_met=(
                        None if request.deadline is None else end <= request.deadline
                    ),
                )
            )
        return reports

    def _run_shared_inference_batch(self, batch: Batch, engine) -> list[RequestReport]:
        """Run one inference batch through the FHGS slot-sharing path.

        The batch's requests execute as one unit (``engine.run_batch``), so
        cross-term ciphertexts, HE operations and latency are *joint*
        figures for the whole group -- reported per request with
        ``shared_slot_batch=True``, exactly like the linear path's chunks.
        """
        tag = f"batch-{batch.batch_id}-shared"
        start = time.perf_counter()
        with engine.tracker.attribute(tag):
            engine.channel.set_request(tag)
            try:
                results = engine.run_batch([request.payload for request in batch.requests])
            finally:
                engine.channel.set_request(None)
        end = time.perf_counter()
        ops = engine.tracker.request_snapshot(tag)
        online_bytes = engine.channel.total_bytes(Phase.ONLINE, request=tag)
        online_rounds = engine.channel.round_count(Phase.ONLINE, request=tag)
        offline_bytes = engine.channel.total_bytes(Phase.OFFLINE, request=tag)
        return [
            RequestReport(
                request_id=request.request_id,
                kind="inference",
                model=batch.key.model,
                variant=batch.key.variant,
                batch_id=batch.batch_id,
                batch_size=len(batch),
                result=result.logits,
                prediction=result.prediction,
                queue_seconds=start - request.submitted_at,
                latency_seconds=end - start,
                online_bytes=online_bytes,
                online_rounds=online_rounds,
                offline_bytes=offline_bytes,
                he_operations=dict(ops),
                shared_slot_batch=True,
                deadline=request.deadline,
                deadline_met=(
                    None if request.deadline is None else end <= request.deadline
                ),
            )
            for request, result in zip(batch.requests, results, strict=True)
        ]

    # -- shared-slot linear batches -----------------------------------------
    def _run_linear_batch(self, batch: Batch) -> list[RequestReport]:
        """Run a slot-sharing linear batch, chunked to the ciphertext capacity."""
        with self.linear.lock:
            backend = self.linear.backend()
            weights = self.linear.weight_banks.get(batch.key.model)
            if weights is None:
                raise ProtocolError(f"unknown weight bank {batch.key.model!r}")
            for request in batch.requests:
                # Banks can be replaced between submit and execution; the
                # shape contract is re-checked at batch time (see
                # ServingRuntime.register_weights).
                if request.payload.shape[1] != weights.shape[0]:
                    raise ProtocolError(
                        f"request {request.request_id!r} of shape "
                        f"{request.payload.shape} no longer matches weight bank "
                        f"{batch.key.model!r} of shape {weights.shape}"
                    )
            reports: list[RequestReport] = []
            slot_count = backend.slot_count
            chunk: list[InferenceRequest] = []
            chunk_index = 0
            rows = 0
            for request in [*batch.requests, None]:  # None flushes the last chunk
                if request is not None and rows + request.payload.shape[0] <= slot_count:
                    chunk.append(request)
                    rows += request.payload.shape[0]
                    continue
                if chunk:
                    reports.extend(
                        self._run_linear_chunk(batch, chunk_index, chunk, backend, weights)
                    )
                    chunk_index += 1
                if request is not None:
                    # Per-request capacity was validated at submit time.
                    chunk = [request]
                    rows = request.payload.shape[0]
            return reports

    def _run_linear_chunk(
        self,
        batch: Batch,
        chunk_index: int,
        chunk: list[InferenceRequest],
        backend: HEBackend,
        weights: np.ndarray,
    ) -> list[RequestReport]:
        # One tag per slot-sharing chunk: a batch may split into several
        # chunks, and reusing one tag would double-count earlier chunks'
        # operations in later chunks' reports.
        tag = f"batch-{batch.batch_id}-chunk-{chunk_index}"
        channel = self.linear.channel
        total_rows = sum(request.payload.shape[0] for request in chunk)
        # Rotation-minimal BSGS diagonals when the backend supports slot-wise
        # products (the simulator; chunking already caps rows at the slot
        # count); the column kernel otherwise (exact BFV).
        use_bsgs = bsgs_kernel_fits(
            backend, total_rows, weights.shape[0], weights.shape[1]
        )
        bsgs_plan = None
        if use_bsgs:
            # NTT-form diagonal masks are prepared once per (bank, geometry)
            # and shared by every request of every matching batch; building
            # them before the request attribution starts keeps the plan-time
            # transforms unattributed, like other shared pre-processing.
            geometry = bsgs_geometry(
                total_rows, weights.shape[0], weights.shape[1], backend.slot_count
            )
            bsgs_plan = self.linear.bsgs_plan_locked(batch.key.model, weights, geometry)
        start = time.perf_counter()
        with backend.tracker.attribute(tag):
            results = encrypted_batch_matmul(
                backend, [request.payload for request in chunk], weights,
                kernel="bsgs" if use_bsgs else "columns",
                bsgs_plan=bsgs_plan,
            )
        end = time.perf_counter()
        ops = backend.tracker.request_snapshot(tag)
        # Wire accounting: the column kernel ships one ciphertext per input
        # feature and one per output column; BSGS packs the input into its
        # block geometry and the whole result into a single ciphertext.  The
        # client's fresh encryptions travel seeded (c0 plus c1's seed).
        if use_bsgs:
            input_cts, result_cts = geometry.num_ciphertexts, geometry.out_groups
        else:
            input_cts, result_cts = weights.shape[0], weights.shape[1]
        channel.set_request(tag)
        channel.send(
            "client", "server", input_cts * backend.seeded_ciphertext_bytes,
            description="Enc(stacked inputs)", step=STEP_LINEAR, phase=Phase.ONLINE,
        )
        channel.send(
            "server", "client", result_cts * backend.ciphertext_bytes,
            description="Enc(stacked results)", step=STEP_LINEAR, phase=Phase.ONLINE,
        )
        channel.set_request(None)
        online_bytes = channel.total_bytes(Phase.ONLINE, request=tag)
        return [
            RequestReport(
                request_id=request.request_id,
                kind="linear",
                model=batch.key.model,
                variant="",
                batch_id=batch.batch_id,
                batch_size=len(chunk),
                result=result,
                prediction=None,
                queue_seconds=start - request.submitted_at,
                latency_seconds=end - start,
                online_bytes=online_bytes,
                online_rounds=2,
                offline_bytes=0,
                he_operations=dict(ops),
                shared_slot_batch=True,
                deadline=request.deadline,
                deadline_met=(
                    None if request.deadline is None else end <= request.deadline
                ),
            )
            for request, result in zip(chunk, results, strict=True)
        ]

