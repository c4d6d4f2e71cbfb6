"""Batch-serving façade for private Transformer inference.

The paper evaluates the hybrid HE+GC protocol one sequence at a time; this
module is the front door of the reproduction's *serving system*.  The actual
machinery lives one layer down and is composed of three parts (see the
README's "Serving architecture" section):

* **plans** (:mod:`repro.protocols.plan`) -- the offline phase of every
  engine is an explicit, immutable :class:`~repro.protocols.plan.OfflinePlan`
  produced by ``prepare()`` and adopted by ``install()``;
* **executor** (:mod:`repro.runtime.executor`) -- the
  :class:`~repro.runtime.executor.BatchExecutor` runs one batch with full
  per-request attribution on engines from the bounded
  :class:`~repro.runtime.executor.EngineCache`;
* **policies** (:mod:`repro.runtime.scheduler`) -- batch formation is a
  pluggable :class:`~repro.runtime.scheduler.SchedulingPolicy` (FIFO
  default, earliest-deadline-first, size-aware slot packing), all bound by
  the scheduler-enforced per-key FIFO fairness invariant.

:class:`ServingRuntime` preserves the original API: ``submit`` /
``submit_linear`` queue requests and ``run_pending()`` drains serially,
batch after batch.  The async front door (:mod:`repro.runtime.frontdoor`)
drains the same executor continuously, and the replica fleet
(:mod:`repro.runtime.fleet`) runs one runtime per process.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable

import numpy as np

from ..errors import ProtocolError
from ..he.backend import HEBackend
from ..nn.transformer import TransformerEncoder
from ..protocols.channel import NetworkModel
from ..protocols.planstore import PlanStore
from ..protocols.primer import (
    ALL_VARIANTS,
    PRIMER_FPC,
    PrimerVariant,
    PrivateTransformerInference,
)
from .executor import (
    STEP_LINEAR,
    BatchExecutor,
    EngineCache,
    LinearServingPath,
    RequestReport,
)
from .scheduler import BatchKey, BatchScheduler, InferenceRequest, SchedulingPolicy

__all__ = [
    "RequestReport",
    "ServingStats",
    "ServingRuntime",
    "run_sequential_baseline",
    "summarize",
    "STEP_LINEAR",
]


@dataclass(frozen=True)
class ServingStats:
    """Aggregate view over a set of request reports."""

    num_requests: int
    num_batches: int
    total_seconds: float
    requests_per_second: float
    mean_latency_seconds: float
    mean_queue_seconds: float
    #: longest any request in the set waited in the queue
    max_queue_seconds: float = 0.0
    #: deadline outcomes (requests without a deadline count in neither)
    deadlines_met: int = 0
    deadlines_missed: int = 0
    #: fault-tolerance aggregates: requests that needed at least one retry
    #: and the total executor attempts across all requests (== num_requests
    #: in a fault-free run)
    retried_requests: int = 0
    total_attempts: int = 0
    #: HE kernel tier that was active when the stats were summarized
    kernel_tier: str = ""
    #: per-tier calibration timings ``(tier, {"ntt_seconds", "mul_eval_seconds"})``
    #: flattened to ``(("reference.ntt_seconds", 3.1e-3), ...)``; empty until the
    #: ``auto`` tier has run its self-calibration in this process
    kernel_costs: tuple[tuple[str, float], ...] = ()


def _kernel_costs_snapshot() -> tuple[tuple[str, float], ...]:
    """Flatten :func:`repro.he.kernels.calibration_snapshot` for ServingStats."""
    from repro.he import kernels

    flat: list[tuple[str, float]] = []
    for tier, costs in sorted(kernels.calibration_snapshot().items()):
        for metric, seconds in sorted(costs.items()):
            flat.append((f"{tier}.{metric}", float(seconds)))
    return tuple(flat)


def summarize(reports: list[RequestReport], wall_seconds: float | None = None) -> ServingStats:
    """Aggregate throughput/latency statistics for a serving run."""
    from repro.he import kernels

    if not reports:
        return ServingStats(
            0, 0, 0.0, 0.0, 0.0, 0.0, kernel_tier=kernels.active_tier_name()
        )
    total = (
        wall_seconds
        if wall_seconds is not None
        else sum(r.latency_seconds for r in reports if not r.shared_slot_batch)
        + sum(
            r.latency_seconds / max(1, r.batch_size)
            for r in reports
            if r.shared_slot_batch
        )
    )
    return ServingStats(
        num_requests=len(reports),
        num_batches=len({r.batch_id for r in reports}),
        total_seconds=total,
        requests_per_second=len(reports) / total if total > 0 else float("inf"),
        mean_latency_seconds=float(np.mean([r.latency_seconds for r in reports])),
        mean_queue_seconds=float(np.mean([r.queue_seconds for r in reports])),
        max_queue_seconds=float(np.max([r.queue_seconds for r in reports])),
        deadlines_met=sum(1 for r in reports if r.deadline_met is True),
        deadlines_missed=sum(1 for r in reports if r.deadline_met is False),
        retried_requests=sum(1 for r in reports if r.retried),
        total_attempts=sum(r.attempts for r in reports),
        kernel_tier=kernels.active_tier_name(),
        kernel_costs=_kernel_costs_snapshot(),
    )


class ServingRuntime:
    """Queue → policy batcher → executor → per-request reports.

    Parameters
    ----------
    models:
        Named models served for full-inference requests.
    max_batch_size:
        Upper bound on requests per batch (see :class:`BatchScheduler`).
    backend_factory:
        Optional zero-argument callable returning a fresh
        :class:`~repro.he.backend.HEBackend` (with its own tracker) for each
        engine and for the linear path; defaults to the simulated backend at
        protocol-scale parameters.
    seed:
        Seed handed to every engine (results are seed-independent; the seed
        only fixes the sharing randomness).
    policy:
        Scheduling policy for batch formation; default FIFO (the original
        behaviour).
    network:
        Optional :class:`~repro.protocols.channel.NetworkModel` to
        *realize*: every protocol message then actually waits out its
        transfer time, emulating the paper's two-instance deployment.
    fhgs_slot_sharing:
        FHGS block-diagonal slot-sharing capacity: engines prepare their
        offline plans so that up to this many compatible requests share one
        set of cross-term ciphertexts per batch (``None``, the default,
        follows ``max_batch_size``; ``1`` disables sharing).  Engines clamp
        it to what their backend and slot budget support, so it is always
        safe to leave on.
    plan_store:
        Optional :class:`~repro.protocols.planstore.PlanStore` (or a
        directory path, which is wrapped in one).  Cold engine builds
        persist their offline plans there and later builds -- including in a
        freshly started process -- *warm-start* by installing the stored
        plan instead of re-running the offline HE exchange.
    engine_cache_entries / engine_cache_bytes:
        LRU bounds on the engine cache: at most this many cached engines /
        this many bytes of cached offline-plan arrays.  ``None`` (default)
        leaves the dimension unbounded, the original behaviour.
    breaker_threshold / breaker_cooldown_seconds / breaker_clock:
        Per-``(model, variant)`` engine-build circuit breaker: after
        ``breaker_threshold`` consecutive build failures the key is
        quarantined (:class:`~repro.errors.EngineQuarantined` with a retry
        hint) until ``breaker_cooldown_seconds`` admits a half-open probe
        build.  ``breaker_clock`` is injectable for tests.
    """

    def __init__(
        self,
        models: dict[str, TransformerEncoder] | None = None,
        *,
        max_batch_size: int = 8,
        backend_factory: Callable[[], HEBackend] | None = None,
        seed: int = 0,
        policy: SchedulingPolicy | None = None,
        network: NetworkModel | None = None,
        fhgs_slot_sharing: int | None = None,
        plan_store: PlanStore | str | Path | None = None,
        engine_cache_entries: int | None = None,
        engine_cache_bytes: int | None = None,
        breaker_threshold: int = 2,
        breaker_cooldown_seconds: float = 30.0,
        breaker_clock: Callable[[], float] | None = None,
    ) -> None:
        self.scheduler = BatchScheduler(max_batch_size=max_batch_size, policy=policy)
        self._models: dict[str, TransformerEncoder] = dict(models or {})
        self._weight_banks: dict[str, np.ndarray] = {}
        self._variants: dict[str, PrimerVariant] = {v.name: v for v in ALL_VARIANTS}
        slot_sharing = (
            max_batch_size if fhgs_slot_sharing is None else max(1, fhgs_slot_sharing)
        )
        if isinstance(plan_store, (str, Path)):
            plan_store = PlanStore(plan_store)
        self._engines = EngineCache(
            self._models, self._variants, backend_factory, seed,
            network=network, slot_sharing=slot_sharing,
            plan_store=plan_store,
            max_entries=engine_cache_entries,
            max_bytes=engine_cache_bytes,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_seconds=breaker_cooldown_seconds,
            breaker_clock=breaker_clock,
        )
        self._linear = LinearServingPath(self._weight_banks, backend_factory, network=network)
        self.executor = BatchExecutor(self._engines, self._linear)
        self._request_ids = itertools.count()
        self._completed: dict[str, RequestReport] = {}

    def _register_variant(self, variant: PrimerVariant) -> None:
        """Track a variant by name, rejecting silent name collisions.

        Batch keys carry only the variant *name*, so two different variant
        configurations under one name would make requests run under
        whichever registered first -- an error, not a tie-break.
        """
        existing = self._variants.setdefault(variant.name, variant)
        if existing != variant:
            raise ProtocolError(
                f"variant name {variant.name!r} is already registered with a "
                "different configuration"
            )

    # -- registration --------------------------------------------------------
    def register_model(self, name: str, model: TransformerEncoder) -> None:
        """Register (or replace) a model served under ``name``."""
        self._models[name] = model
        # Engines built for an older model under this name are stale.
        self._engines.invalidate_model(name)

    def register_weights(self, name: str, weights: np.ndarray) -> None:
        """Register a plaintext weight matrix for the linear serving path.

        Replacing a bank with a *different input dimension* while compatible
        linear requests are still queued is rejected: those requests were
        shape-validated against the old bank at submit time and would
        otherwise run against the new one (the executor re-checks the shape
        contract at batch time as a second line of defence).
        """
        weights = np.asarray(weights, dtype=np.int64)
        if weights.ndim != 2:
            raise ProtocolError("linear serving weights must be a 2-D matrix")
        previous = self._weight_banks.get(name)
        if previous is not None and previous.shape[0] != weights.shape[0]:
            pending = self.scheduler.queue_depths().get(
                BatchKey(kind="linear", model=name, variant=""), 0
            )
            if pending:
                raise ProtocolError(
                    f"cannot replace weight bank {name!r} "
                    f"({previous.shape} -> {weights.shape}) while {pending} "
                    "compatible linear requests are queued; drain them first"
                )
        # The bank swap and the invalidation of its NTT-form diagonal plans
        # happen atomically under the linear path's lock, so an in-flight
        # drain can never pair the new bank with the old bank's plans.
        self._linear.replace_bank(name, weights)

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        model_name: str,
        token_ids: np.ndarray,
        *,
        variant: PrimerVariant = PRIMER_FPC,
        deadline_seconds: float | None = None,
    ) -> str:
        """Queue one full private-inference request; returns its request id.

        ``deadline_seconds`` is a completion target relative to submission;
        it only influences batch order under the deadline-aware policy, and
        every report records whether its deadline was met.
        """
        if model_name not in self._models:
            raise ProtocolError(f"unknown model {model_name!r}")
        self._register_variant(variant)
        request = InferenceRequest(
            request_id=f"req-{next(self._request_ids)}",
            key=BatchKey(kind="inference", model=model_name, variant=variant.name),
            payload=np.asarray(token_ids, dtype=np.int64),
        )
        if deadline_seconds is not None:
            request.deadline = request.submitted_at + deadline_seconds
        self.scheduler.submit(request)
        return request.request_id

    def submit_linear(
        self,
        weights_name: str,
        matrix: np.ndarray,
        *,
        deadline_seconds: float | None = None,
    ) -> str:
        """Queue one private ``X @ W`` request against a registered bank."""
        if weights_name not in self._weight_banks:
            raise ProtocolError(f"unknown weight bank {weights_name!r}")
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != self._weight_banks[weights_name].shape[0]:
            raise ProtocolError(
                f"linear request shape {matrix.shape} incompatible with "
                f"bank {weights_name!r} of shape {self._weight_banks[weights_name].shape}"
            )
        slot_count = self._linear.backend().slot_count
        if matrix.shape[0] > slot_count:
            raise ProtocolError(
                f"linear request of {matrix.shape[0]} rows exceeds the "
                f"{slot_count}-slot ciphertext capacity"
            )
        request = InferenceRequest(
            request_id=f"req-{next(self._request_ids)}",
            key=BatchKey(kind="linear", model=weights_name, variant=""),
            payload=matrix,
        )
        if deadline_seconds is not None:
            request.deadline = request.submitted_at + deadline_seconds
        self.scheduler.submit(request)
        return request.request_id

    # -- execution -----------------------------------------------------------
    def _record_completions(self, batch_reports: list[RequestReport]) -> None:
        """Register finished reports so :meth:`result` can serve them.

        Called batch by batch from both drain paths (:meth:`run_pending` and
        the async front door's continuous loop), so an error in a later
        batch cannot lose the results of batches that already ran.
        """
        for report in batch_reports:
            self._completed[report.request_id] = report

    def run_pending(self) -> list[RequestReport]:
        """Drain the queue serially, batch after batch; returns all reports."""
        reports: list[RequestReport] = []
        while True:
            batch = self.scheduler.next_batch()
            if batch is None:
                break
            batch_reports = self.executor.execute(batch)
            self._record_completions(batch_reports)
            reports.extend(batch_reports)
        return reports

    def result(self, request_id: str) -> RequestReport:
        """Report of a completed request."""
        if request_id not in self._completed:
            raise ProtocolError(f"request {request_id!r} has not completed")
        return self._completed[request_id]

    # -- engine cache --------------------------------------------------------
    def engine_for(self, model_name: str, variant: PrimerVariant = PRIMER_FPC) -> PrivateTransformerInference:
        """The cached engine serving ``(model, variant)``, building it if needed."""
        self._register_variant(variant)
        key = BatchKey(kind="inference", model=model_name, variant=variant.name)
        return self._engines.entry(key).engine

    @property
    def engine_cache(self) -> EngineCache:
        """The bounded engine cache (eviction stats, plan store, keys)."""
        return self._engines

    @property
    def linear_channel(self):
        """The accounting channel of the shared-slot linear path."""
        return self._linear.channel


def run_sequential_baseline(
    model: TransformerEncoder,
    token_ids_list: list[np.ndarray],
    *,
    variant: PrimerVariant = PRIMER_FPC,
    backend_factory: Callable[[], HEBackend] | None = None,
    seed: int = 0,
    network: NetworkModel | None = None,
) -> tuple[list[np.ndarray], float]:
    """Serve requests the pre-runtime way: a fresh engine per request.

    This is exactly what the paper-style evaluation does (key generation and
    the full offline phase repeated for every sequence); it is the baseline
    the serving benchmark compares batched throughput against.  Returns the
    per-request logits and the total wall-clock seconds.
    """
    logits: list[np.ndarray] = []
    start = time.perf_counter()
    for token_ids in token_ids_list:
        backend = backend_factory() if backend_factory else None
        engine = PrivateTransformerInference(
            model, variant, backend=backend, seed=seed, network=network
        )
        engine.offline()
        logits.append(engine.run(np.asarray(token_ids, dtype=np.int64)).logits)
    return logits, time.perf_counter() - start
