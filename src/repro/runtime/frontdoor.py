"""Async serving front door: submit while a drain is in flight.

:class:`~repro.runtime.serving.ServingRuntime` is strictly
submit-then-drain: callers queue requests, then some caller runs
``run_pending()`` and everyone's results appear at once.  Production traffic
does not arrive in phases -- requests trickle in *while* earlier batches are
executing.  :class:`AsyncServingRuntime` closes that gap:

* :meth:`AsyncServingRuntime.submit` returns immediately with a
  :class:`RequestHandle` (a future: ``result()`` blocks until the request's
  :class:`~repro.runtime.executor.RequestReport` is ready);
* a background **drain loop** forms batches continuously under the
  runtime's existing :class:`~repro.runtime.scheduler.SchedulingPolicy` --
  the scheduler's queue lock (shared with ``submit``) is what makes
  concurrent submission safe, and the scheduler's fairness invariant
  (single-key batches, per-key FIFO, no head starvation) holds unchanged;
* :meth:`close` flushes: it stops accepting submissions, drains everything
  still queued, and joins the loop -- no request is abandoned.

Equivalence
-----------
The protocol's logits are deterministic functions of the inputs -- they do
not depend on the sharing randomness, the batch a request lands in, or the
batch's size (``run_batch`` is bit-identical to per-request ``run``).  The
front door executes every batch through the same :class:`BatchExecutor` on
one loop thread, with per-key arrival order preserved by the scheduler, so
**any** interleaving of submits and drains yields reports whose logits are
bit-identical to a serial submit-all-then-``run_pending()`` pass over the
same requests -- the equivalence the test-suite asserts.

Failure isolation: an executor error fails only the handles of the batch
that raised; the loop keeps serving later batches.

Fault tolerance
---------------
Three optional layers harden the front door (all off by default, preserving
the historical behaviour exactly):

* **Retry** (``retry_policy=RetryPolicy(...)``): a *retryable* executor
  fault (see :meth:`~repro.runtime.faults.RetryPolicy.retryable`) re-submits
  the affected requests through the scheduler -- same request objects, same
  ids, same arrival order, so attribution is preserved and the retried
  results are bit-identical to a fault-free run.  Attempts are bounded, the
  backoff is deterministic per ``(seed, request id, attempt)``, and an
  optional per-request ``timeout_seconds`` budget (measured from first
  submission, shared across attempts) fails the request fast once spent.
  Non-retryable errors (``ShapeError``, ``ParameterError``, ...) fail
  immediately.
* **Typed failures**: a failed handle's :meth:`RequestHandle.result` raises
  :class:`~repro.errors.RequestFailed` carrying the request id, attempt
  count and originating fault site, with the raw executor error chained as
  ``__cause__``.
* **Admission control** (``admission=AdmissionController(...)``):
  queue-depth and inflight-bytes watermarks shed new submissions with a
  typed :class:`~repro.errors.OverloadedError` carrying a
  ``retry_after_seconds`` hint.  Shedding happens strictly at the door --
  the queue is never reordered -- so the scheduler's per-key fairness
  invariant holds unchanged for every admitted request.

:meth:`close(timeout=...)` that cannot stop the drain loop in time raises
:class:`~repro.errors.ShutdownTimeout` listing the outstanding request ids,
after failing (not abandoning) their handles with the same error.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np

from ..errors import OverloadedError, ProtocolError, RequestFailed, ShutdownTimeout
from ..protocols.primer import PRIMER_FPC, PrimerVariant
from .executor import RequestReport
from .faults import RetryPolicy
from .scheduler import Batch
from .serving import ServingRuntime

__all__ = ["RequestHandle", "AdmissionController", "AsyncServingRuntime"]


class AdmissionController:
    """Watermark-based load shedding for the front door.

    ``max_queue_depth`` bounds how many requests may be queued (not yet
    executing) when a new one arrives; ``max_inflight_bytes`` bounds the
    total payload bytes of admitted-but-unresolved requests.  Either
    watermark breached sheds the submission with a typed
    :class:`~repro.errors.OverloadedError` whose ``retry_after_seconds``
    hint scales with how far over the watermark the system is -- the
    client-visible backpressure signal.  ``None`` (default) leaves a
    dimension unbounded.
    """

    def __init__(
        self,
        *,
        max_queue_depth: int | None = None,
        max_inflight_bytes: int | None = None,
        retry_after_seconds: float = 0.05,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ProtocolError("max_queue_depth must be at least 1")
        if max_inflight_bytes is not None and max_inflight_bytes < 1:
            raise ProtocolError("max_inflight_bytes must be positive")
        if retry_after_seconds < 0:
            raise ProtocolError("retry_after_seconds must be non-negative")
        self.max_queue_depth = max_queue_depth
        self.max_inflight_bytes = max_inflight_bytes
        self.retry_after_seconds = retry_after_seconds
        self._lock = threading.Lock()
        self._inflight_bytes = 0  # guarded_by: _lock
        self._admitted = 0  # guarded_by: _lock
        self._shed = 0  # guarded_by: _lock

    def admit(self, queue_depth: int, payload_bytes: int) -> None:
        """Admit one submission or shed it with an ``OverloadedError``."""
        with self._lock:
            if (
                self.max_queue_depth is not None
                and queue_depth >= self.max_queue_depth
            ):
                self._shed += 1
                overload = (queue_depth + 1) / self.max_queue_depth
                raise OverloadedError(
                    f"queue depth {queue_depth} at the "
                    f"{self.max_queue_depth}-request admission watermark",
                    retry_after_seconds=self.retry_after_seconds * overload,
                )
            if (
                self.max_inflight_bytes is not None
                and self._inflight_bytes + payload_bytes > self.max_inflight_bytes
            ):
                self._shed += 1
                overload = (
                    self._inflight_bytes + payload_bytes
                ) / self.max_inflight_bytes
                raise OverloadedError(
                    f"{self._inflight_bytes + payload_bytes} inflight payload "
                    f"bytes over the {self.max_inflight_bytes}-byte admission "
                    "watermark",
                    retry_after_seconds=self.retry_after_seconds * overload,
                )
            self._inflight_bytes += payload_bytes
            self._admitted += 1

    def release(self, payload_bytes: int) -> None:
        """Return an admitted request's payload bytes (it resolved)."""
        with self._lock:
            self._inflight_bytes = max(0, self._inflight_bytes - payload_bytes)

    @property
    def inflight_bytes(self) -> int:
        with self._lock:
            return self._inflight_bytes

    @property
    def admitted_count(self) -> int:
        with self._lock:
            return self._admitted

    @property
    def shed_count(self) -> int:
        with self._lock:
            return self._shed


class RequestHandle:
    """Future-style handle of one asynchronously submitted request."""

    def __init__(self, request_id: str, future: Future[RequestReport]) -> None:
        self.request_id = request_id
        self._future = future

    def done(self) -> bool:
        """Whether the request has completed (successfully or not)."""
        return self._future.done()

    def result(self, timeout: float | None = None) -> RequestReport:
        """Block until the request's report is ready and return it."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The request's failure, or ``None`` once it completed cleanly."""
        return self._future.exception(timeout)

    def add_done_callback(self, fn) -> None:
        """Call ``fn(handle)`` once the request resolves (push-style delivery).

        Mirrors :meth:`concurrent.futures.Future.add_done_callback`: the
        callback runs on the thread that resolved the future (the drain
        loop) or immediately if already done, so it must be quick and must
        not raise.  The replica server uses this to stream reports back
        over the wire the moment they exist.
        """
        self._future.add_done_callback(lambda _future: fn(self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self._future.done() else "pending"
        return f"RequestHandle({self.request_id!r}, {state})"


class AsyncServingRuntime:
    """Continuous-drain front door over a :class:`ServingRuntime`.

    Parameters
    ----------
    models:
        Forwarded to a fresh :class:`ServingRuntime` (with any other
        keyword arguments) unless ``runtime`` is given.
    runtime:
        An existing runtime to front.  Mutually exclusive with ``models``
        and the runtime keyword arguments.
    linger_seconds:
        How long the drain loop may hold off executing a formable batch to
        let it fill up to ``max_batch_size`` (0, the default, executes
        eagerly -- lowest latency, smallest batches).  Lingering ends early
        the moment some key's queue depth reaches the batch size, or on
        :meth:`close`.
    retry_policy:
        Optional :class:`~repro.runtime.faults.RetryPolicy`: transient
        executor faults re-submit the affected requests (see the module
        docstring's *Fault tolerance* section).  ``None`` (default) fails
        a batch on its first error, the historical behaviour.
    admission:
        Optional :class:`AdmissionController`: watermark-based load
        shedding at submission time.  ``None`` (default) admits everything.

    The front door is a context manager; leaving the ``with`` block runs
    :meth:`close`, which flushes all queued work.
    """

    _POLL_SECONDS = 0.05  # also catches direct runtime.submit() calls

    def __init__(
        self,
        models=None,
        *,
        runtime: ServingRuntime | None = None,
        linger_seconds: float = 0.0,
        retry_policy: RetryPolicy | None = None,
        admission: AdmissionController | None = None,
        **runtime_kwargs,
    ) -> None:
        if runtime is not None and (models is not None or runtime_kwargs):
            raise ProtocolError(
                "pass either an existing runtime or construction arguments, not both"
            )
        if linger_seconds < 0:
            raise ProtocolError("linger_seconds must be non-negative")
        self.runtime = runtime if runtime is not None else ServingRuntime(
            models, **runtime_kwargs
        )
        self.linger_seconds = linger_seconds
        self.retry_policy = retry_policy
        self.admission = admission
        self._futures: dict[str, Future] = {}  # guarded_by: _lock
        #: request id -> executions so far; touched only by the drain thread
        self._attempts: dict[str, int] = {}
        #: request id -> admitted payload bytes (released on resolution)
        self._payload_bytes: dict[str, int] = {}  # guarded_by: _lock
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closing = False  # guarded_by: _lock
        self._batches_executed = 0  # guarded_by: _lock
        self._retried_requests = 0  # guarded_by: _lock
        self._drain_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._drain_loop, name="frontdoor-drain", daemon=True
        )
        self._thread.start()

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        model_name: str,
        token_ids: np.ndarray,
        *,
        variant: PrimerVariant = PRIMER_FPC,
        deadline_seconds: float | None = None,
    ) -> RequestHandle:
        """Queue one full private-inference request; returns its handle.

        Safe to call from any thread at any time before :meth:`close` --
        including while the drain loop is executing earlier batches.  With
        an :class:`AdmissionController`, an over-watermark submission is
        shed with :class:`~repro.errors.OverloadedError` before anything is
        queued.
        """
        payload = np.asarray(token_ids, dtype=np.int64)
        with self._wakeup:
            self._check_open_locked()
            self._admit(payload.nbytes)
            try:
                request_id = self.runtime.submit(
                    model_name, payload, variant=variant,
                    deadline_seconds=deadline_seconds,
                )
            except BaseException:
                if self.admission is not None:
                    self.admission.release(payload.nbytes)
                raise
            handle = self._register_locked(request_id, payload.nbytes)
            self._wakeup.notify_all()
        return handle

    def submit_linear(
        self,
        weights_name: str,
        matrix: np.ndarray,
        *,
        deadline_seconds: float | None = None,
    ) -> RequestHandle:
        """Queue one private ``X @ W`` request; returns its handle."""
        payload = np.asarray(matrix, dtype=np.int64)
        with self._wakeup:
            self._check_open_locked()
            self._admit(payload.nbytes)
            try:
                request_id = self.runtime.submit_linear(
                    weights_name, payload, deadline_seconds=deadline_seconds
                )
            except BaseException:
                if self.admission is not None:
                    self.admission.release(payload.nbytes)
                raise
            handle = self._register_locked(request_id, payload.nbytes)
            self._wakeup.notify_all()
        return handle

    def _admit(self, payload_bytes: int) -> None:
        """Shed over-watermark submissions (no-op without a controller)."""
        if self.admission is not None:
            self.admission.admit(self.runtime.scheduler.pending(), payload_bytes)

    def _check_open_locked(self) -> None:
        """Reject new submissions once closing.  Caller holds ``_wakeup``."""
        if self._closing:
            raise ProtocolError("the front door is closed to new submissions")
        if not self._thread.is_alive():
            # The drain loop died on an unexpected (non-executor) error;
            # accepting more work would register handles no one resolves.
            raise ProtocolError(
                "the front door drain loop is not running"
                + (f" (died on: {self._drain_error!r})" if self._drain_error else "")
            )

    def _register_locked(self, request_id: str, payload_bytes: int = 0) -> RequestHandle:
        """Issue a handle for an admitted request.  Caller holds ``_wakeup``."""
        future: Future = Future()
        self._futures[request_id] = future
        self._payload_bytes[request_id] = payload_bytes
        return RequestHandle(request_id, future)

    def _release_admission(self, request_id: str) -> None:
        """Return a resolved request's payload bytes to the admission budget."""
        with self._lock:
            payload_bytes = self._payload_bytes.pop(request_id, None)
        if payload_bytes and self.admission is not None:
            self.admission.release(payload_bytes)

    # -- drain loop ----------------------------------------------------------
    def _drain_loop(self) -> None:
        try:
            while True:
                with self._wakeup:
                    while not self._closing and self.runtime.scheduler.pending() == 0:
                        self._wakeup.wait(timeout=self._POLL_SECONDS)
                    if self._closing and self.runtime.scheduler.pending() == 0:
                        return
                if self.linger_seconds > 0:
                    self._linger()
                batch = self.runtime.scheduler.next_batch()
                if batch is None:
                    continue
                self._execute(batch)
        except BaseException as exc:  # noqa: BLE001 - recorded, then re-raised
            self._drain_error = exc
            raise
        finally:
            self._abandon_outstanding()

    def _abandon_outstanding(self) -> None:
        """Fail every unresolved handle (the loop exited or died).

        Normal ``close()`` drains the queue first, so there is nothing to
        abandon; this is the backstop for a drain loop killed by an
        unexpected (non-executor) error -- ``result()`` must raise, never
        block forever.
        """
        with self._lock:
            leftovers = [
                (request_id, future)
                for request_id, future in self._futures.items()
                if not future.done()
            ]
            self._futures.clear()
        detail = f" (drain loop died on: {self._drain_error!r})" if self._drain_error else ""
        for request_id, future in leftovers:
            self._release_admission(request_id)
            future.set_exception(
                ProtocolError(f"front door drain loop exited before completion{detail}")
            )

    def _linger(self) -> None:
        """Hold off batch formation briefly so a batch can fill."""
        deadline = time.perf_counter() + self.linger_seconds
        capacity = self.runtime.scheduler.max_batch_size
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            with self._wakeup:
                if self._closing:
                    return
                depths = self.runtime.scheduler.queue_depths()
                if not depths or max(depths.values()) >= capacity:
                    return
                self._wakeup.wait(timeout=min(remaining, self._POLL_SECONDS))

    def _execute(self, batch: Batch) -> None:
        try:
            reports = self.runtime.executor.execute(batch)
        except Exception as exc:  # noqa: BLE001 - forwarded to the handles
            self._handle_batch_failure(batch, exc)
            return
        for report in reports:
            attempts = self._attempts.pop(report.request_id, 1)
            report.attempts = attempts
            report.retried = attempts > 1
        self.runtime._record_completions(reports)
        with self._lock:
            futures = [self._futures.pop(r.request_id, None) for r in reports]
            self._batches_executed += 1
            self._retried_requests += sum(1 for r in reports if r.retried)
        for report, future in zip(reports, futures, strict=True):
            self._release_admission(report.request_id)
            if future is not None:
                future.set_result(report)

    def _handle_batch_failure(self, batch: Batch, exc: Exception) -> None:
        """Classify one failed batch execution: retry, or fail the handles.

        Without a retry policy -- or for a non-retryable error -- the batch's
        handles fail immediately (wrapped in
        :class:`~repro.errors.RequestFailed`).  A retryable fault re-submits
        every request that still has attempts and deadline budget left
        through the scheduler (front of the queue, original order and
        attribution preserved) after the policy's deterministic backoff;
        requests out of attempts or budget fail typed instead.
        """
        policy = self.retry_policy
        if policy is None or not policy.retryable(exc):
            self._fail_batch(batch, exc)
            return
        now = time.perf_counter()
        to_retry: list[tuple] = []
        exhausted: list = []
        for request in batch.requests:
            attempts = self._attempts.get(request.request_id, 1)
            out_of_attempts = attempts >= policy.max_attempts
            out_of_budget = policy.budget_remaining(request.submitted_at, now) <= 0
            if out_of_attempts or out_of_budget:
                exhausted.append(request)
            else:
                to_retry.append((request, attempts))
        if exhausted:
            self._fail_requests(exhausted, exc)
            with self._lock:
                self._batches_executed += 1
        if not to_retry:
            return
        delay = max(
            policy.backoff_for(request.request_id, attempts)
            for request, attempts in to_retry
        )
        if delay > 0:
            time.sleep(delay)
        # Reversed + appendleft preserves the batch's arrival order at the
        # head of the queue; the original sequence stamps make the retried
        # requests the oldest of their key, so they are served next.
        for request, attempts in reversed(to_retry):
            self._attempts[request.request_id] = attempts + 1
            self.runtime.scheduler.requeue(request)

    def _fail_batch(self, batch: Batch, exc: Exception) -> None:
        """An executor error fails this batch's handles; the loop lives on."""
        self._fail_requests(batch.requests, exc)
        with self._lock:
            self._batches_executed += 1

    def _fail_requests(self, requests, exc: Exception) -> None:
        """Fail each request's handle with a typed ``RequestFailed``.

        Each future is popped exactly once, so a handle can never be
        resolved twice; the raw executor error is chained as ``__cause__``
        and its message embedded, so both the type and the text survive.
        """
        with self._lock:
            items = [
                (request, self._futures.pop(request.request_id, None))
                for request in requests
            ]
        for request, future in items:
            self._release_admission(request.request_id)
            attempts = self._attempts.pop(request.request_id, 1)
            if future is None:
                continue
            failure = RequestFailed(
                f"request {request.request_id!r} failed after {attempts} "
                f"attempt(s): {exc}",
                request_id=request.request_id,
                attempts=attempts,
                site=getattr(exc, "site", ""),
            )
            failure.__cause__ = exc
            future.set_exception(failure)

    # -- lifecycle -----------------------------------------------------------
    def close(self, timeout: float | None = None) -> None:
        """Stop accepting submissions, flush all queued work, join the loop.

        Every handle issued before ``close`` is resolved (with a report or
        the error of its batch) by the time this returns.  Idempotent.

        With a ``timeout``, a drain loop that cannot stop in time raises
        :class:`~repro.errors.ShutdownTimeout` listing the outstanding
        request ids -- after *failing* their handles with the same error, so
        no ``result()`` call is left blocking on work that will never
        finish.
        """
        with self._wakeup:
            self._closing = True
            self._wakeup.notify_all()
        # The scheduler refuses new submissions from here on (including
        # direct runtime.submit calls that bypass the front door); batch
        # formation keeps working so the drain loop can flush the queue.
        self.runtime.scheduler.close()
        self._thread.join(timeout)
        if self._thread.is_alive():
            with self._lock:
                outstanding = tuple(
                    sorted(
                        request_id
                        for request_id, future in self._futures.items()
                        if not future.done()
                    )
                )
                leftovers = [self._futures.pop(rid) for rid in outstanding]
            error = ShutdownTimeout(
                f"front door drain loop did not stop within {timeout} seconds; "
                f"{len(outstanding)} request(s) still in flight",
                outstanding=outstanding,
            )
            for request_id, future in zip(outstanding, leftovers, strict=True):
                self._release_admission(request_id)
                future.set_exception(error)
            raise error
        # Backstop for handles registered in the race window while the
        # drain loop was dying: resolve them with the error instead of
        # letting result() block forever.
        self._abandon_outstanding()

    @property
    def closed(self) -> bool:
        with self._lock:
            closing = self._closing
        return closing and not self._thread.is_alive()

    def __enter__(self) -> AsyncServingRuntime:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- observability -------------------------------------------------------
    def pending_count(self) -> int:
        """Requests queued but not yet executing."""
        return self.runtime.scheduler.pending()

    def inflight_count(self) -> int:
        """Handles issued but not yet resolved (queued or executing)."""
        with self._lock:
            return len(self._futures)

    @property
    def batches_executed(self) -> int:
        with self._lock:
            return self._batches_executed

    @property
    def retried_requests(self) -> int:
        """Requests that completed successfully after at least one retry."""
        with self._lock:
            return self._retried_requests

    def result(self, request_id: str) -> RequestReport:
        """Report of a completed request (delegates to the runtime)."""
        return self.runtime.result(request_id)
