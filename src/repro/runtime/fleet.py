"""Client-side fleet router: health-checked placement over socket replicas.

This is the runtime's process-parallel mechanism.  A :class:`FleetRouter`
fronts N :class:`~repro.runtime.net.ReplicaServer` replicas and gives
callers the exact :meth:`submit` / :meth:`submit_linear` surface of
:class:`~repro.runtime.frontdoor.AsyncServingRuntime` -- handles, typed
errors, synchronous :class:`~repro.errors.OverloadedError` -- while placing
each ``(model, variant)`` key on one replica, least-loaded on first sight
(so engine caches stay hot per replica).

Failover ladder (every rung typed, none silent):

1. **Connection fault before any bytes were written** (``conn_send``
   injection, connect refusal) -- the request provably never reached the
   replica, so the router *re-routes* it to the next healthy replica.
2. **Connection fault after the frame may have been delivered** (ack
   timeout, connection death mid-wait) -- the router re-sends **to the same
   replica only**: the replica's request-id dedupe replays the original ack
   (or the finished result) instead of executing twice.
3. **Replica dead with acked requests unreported** -- on reconnect the
   router *fetches* finished results (never re-executes); if the replica is
   truly gone the affected handles fail typed
   (:class:`~repro.errors.RequestFailed` caused by
   :class:`~repro.errors.ReplicaLost`).  Re-executing elsewhere is never
   automatic: the dead replica may have executed the request already, and
   at-most-once beats guessing.
4. **Heartbeat loss** -- a replica that misses ``failure_threshold``
   consecutive heartbeats is quarantined behind a per-replica
   :class:`~repro.runtime.faults.CircuitBreaker`; after the cooldown the
   next heartbeat is its half-open probe, and one success returns it to
   rotation.
5. **Fleet exhaustion** -- zero placeable replicas falls back to a local
   in-process front door when the router was built with ``local_models``;
   otherwise submission raises :class:`~repro.errors.FleetUnavailable`
   carrying a ``retry_after_seconds`` hint derived from the soonest
   half-open probe.

Determinism: the protocol's logits do not depend on *where* a request
executes (see the front door's equivalence note), so any fault interleaving
that completes a request yields bit-identical logits to a single-process
serial drain -- the chaos tests assert exactly that while SIGKILLing
replicas mid-batch.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import socket
import threading
import time
from concurrent.futures import Future

import numpy as np

from ..errors import (
    FaultError,
    FleetUnavailable,
    ProtocolError,
    ReplicaLost,
    RequestFailed,
)
from ..protocols.primer import PRIMER_FPC, PrimerVariant
from .faults import (
    SITE_REPLICA_CRASH,
    SITE_REPLICA_HEARTBEAT,
    CircuitBreaker,
    maybe_inject,
)
from .frontdoor import AsyncServingRuntime
from .net import (
    KIND_ACK,
    KIND_DRAIN,
    KIND_DRAIN_OK,
    KIND_ERROR,
    KIND_FETCH,
    KIND_HEARTBEAT,
    KIND_HEARTBEAT_OK,
    KIND_HELLO,
    KIND_HELLO_OK,
    KIND_PENDING,
    KIND_RESULT,
    KIND_STATS,
    KIND_STATS_OK,
    KIND_SUBMIT,
    KIND_SUBMIT_LINEAR,
    decode_error,
    recv_frame,
    send_frame,
)
from .serving import ServingStats, summarize

__all__ = [
    "FleetHandle",
    "FleetRouter",
    "BATCH_ID_STRIDE",
    "read_execution_logs",
]

#: disjoint per-replica batch-id ranges: replica ``i`` numbers its batches
#: from ``(i + 1) * BATCH_ID_STRIDE`` (the local fallback keeps 0), so the
#: router-side :func:`~repro.runtime.serving.summarize` counts distinct
#: batches correctly across the whole fleet.
BATCH_ID_STRIDE = 1_000_000


def read_execution_logs(fleet_dir) -> dict[str, list[str]]:
    """Per-replica completed fleet request ids from the shared fleet dir.

    Reads every ``<name>.executed`` log (flushed line by line by the
    replicas, so SIGKILLed processes still contribute) -- the evidence the
    chaos tests use to prove no request executed on two replicas.
    """
    logs: dict[str, list[str]] = {}
    for entry in sorted(os.listdir(str(fleet_dir))):
        if not entry.endswith(".executed"):
            continue
        path = os.path.join(str(fleet_dir), entry)
        with open(path) as handle:
            logs[entry[: -len(".executed")]] = [
                line.strip() for line in handle if line.strip()
            ]
    return logs


class _Unsent(Exception):
    """The request provably never left this router (safe to re-route)."""


class _Ambiguous(Exception):
    """The request may have reached the replica (never re-route)."""


class _Waiter:
    __slots__ = ("event", "kind", "payload", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.kind: int | None = None
        self.payload: dict | None = None
        self.error: Exception | None = None

    def resolve(self, kind: int, payload: dict) -> None:
        self.kind = kind
        self.payload = payload
        self.event.set()

    def fail(self, error: Exception) -> None:
        self.error = error
        self.event.set()


class _RouterConn:
    """One live connection to a replica: send lock + tagged-reply receiver.

    Synchronous calls register a :class:`_Waiter` under their frame's
    ``tag`` before sending; the receiver thread resolves waiters by tag and
    hands everything else (server-pushed results, whose tag is the request
    id) to ``on_push``.  Death of the connection fails every waiter and
    fires ``on_lost`` exactly once.
    """

    def __init__(self, sock: socket.socket, on_push, on_lost) -> None:
        self.sock = sock
        self._on_push = on_push
        self._on_lost = on_lost
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._waiters: dict[str, _Waiter] = {}  # guarded_by: _lock
        self._lost = False  # guarded_by: _lock
        self._receiver = threading.Thread(
            target=self._receive_loop, name="fleet-recv", daemon=True
        )
        self._receiver.start()

    @property
    def alive(self) -> bool:
        with self._lock:
            return not self._lost

    def call(self, kind: int, payload: dict, timeout: float):
        """Send one frame and wait for the reply carrying the same tag.

        Raises :class:`_Unsent` when the send itself failed (no bytes
        guaranteed delivered... and for injected faults, provably none) and
        :class:`_Ambiguous` when the frame went out but no reply arrived.
        """
        tag = payload["tag"]
        waiter = _Waiter()
        with self._lock:
            if self._lost:
                raise _Unsent("connection already lost")
            self._waiters[tag] = waiter
        try:
            with self._send_lock:
                send_frame(self.sock, kind, payload)
        except Exception as error:
            with self._lock:
                self._waiters.pop(tag, None)
            self.close()
            raise _Unsent(f"send failed: {error}") from error
        if not waiter.event.wait(timeout):
            with self._lock:
                self._waiters.pop(tag, None)
            raise _Ambiguous(f"no reply within {timeout}s")
        if waiter.error is not None:
            raise _Ambiguous(f"connection lost awaiting reply: {waiter.error}") \
                from waiter.error
        return waiter.kind, waiter.payload

    def _receive_loop(self) -> None:
        error: Exception = ConnectionError("connection closed by peer")
        try:
            while True:
                frame = recv_frame(self.sock)
                if frame is None:
                    break
                kind, payload = frame
                tag = payload.get("tag") if isinstance(payload, dict) else None
                with self._lock:
                    waiter = self._waiters.pop(tag, None) if tag else None
                if waiter is not None:
                    waiter.resolve(kind, payload)
                elif kind in (KIND_RESULT, KIND_ERROR, KIND_PENDING):
                    self._on_push(kind, payload)
        except Exception as exc:  # WireError, OSError: the connection died
            error = exc
        finally:
            self._fail_all(error)

    def _fail_all(self, error: Exception) -> None:
        with self._lock:
            already = self._lost
            self._lost = True
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for waiter in waiters:
            waiter.fail(error)
        try:
            self.sock.close()
        except OSError:
            pass
        if not already:
            self._on_lost()

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._fail_all(ConnectionError("connection closed locally"))


class _ReplicaClient:
    """Router-side view of one replica: connection, breaker, call helpers."""

    def __init__(
        self,
        spec,
        *,
        index: int,
        router_name: str,
        breaker: CircuitBreaker,
        on_push,
        on_lost,
        connect_timeout: float,
        call_timeout: float,
    ) -> None:
        self.spec = spec
        self.name = spec.name
        self.host = spec.host
        self.port = spec.port
        self.index = index
        self.breaker = breaker
        self.dead = False  # set once the router itself crashed this replica
        self._router_name = router_name
        self._on_push = on_push
        self._on_lost = on_lost
        self._connect_timeout = connect_timeout
        self._call_timeout = call_timeout
        self._conn: _RouterConn | None = None  # guarded_by: _conn_lock
        self._conn_lock = threading.Lock()
        self._tags = itertools.count()

    # -- connection ----------------------------------------------------------
    def _tag(self) -> str:
        return f"{self.name}-t{next(self._tags)}"

    def _ensure_conn(self) -> _RouterConn:
        with self._conn_lock:
            if self._conn is not None and self._conn.alive:
                return self._conn
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self._connect_timeout
                )
            except OSError as error:
                raise _Unsent(f"connect to {self.name} failed: {error}") from error
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
            conn = _RouterConn(sock, self._on_push, lambda: self._on_lost(self))
            self._conn = conn
        # HELLO outside the connection lock: assigns this replica its
        # disjoint batch-id range (first connection wins, replicas apply it
        # once) and verifies the wire version end to end.
        kind, _payload = conn.call(
            KIND_HELLO,
            {
                "tag": self._tag(),
                "client": self._router_name,
                "batch_id_base": (self.index + 1) * BATCH_ID_STRIDE,
            },
            timeout=self._call_timeout,
        )
        if kind != KIND_HELLO_OK:
            conn.close()
            raise _Unsent(f"unexpected hello reply kind {kind}")
        return conn

    def call(self, kind: int, payload: dict, timeout: float | None = None):
        conn = self._ensure_conn()
        return conn.call(kind, payload, timeout or self._call_timeout)

    def close(self) -> None:
        with self._conn_lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    # -- protocol helpers ----------------------------------------------------
    def submit_request(self, kind: int, request: dict, *, timeout: float):
        """Send one submission, ack-retrying on the SAME replica only.

        The first attempt may raise :class:`_Unsent` (nothing delivered --
        the router re-routes).  Once bytes may have gone out, reconnect
        re-sends carry the same request id and rely on the replica's dedupe,
        so a slow ack never turns into a second execution; when those also
        fail the submission is :class:`_Ambiguous` and must fail typed.
        """
        try:
            return self.call(kind, dict(request, tag=self._tag()), timeout)
        except _Unsent:
            raise
        except _Ambiguous as error:
            last: Exception = error
            for _attempt in range(2):
                try:
                    return self.call(kind, dict(request, tag=self._tag()), timeout)
                except (_Unsent, _Ambiguous) as retry_error:
                    last = retry_error
            raise _Ambiguous(
                f"replica {self.name} unreachable with submission state unknown"
            ) from last

    def heartbeat(self, timeout: float):
        kind, payload = self.call(
            KIND_HEARTBEAT, {"tag": self._tag()}, timeout
        )
        if kind != KIND_HEARTBEAT_OK:
            raise ProtocolError(f"unexpected heartbeat reply kind {kind}")
        return payload

    def fetch(self, rid: str, timeout: float):
        # tag == rid so the reply resolves this call whether it comes back
        # as a direct answer or as the server's push for that request id.
        return self.call(KIND_FETCH, {"tag": rid, "rid": rid}, timeout)

    def stats(self, timeout: float | None = None) -> dict:
        kind, payload = self.call(KIND_STATS, {"tag": self._tag()}, timeout)
        if kind != KIND_STATS_OK:
            raise ProtocolError(f"unexpected stats reply kind {kind}")
        return payload

    def drain(self, timeout: float | None = None) -> None:
        kind, _payload = self.call(KIND_DRAIN, {"tag": self._tag()}, timeout)
        if kind != KIND_DRAIN_OK:
            raise ProtocolError(f"unexpected drain reply kind {kind}")

    # -- health --------------------------------------------------------------
    @property
    def placeable(self) -> bool:
        """Eligible for new traffic: not router-crashed, breaker closed."""
        return not self.dead and self.breaker.state == CircuitBreaker.CLOSED

    def crash(self) -> None:
        """Kill the underlying replica (``replica_crash`` injection hook)."""
        self.dead = True
        hook = getattr(self.spec, "crash", None) or getattr(self.spec, "kill", None)
        if hook is not None:
            hook()
        self.close()


@dataclasses.dataclass
class _Pending:
    """One in-flight fleet request (owned by the router's lock)."""

    rid: str
    client: _ReplicaClient
    future: Future
    acked: bool = False


class FleetHandle:
    """Future-style handle of one request routed through the fleet.

    Mirrors :class:`~repro.runtime.frontdoor.RequestHandle`; ``replica``
    names where the request was placed (``"local"`` on the fallback rung).
    """

    def __init__(self, request_id: str, replica: str, future: Future) -> None:
        self.request_id = request_id
        self.replica = replica
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None):
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        return self._future.exception(timeout)

    def add_done_callback(self, fn) -> None:
        self._future.add_done_callback(lambda _future: fn(self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self._future.done() else "pending"
        return f"FleetHandle({self.request_id!r}, {self.replica!r}, {state})"


class FleetRouter:
    """Health-checked request router over socket replicas.

    Parameters
    ----------
    replicas:
        Anything with ``name`` / ``host`` / ``port`` attributes --
        :class:`~repro.runtime.net.ReplicaProcessHandle`,
        a started :class:`~repro.runtime.net.ReplicaServer`, or a bare
        namespace.  An optional ``crash()`` / ``kill()`` attribute is the
        hook the ``replica_crash`` fault site fires.
    local_models / local_runtime_kwargs:
        When given, the zero-replicas-placeable rung of the ladder builds a
        local in-process :class:`AsyncServingRuntime` over these models
        (lazily, on first need) instead of raising
        :class:`~repro.errors.FleetUnavailable`.
    heartbeat_interval_seconds / heartbeat_timeout_seconds:
        Health-monitor cadence and per-probe reply deadline.
    failure_threshold / cooldown_seconds / clock:
        Per-replica :class:`CircuitBreaker` parameters (``clock`` is
        injectable so tests drive quarantine without sleeping).
    start_health_monitor:
        ``False`` leaves heartbeating to the caller (deterministic tests
        call :meth:`probe_replicas` explicitly).
    """

    def __init__(
        self,
        replicas,
        *,
        name: str = "router",
        local_models=None,
        local_runtime_kwargs: dict | None = None,
        heartbeat_interval_seconds: float = 0.25,
        heartbeat_timeout_seconds: float = 2.0,
        failure_threshold: int = 2,
        cooldown_seconds: float = 1.0,
        clock=time.monotonic,
        connect_timeout_seconds: float = 5.0,
        ack_timeout_seconds: float = 30.0,
        result_timeout_seconds: float = 120.0,
        retry_after_seconds: float = 0.05,
        start_health_monitor: bool = True,
    ) -> None:
        if not replicas and local_models is None:
            raise ProtocolError("a fleet needs at least one replica or local models")
        self.name = name
        self.heartbeat_interval_seconds = heartbeat_interval_seconds
        self.heartbeat_timeout_seconds = heartbeat_timeout_seconds
        self.ack_timeout_seconds = ack_timeout_seconds
        self.result_timeout_seconds = result_timeout_seconds
        self.retry_after_seconds = retry_after_seconds
        self._local_models = local_models
        self._local_kwargs = dict(local_runtime_kwargs or {})
        self._local_door: AsyncServingRuntime | None = None  # guarded_by: _lock
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._outstanding: dict[str, _Pending] = {}  # guarded_by: _lock
        self._placements: dict[tuple, _ReplicaClient] = {}  # guarded_by: _lock
        self._loads: dict[str, int] = {}  # guarded_by: _lock
        self._reports: list = []  # guarded_by: _lock
        self._failures: list[tuple[str, BaseException]] = []  # guarded_by: _lock
        self._closing = False  # guarded_by: _lock
        self.requests_submitted = 0  # guarded_by: _lock
        self.reroutes = 0  # guarded_by: _lock
        self.local_submissions = 0  # guarded_by: _lock
        self.replicas_quarantined = 0  # guarded_by: _lock
        self._clients = [
            _ReplicaClient(
                spec,
                index=index,
                router_name=name,
                breaker=CircuitBreaker(
                    failure_threshold=failure_threshold,
                    cooldown_seconds=cooldown_seconds,
                    clock=clock,
                ),
                on_push=self._on_push,
                on_lost=self._on_conn_lost,
                connect_timeout=connect_timeout_seconds,
                call_timeout=ack_timeout_seconds,
            )
            for index, spec in enumerate(replicas)
        ]
        for client in self._clients:
            self._loads[client.name] = 0
        self._monitor_stop = threading.Event()
        self._monitor: threading.Thread | None = None
        if start_health_monitor and self._clients:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name=f"{name}-health", daemon=True
            )
            self._monitor.start()

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        model_name: str,
        token_ids: np.ndarray,
        *,
        variant: PrimerVariant = PRIMER_FPC,
        deadline_seconds: float | None = None,
    ) -> FleetHandle:
        """Route one private-inference request; returns its fleet handle.

        Semantics match :meth:`AsyncServingRuntime.submit`: admission
        shedding raises :class:`~repro.errors.OverloadedError`
        synchronously, everything else resolves through the handle.
        """
        payload = np.asarray(token_ids, dtype=np.int64)
        return self._route(
            KIND_SUBMIT,
            key=("model", model_name, variant.name),
            request={
                "model": model_name,
                "payload": payload,
                "variant": variant,
                "deadline_seconds": deadline_seconds,
            },
        )

    def submit_linear(
        self,
        weights_name: str,
        matrix: np.ndarray,
        *,
        deadline_seconds: float | None = None,
    ) -> FleetHandle:
        """Route one private ``X @ W`` request; returns its fleet handle."""
        payload = np.asarray(matrix, dtype=np.int64)
        return self._route(
            KIND_SUBMIT_LINEAR,
            key=("linear", weights_name),
            request={
                "model": weights_name,
                "payload": payload,
                "deadline_seconds": deadline_seconds,
            },
        )

    def _route(self, kind: int, *, key: tuple, request: dict) -> FleetHandle:
        with self._lock:
            if self._closing:
                raise ProtocolError("the fleet router is closed to new submissions")
        rid = f"fleet-{next(self._ids)}"
        request = dict(request, rid=rid)
        tried: set[str] = set()
        while True:
            client = self._place(key, tried)
            if client is None:
                return self._submit_local(kind, rid, request)
            try:
                maybe_inject(SITE_REPLICA_CRASH, f"{client.name}:{rid}")
            except FaultError:
                self._crash_replica(client)
                with self._lock:
                    self.reroutes += 1
                tried.add(client.name)
                continue
            future: Future = Future()
            with self._lock:
                self._outstanding[rid] = _Pending(rid, client, future)
            try:
                reply_kind, reply = client.submit_request(
                    kind, request, timeout=self.ack_timeout_seconds
                )
            except _Unsent:
                # Rung 1: provably never delivered -- re-route freely.
                with self._lock:
                    self._outstanding.pop(rid, None)
                    self.reroutes += 1
                client.breaker.record_failure()
                self._maybe_abandon(client)
                tried.add(client.name)
                continue
            except _Ambiguous as error:
                # Rung 3: the replica may hold (or have executed) this
                # request; failing typed is the only at-most-once answer.
                client.breaker.record_failure()
                self._maybe_abandon(client)
                self._resolve_lost(rid, client, error)
                with self._lock:
                    self.requests_submitted += 1
                return FleetHandle(rid, client.name, future)
            if reply_kind == KIND_ERROR:
                # Submission rejected at the replica's door (admission shed,
                # unknown model...): surface synchronously, as in-process.
                with self._lock:
                    self._outstanding.pop(rid, None)
                raise decode_error(reply["error"])
            if reply_kind != KIND_ACK:
                with self._lock:
                    self._outstanding.pop(rid, None)
                raise ProtocolError(f"unexpected submission reply kind {reply_kind}")
            with self._lock:
                pending = self._outstanding.get(rid)
                if pending is not None:
                    pending.acked = True
                self.requests_submitted += 1
            return FleetHandle(rid, client.name, future)

    def _place(self, key: tuple, tried: set[str]) -> _ReplicaClient | None:
        """Sticky least-loaded placement over placeable replicas.

        A key keeps its replica while that replica stays healthy, so its
        prepared engine stays hot; quarantined or crashed replicas lose
        their keys to the least-loaded survivor.
        """
        with self._lock:
            current = self._placements.get(key)
            if (
                current is not None
                and current.placeable
                and current.name not in tried
            ):
                return current
            candidates = [
                c for c in self._clients if c.placeable and c.name not in tried
            ]
            if not candidates:
                return None
            chosen = min(candidates, key=lambda c: self._loads[c.name])
            if current is not None and current is not chosen:
                self._loads[current.name] = max(0, self._loads[current.name] - 1)
            if current is not chosen:
                self._loads[chosen.name] += 1
            self._placements[key] = chosen
            return chosen

    def _submit_local(self, kind: int, rid: str, request: dict) -> FleetHandle:
        """Rung 5: zero placeable replicas -- local fallback or typed raise."""
        if self._local_models is None:
            hints = [
                c.breaker.retry_after_seconds()
                for c in self._clients
                if not c.dead
            ]
            hints = [h for h in hints if h > 0]
            raise FleetUnavailable(
                "no replica is reachable and the router has no local models",
                retry_after_seconds=min(hints) if hints else self.retry_after_seconds,
            )
        with self._lock:
            if self._local_door is None:
                self._local_door = AsyncServingRuntime(
                    self._local_models, **self._local_kwargs
                )
            door = self._local_door
        if kind == KIND_SUBMIT:
            handle = door.submit(
                request["model"],
                request["payload"],
                variant=request["variant"],
                deadline_seconds=request.get("deadline_seconds"),
            )
        else:
            handle = door.submit_linear(
                request["model"],
                request["payload"],
                deadline_seconds=request.get("deadline_seconds"),
            )
        future: Future = Future()

        def _resolved(local_handle) -> None:
            error = local_handle.exception()
            if error is None:
                report = dataclasses.replace(
                    local_handle.result(), request_id=rid, worker="local"
                )
                with self._lock:
                    self._reports.append(report)
                future.set_result(report)
            else:
                with self._lock:
                    self._failures.append((rid, error))
                future.set_exception(error)

        handle.add_done_callback(_resolved)
        with self._lock:
            self.local_submissions += 1
            self.requests_submitted += 1
        return FleetHandle(rid, "local", future)

    # -- result / failure delivery -------------------------------------------
    def _on_push(self, kind: int, payload: dict) -> None:
        rid = payload.get("rid")
        if kind == KIND_PENDING or rid is None:
            return
        with self._lock:
            pending = self._outstanding.pop(rid, None)
        if pending is None:
            # A late duplicate (result pushed again after a fetch race, or
            # for a request already failed typed): at-most-once delivery to
            # the caller means we drop it, never resolve a handle twice.
            return
        if kind == KIND_RESULT:
            report = payload["report"]
            with self._lock:
                self._reports.append(report)
            pending.future.set_result(report)
        else:
            error = decode_error(payload["error"])
            if payload.get("known") is False:
                # The replica restarted without this request: state lost.
                self._resolve_lost_pending(pending, error)
                return
            if not isinstance(error, RequestFailed):
                wrapped = RequestFailed(
                    f"request {rid!r} failed at replica "
                    f"{pending.client.name}: {error}",
                    request_id=rid,
                    attempts=getattr(error, "attempts", 1),
                    site=getattr(error, "site", ""),
                )
                wrapped.__cause__ = error
                error = wrapped
            with self._lock:
                self._failures.append((rid, error))
            pending.future.set_exception(error)

    def _resolve_lost(self, rid: str, client: _ReplicaClient, cause: Exception) -> None:
        with self._lock:
            pending = self._outstanding.pop(rid, None)
        if pending is not None:
            self._resolve_lost_pending(pending, cause)

    def _resolve_lost_pending(self, pending: _Pending, cause: Exception) -> None:
        lost = ReplicaLost(
            f"replica {pending.client.name} lost with request "
            f"{pending.rid!r} in an unknown state; not re-executing elsewhere",
            site=SITE_REPLICA_CRASH,
        )
        lost.__cause__ = cause if isinstance(cause, BaseException) else None
        failure = RequestFailed(
            f"request {pending.rid!r} failed after 1 attempt(s): {lost}",
            request_id=pending.rid,
            attempts=1,
            site=SITE_REPLICA_CRASH,
        )
        failure.__cause__ = lost
        with self._lock:
            self._failures.append((pending.rid, failure))
        pending.future.set_exception(failure)

    # -- health / failover ---------------------------------------------------
    def _on_conn_lost(self, client: _ReplicaClient) -> None:
        """A replica connection died: re-fetch acked requests, never re-run.

        Runs on the dead connection's receiver thread.  Every acked request
        outstanding on the replica is FETCHed over a fresh connection --
        finished results come back verbatim, unfinished ones re-subscribe
        for push delivery.  Only when reconnection itself fails does the
        breaker advance toward quarantine (and the requests toward their
        typed :class:`ReplicaLost` failure).
        """
        with self._lock:
            if self._closing:
                return
            acked = [
                p for p in self._outstanding.values()
                if p.client is client and p.acked
            ]
        if not acked or client.dead:
            if client.dead:
                self._abandon(client)
            return
        for pending in acked:
            try:
                kind, payload = client.fetch(
                    pending.rid, timeout=self.heartbeat_timeout_seconds
                )
            except (_Unsent, _Ambiguous):
                client.breaker.record_failure()
                self._maybe_abandon(client)
                return
            if kind != KIND_PENDING:
                self._on_push(kind, payload)

    def probe_replicas(self) -> None:
        """One heartbeat sweep (the monitor's body; callable from tests).

        Closed breakers get a liveness heartbeat; open breakers past their
        cooldown get their half-open probe (one success returns the replica
        to rotation).  The ``replica_heartbeat`` fault site fires on the
        probe send, so injected heartbeat loss exercises the quarantine
        rung deterministically.
        """
        for client in self._clients:
            if client.dead:
                self._abandon(client)
                continue
            if not client.breaker.allow():
                continue
            try:
                maybe_inject(SITE_REPLICA_HEARTBEAT, client.name)
                client.heartbeat(self.heartbeat_timeout_seconds)
            except Exception:
                before = client.breaker.state
                client.breaker.record_failure()
                if (
                    client.breaker.state == CircuitBreaker.OPEN
                    and before != CircuitBreaker.OPEN
                ):
                    with self._lock:
                        self.replicas_quarantined += 1
                self._maybe_abandon(client)
            else:
                client.breaker.record_success()

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self.heartbeat_interval_seconds):
            self.probe_replicas()

    def _crash_replica(self, client: _ReplicaClient) -> None:
        """``replica_crash`` injection fired: hard-kill the chosen replica."""
        client.crash()
        client.breaker.record_failure()
        self._abandon(client)

    def _maybe_abandon(self, client: _ReplicaClient) -> None:
        if client.dead or client.breaker.state == CircuitBreaker.OPEN:
            self._abandon(client)

    def _abandon(self, client: _ReplicaClient) -> None:
        """Fail the quarantined/dead replica's acked requests typed.

        Only *acked* pendings: a submission mid-flight is resolved by its
        own ``_route`` call (exactly one owner pops each pending, so no
        handle resolves twice).
        """
        with self._lock:
            lost = [
                rid for rid, p in self._outstanding.items()
                if p.client is client and p.acked
            ]
            pendings = [self._outstanding.pop(rid) for rid in lost]
        for pending in pendings:
            self._resolve_lost_pending(
                pending, ConnectionError(f"replica {client.name} unreachable")
            )

    # -- observability -------------------------------------------------------
    def outstanding_count(self) -> int:
        with self._lock:
            return len(self._outstanding)

    def reports(self) -> list:
        """Successful reports collected so far (fleet request ids)."""
        with self._lock:
            return list(self._reports)

    def typed_failures(self) -> list[tuple[str, BaseException]]:
        with self._lock:
            return list(self._failures)

    def stats(self, wall_seconds: float | None = None) -> ServingStats:
        """Router-side aggregate over every successful report.

        Replica batch-id ranges are disjoint (see :data:`BATCH_ID_STRIDE`),
        so ``num_batches`` here equals the sum of the replicas' own counts
        -- the exact-equality the stats test asserts.
        """
        return summarize(self.reports(), wall_seconds)

    def conservation(self) -> dict[str, int]:
        """The lossless-failover ledger: gap must be zero at all times.

        ``submitted`` counts handles actually issued (synchronously shed
        submissions raised instead); every one of them must end as exactly
        one success or one typed failure.
        """
        with self._lock:
            completed = len(self._reports)
            failed = len(self._failures)
            submitted = self.requests_submitted
            outstanding = len(self._outstanding)
        return {
            "submitted": submitted,
            "completed": completed,
            "typed_failed": failed,
            "outstanding": outstanding,
            "gap": submitted - completed - failed - outstanding,
        }

    def replica_stats(self) -> list[dict]:
        """Live replicas' own counters (the wire ``stats`` frame)."""
        payloads = []
        for client in self._clients:
            if client.dead:
                continue
            try:
                payloads.append(client.stats())
            except (_Unsent, _Ambiguous):
                continue
        return payloads

    @property
    def local_door(self) -> AsyncServingRuntime | None:
        with self._lock:
            return self._local_door

    def replica_names(self) -> list[str]:
        return [client.name for client in self._clients]

    # -- lifecycle -----------------------------------------------------------
    def drain_replicas(self) -> list[str]:
        """Gracefully drain every reachable replica; returns who complied."""
        drained = []
        for client in self._clients:
            if client.dead:
                continue
            try:
                client.drain()
                drained.append(client.name)
            except (_Unsent, _Ambiguous):
                continue
        return drained

    def close(self, timeout: float | None = None) -> None:
        """Stop the monitor, wait for outstanding results, drop connections.

        Requests still unresolved when the wait expires fail typed (never
        silently abandoned), preserving the conservation ledger.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.heartbeat_timeout_seconds + 1.0)
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.result_timeout_seconds
        )
        while time.monotonic() < deadline:
            with self._lock:
                if not self._outstanding:
                    break
            time.sleep(0.01)
        with self._lock:
            leftovers = list(self._outstanding.values())
            self._outstanding.clear()
        for pending in leftovers:
            self._resolve_lost_pending(
                pending, TimeoutError("router closed before the result arrived")
            )
        for client in self._clients:
            client.close()
        with self._lock:
            door, self._local_door = self._local_door, None
        if door is not None:
            door.close()

    def __enter__(self) -> FleetRouter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
