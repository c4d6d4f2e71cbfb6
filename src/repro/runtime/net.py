"""Versioned wire protocol + socket replica server for the serving fleet.

ROADMAP item 1's networked half: this module puts a byte-level protocol on
:class:`~repro.runtime.frontdoor.AsyncServingRuntime` so N runtime replicas
can serve behind the client-side :class:`~repro.runtime.fleet.FleetRouter`.
Three layers:

* **Frame codec** -- every message is one length-prefixed, CRC-checksummed
  frame (see :func:`encode_frame`).  A torn read, truncated write or
  corrupted payload is detected structurally (bad magic / length / CRC) and
  surfaces as a typed, *retryable* :class:`~repro.errors.WireError` -- never
  as silently wrong bytes.  Frame layout (big-endian)::

      offset  size  field
      0       4     magic            b"RPRO"
      4       1     protocol version (1)
      5       1     frame kind       (KIND_* constant)
      6       4     payload length   (<= MAX_FRAME_BYTES)
      10      4     CRC-32 of the payload (zlib.crc32)
      14      n     payload          (pickle protocol 5)

* **Typed-error codec** -- exceptions cross the wire through an explicit
  :func:`encode_error` / :func:`decode_error` pair (pickle drops ``__cause__``
  chains and keyword-only constructor attributes), so a replica-side
  :class:`~repro.errors.RequestFailed` arrives at the router with its
  ``request_id`` / ``attempts`` / ``site`` attributes *and* its full cause
  chain intact -- client-visible failures are indistinguishable from
  in-process ones.

* :class:`ReplicaServer` -- a socket front end wrapping one
  :class:`AsyncServingRuntime`.  Submissions are acknowledged immediately and
  their reports pushed back the moment the drain loop resolves them;
  duplicate request ids are detected (at-most-once execution under router
  re-sends); completed reports stay fetchable (``KIND_FETCH``) across
  reconnects; heartbeats answer from a dedicated handler so a busy drain
  cannot starve health checks.  :func:`spawn_replica_process` forks one
  replica per OS process (drain-on-SIGTERM installed), which is how the
  chaos tests kill replicas mid-batch.

Payloads are pickled: replicas and router are mutually trusted halves of one
deployment (the same trust model as the plan store), never an open endpoint.

Fault sites: :data:`~repro.runtime.faults.SITE_CONN_SEND` fires before any
bytes are written (a clean "never delivered" failure, plus corrupt rules the
CRC must catch) and :data:`~repro.runtime.faults.SITE_CONN_RECV` fires after
a frame header is read (a torn read mid-frame).
"""

from __future__ import annotations

import dataclasses
import io
import os
import pickle
import signal
import socket
import struct
import threading
import zlib

from .. import errors as _errors
from ..errors import ProtocolError, WireError
from .faults import SITE_CONN_RECV, SITE_CONN_SEND, maybe_corrupt, maybe_inject
from .frontdoor import AsyncServingRuntime, RequestHandle

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "HEADER_BYTES",
    "KIND_NAMES",
    "encode_frame",
    "send_frame",
    "recv_exactly",
    "recv_frame",
    "encode_error",
    "decode_error",
    "ReplicaServer",
    "ReplicaProcessHandle",
    "spawn_replica_process",
]

MAGIC = b"RPRO"
WIRE_VERSION = 1
#: hard ceiling on one frame's payload; a length field above it is treated
#: as a framing error, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024
_HEADER = struct.Struct(">4sBBII")
HEADER_BYTES = _HEADER.size

# -- frame kinds --------------------------------------------------------------
KIND_HELLO = 1
KIND_HELLO_OK = 2
KIND_SUBMIT = 3
KIND_SUBMIT_LINEAR = 4
KIND_ACK = 5
KIND_RESULT = 6
KIND_ERROR = 7
KIND_FETCH = 8
KIND_PENDING = 9
KIND_HEARTBEAT = 10
KIND_HEARTBEAT_OK = 11
KIND_STATS = 12
KIND_STATS_OK = 13
KIND_DRAIN = 14
KIND_DRAIN_OK = 15

KIND_NAMES = {
    KIND_HELLO: "hello",
    KIND_HELLO_OK: "hello_ok",
    KIND_SUBMIT: "submit",
    KIND_SUBMIT_LINEAR: "submit_linear",
    KIND_ACK: "ack",
    KIND_RESULT: "result",
    KIND_ERROR: "error",
    KIND_FETCH: "fetch",
    KIND_PENDING: "pending",
    KIND_HEARTBEAT: "heartbeat",
    KIND_HEARTBEAT_OK: "heartbeat_ok",
    KIND_STATS: "stats",
    KIND_STATS_OK: "stats_ok",
    KIND_DRAIN: "drain",
    KIND_DRAIN_OK: "drain_ok",
}


# -- frame codec --------------------------------------------------------------

def encode_frame(kind: int, payload: object) -> bytes:
    """Serialize one ``(kind, payload)`` message into its on-wire bytes."""
    if kind not in KIND_NAMES:
        raise ProtocolError(f"unknown frame kind {kind!r}")
    blob = pickle.dumps(payload, protocol=5)
    if len(blob) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame payload of {len(blob)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling",
            site=SITE_CONN_SEND,
        )
    header = _HEADER.pack(MAGIC, WIRE_VERSION, kind, len(blob), zlib.crc32(blob))
    return header + blob


def decode_frame(data: bytes) -> tuple[int, object]:
    """Inverse of :func:`encode_frame` (one whole frame's bytes)."""
    kind, payload = _decode_from(io.BytesIO(data))
    if payload is _EOF:
        raise WireError("empty frame", site=SITE_CONN_RECV)
    return kind, payload


_EOF = object()


def recv_exactly(sock, n: int) -> bytes:
    """Read exactly ``n`` bytes from ``sock`` (the framing read primitive).

    A connection closed *mid*-read raises :class:`~repro.errors.WireError`;
    callers that can tolerate a clean end-of-stream should catch the
    zero-byte case themselves via :func:`recv_frame` (which returns ``None``
    on a close at a frame boundary).
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return b""
            raise WireError(
                f"connection closed {n - remaining} bytes into a "
                f"{n}-byte read",
                site=SITE_CONN_RECV,
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_payload(read, kind: int, length: int, crc: int):
    if kind not in KIND_NAMES:
        raise WireError(f"unknown frame kind {kind}", site=SITE_CONN_RECV)
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte "
            "frame ceiling",
            site=SITE_CONN_RECV,
        )
    blob = read(length)
    if len(blob) != length:
        raise WireError(
            f"connection closed {length - len(blob)} bytes short of the "
            "frame payload",
            site=SITE_CONN_RECV,
        )
    if zlib.crc32(blob) != crc:
        raise WireError("frame payload failed its CRC check", site=SITE_CONN_RECV)
    try:
        return pickle.loads(blob)
    except Exception as error:
        raise WireError(
            f"frame payload failed to deserialize: {error}", site=SITE_CONN_RECV
        ) from error


def _decode_from(stream) -> tuple[int, object]:
    header = stream.read(HEADER_BYTES)
    if not header:
        return 0, _EOF
    if len(header) != HEADER_BYTES:
        raise WireError("truncated frame header", site=SITE_CONN_RECV)
    magic, version, kind, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}", site=SITE_CONN_RECV)
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (speaking {WIRE_VERSION})",
            site=SITE_CONN_RECV,
        )
    return kind, _read_payload(stream.read, kind, length, crc)


def send_frame(sock, kind: int, payload: object) -> None:
    """Encode and write one frame.

    The ``conn_send`` fault site is evaluated *before* any bytes are
    written, so an injected send fault is a clean "never delivered" failure
    the router may safely re-route; corrupt rules damage the assembled
    frame after its CRC is computed, so the receiver's check must catch
    them.  Callers treat any exception as a broken connection.
    """
    frame = encode_frame(kind, payload)
    frame = maybe_corrupt(SITE_CONN_SEND, frame)
    maybe_inject(SITE_CONN_SEND, KIND_NAMES[kind])
    sock.sendall(frame)


def recv_frame(sock) -> tuple[int, object] | None:
    """Read one frame; ``None`` on a clean close at a frame boundary.

    The ``conn_recv`` fault site is evaluated after the header arrives --
    the injected failure mode is a torn read mid-frame, exactly what a
    dying peer produces.
    """
    header = recv_exactly(sock, HEADER_BYTES)
    if not header:
        return None
    maybe_inject(SITE_CONN_RECV, "header")
    magic, version, kind, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}", site=SITE_CONN_RECV)
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (speaking {WIRE_VERSION})",
            site=SITE_CONN_RECV,
        )
    return kind, _read_payload(lambda n: recv_exactly(sock, n), kind, length, crc)


# -- typed-error codec --------------------------------------------------------
# Pickling an exception keeps only ``args`` -- keyword-only attributes
# (``site``, ``retry_after_seconds``, ``request_id``...) and the ``__cause__``
# chain are silently dropped.  Errors therefore cross the wire as explicit
# attribute dictionaries, rebuilt against a whitelist of known types.

#: attributes preserved across the wire, per error instance when present.
_ERROR_ATTRS = (
    "site",
    "request_id",
    "attempts",
    "retry_after_seconds",
    "outstanding",
)

_BUILTIN_ERRORS = {
    cls.__name__: cls
    for cls in (
        OSError,
        ConnectionError,
        TimeoutError,
        ValueError,
        TypeError,
        KeyError,
        RuntimeError,
    )
}


def _error_registry() -> dict[str, type[BaseException]]:
    registry: dict[str, type[BaseException]] = dict(_BUILTIN_ERRORS)
    for name in dir(_errors):
        obj = getattr(_errors, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            registry[name] = obj
    return registry


#: chains deeper than this are truncated (a cause *cycle* must not hang
#: the codec; real chains here are 2-3 deep).
_MAX_CAUSE_DEPTH = 8


def encode_error(error: BaseException, *, _depth: int = 0) -> dict:
    """Flatten an exception (and its ``__cause__`` chain) for the wire."""
    attrs = {}
    for name in _ERROR_ATTRS:
        value = getattr(error, name, None)
        if value is not None:
            attrs[name] = value
    cause = error.__cause__
    return {
        "type": type(error).__name__,
        "message": str(error),
        "attrs": attrs,
        "cause": (
            encode_error(cause, _depth=_depth + 1)
            if cause is not None and cause is not error and _depth < _MAX_CAUSE_DEPTH
            else None
        ),
    }


def decode_error(spec: dict) -> BaseException:
    """Rebuild a typed exception encoded by :func:`encode_error`.

    Unknown types degrade to :class:`~repro.errors.ProtocolError` with the
    original type name embedded -- a decoding must never raise something
    *other* than the decoded error.
    """
    registry = _error_registry()
    cls = registry.get(spec.get("type", ""))
    message = spec.get("message", "")
    attrs = dict(spec.get("attrs") or {})
    if cls is None:
        error: BaseException = ProtocolError(
            f"[{spec.get('type', '?')}] {message}"
        )
    else:
        kwargs_accepted = {
            _errors.FaultError: ("site",),
            _errors.RequestFailed: ("request_id", "attempts", "site"),
            _errors.OverloadedError: ("retry_after_seconds",),
            _errors.EngineQuarantined: ("retry_after_seconds",),
            _errors.FleetUnavailable: ("retry_after_seconds",),
            _errors.ShutdownTimeout: ("outstanding",),
        }
        kwargs = {}
        for base, names in kwargs_accepted.items():
            if issubclass(cls, base):
                kwargs = {k: attrs[k] for k in names if k in attrs}
                break
        try:
            error = cls(message, **kwargs)
        except TypeError:
            error = cls(message)
        for name, value in attrs.items():
            if not hasattr(error, name):
                try:
                    setattr(error, name, value)
                except AttributeError:
                    pass
    if spec.get("cause"):
        error.__cause__ = decode_error(spec["cause"])
    return error


# -- replica server -----------------------------------------------------------


class _ServerConn:
    """One accepted router connection: a socket plus its send lock.

    Result pushes originate on the drain loop's callback thread while the
    handler thread answers synchronous frames, so every write goes through
    :meth:`send` under the lock -- frames never interleave.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._send_lock = threading.Lock()
        self.alive = True

    def send(self, kind: int, payload: object) -> bool:
        """Send one frame; ``False`` (never an exception) on a dead peer."""
        try:
            with self._send_lock:
                send_frame(self.sock, kind, payload)
            return True
        except Exception:
            self.alive = False
            return False

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class ReplicaServer:
    """Socket front end over one :class:`AsyncServingRuntime`.

    Parameters
    ----------
    models:
        Forwarded to the front door (with ``runtime_kwargs``).
    name:
        This replica's fleet name (stamped into outgoing reports' ``worker``
        field and the execution log's file name).
    host / port:
        Bind address; port 0 (default) picks a free port, read back from
        :attr:`port`.
    weight_banks:
        Optional ``{name: matrix}`` banks registered for ``submit_linear``.
    fleet_dir:
        Optional shared fleet directory.  The replica appends every
        *successfully completed* fleet request id to
        ``<fleet_dir>/<name>.executed`` (flushed line by line, so the log
        survives a SIGKILL) -- the ground truth the chaos tests use to prove
        at-most-once execution across the fleet.
    runtime_kwargs:
        Everything :class:`AsyncServingRuntime` accepts (``max_batch_size``,
        ``seed``, ``retry_policy``, ``admission``, ``plan_store``...).
        Pointing several replicas' ``plan_store`` at one shared directory is
        how warm starts cross processes.

    Protocol behaviour: ``KIND_SUBMIT`` is acknowledged as soon as the front
    door admits the request; the report (or its typed error) is pushed to
    the most recent connection that expressed interest the moment the drain
    loop resolves it, and stays fetchable forever after.  A duplicate
    request id -- the router re-sending after an ambiguous connection
    failure -- is never executed twice: the ack (or the finished result) of
    the first submission is replayed instead.
    """

    def __init__(
        self,
        models=None,
        *,
        name: str = "replica",
        host: str = "127.0.0.1",
        port: int = 0,
        weight_banks=None,
        fleet_dir=None,
        **runtime_kwargs,
    ) -> None:
        self.name = name
        self._door = AsyncServingRuntime(models, **runtime_kwargs)
        for bank_name, matrix in (weight_banks or {}).items():
            self._door.runtime.register_weights(bank_name, matrix)
        self._lock = threading.Lock()
        #: fleet rid -> in-flight front-door handle
        self._inflight: dict[str, RequestHandle] = {}  # guarded_by: _lock
        #: fleet rid -> ("result", report) | ("error", error_spec)
        self._completed: dict[str, tuple] = {}  # guarded_by: _lock
        #: fleet rid -> connection to push the result to (latest wins)
        self._push: dict[str, _ServerConn] = {}  # guarded_by: _lock
        self._conns: list[_ServerConn] = []  # guarded_by: _lock
        self._batch_base: int | None = None  # guarded_by: _lock
        self._closing = False  # guarded_by: _lock
        self._crashed = False  # guarded_by: _lock
        self._drain_requested = threading.Event()
        self._stopped = threading.Event()
        self._log_lock = threading.Lock()
        self._log_file = None
        if fleet_dir is not None:
            os.makedirs(str(fleet_dir), exist_ok=True)
            log_path = os.path.join(str(fleet_dir), f"{name}.executed")
            self._log_file = open(log_path, "a")  # noqa: SIM115 - lifetime == server
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> ReplicaServer:
        self._accept_thread.start()
        return self

    def install_signal_handlers(self) -> None:
        """SIGTERM → graceful drain (flush the front door, then stop)."""
        signal.signal(signal.SIGTERM, lambda *_: self._drain_requested.set())

    def wait(self) -> None:
        """Block until the server stops (process-mode main loop).

        Returns after :meth:`close` / :meth:`crash`, or after completing the
        drain a SIGTERM requested via :meth:`install_signal_handlers`.
        """
        while not self._stopped.is_set():
            if self._drain_requested.wait(timeout=0.05):
                self.close()
                return
            if self._stopped.is_set():
                return

    def close(self) -> None:
        """Graceful shutdown: stop accepting, drain the front door, stop."""
        with self._lock:
            if self._closing:
                self._stopped.wait()
                return
            self._closing = True
        self._door.close()
        self._shutdown_sockets()
        self._stopped.set()

    def crash(self) -> None:
        """Simulate a hard crash: drop every socket, drain nothing.

        Thread-mode stand-in for SIGKILL: the router sees connections die
        with requests unreported, exactly like a killed process.  (An
        in-flight batch on the drain thread finishes in the background --
        its results are simply unreachable, as a dead process's would be.)
        """
        with self._lock:
            self._closing = True
            self._crashed = True
        self._shutdown_sockets()
        self._stopped.set()

    def _shutdown_sockets(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            conn.close()

    @property
    def crashed(self) -> bool:
        with self._lock:
            return self._crashed

    @property
    def runtime(self):
        """The wrapped front door's runtime (tests and stats)."""
        return self._door.runtime

    def __enter__(self) -> ReplicaServer:
        return self.start() if not self._accept_thread.is_alive() else self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- accept / dispatch ---------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed (close()/crash())
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _ServerConn(sock)
            with self._lock:
                if self._closing:
                    conn.close()
                    continue
                self._conns.append(conn)
            threading.Thread(
                target=self._serve_conn, args=(conn,),
                name=f"{self.name}-conn", daemon=True,
            ).start()

    def _serve_conn(self, conn: _ServerConn) -> None:
        try:
            while conn.alive:
                frame = recv_frame(conn.sock)
                if frame is None:
                    return
                kind, payload = frame
                self._dispatch(conn, kind, payload)
        except (WireError, OSError):
            # A broken/corrupted connection is the router's problem to
            # retry; this replica just closes its end.
            return
        finally:
            conn.close()
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _dispatch(self, conn: _ServerConn, kind: int, payload) -> None:
        tag = payload.get("tag") if isinstance(payload, dict) else None
        if kind == KIND_HELLO:
            self._on_hello(conn, tag, payload)
        elif kind in (KIND_SUBMIT, KIND_SUBMIT_LINEAR):
            self._on_submit(conn, kind, tag, payload)
        elif kind == KIND_FETCH:
            self._on_fetch(conn, tag, payload)
        elif kind == KIND_HEARTBEAT:
            conn.send(KIND_HEARTBEAT_OK, {
                "tag": tag,
                "name": self.name,
                "pending": self._door.pending_count(),
                "inflight": self._door.inflight_count(),
            })
        elif kind == KIND_STATS:
            conn.send(KIND_STATS_OK, self._stats_payload(tag))
        elif kind == KIND_DRAIN:
            self._door.close()
            conn.send(KIND_DRAIN_OK, {"tag": tag, "name": self.name})
            self.close()
        else:
            conn.send(KIND_ERROR, {
                "tag": tag,
                "rid": None,
                "error": encode_error(
                    ProtocolError(f"unexpected frame kind {KIND_NAMES.get(kind, kind)}")
                ),
            })

    def _on_hello(self, conn: _ServerConn, tag, payload) -> None:
        base = payload.get("batch_id_base")
        with self._lock:
            apply_base = base is not None and self._batch_base is None
            if apply_base:
                self._batch_base = base
        if apply_base:
            try:
                self._door.runtime.scheduler.set_batch_id_base(base)
            except ProtocolError:
                pass  # batches already formed locally; keep the local ids
        conn.send(KIND_HELLO_OK, {
            "tag": tag,
            "name": self.name,
            "pid": os.getpid(),
            "version": WIRE_VERSION,
        })

    def _on_submit(self, conn: _ServerConn, kind: int, tag, payload) -> None:
        rid = payload["rid"]
        with self._lock:
            done = self._completed.get(rid)
            duplicate = done is not None or rid in self._inflight
            if not duplicate:
                # Claim the id *before* submitting so a racing duplicate
                # send can never double-submit.
                self._inflight[rid] = None  # type: ignore[assignment]
            self._push[rid] = conn
        if duplicate:
            conn.send(KIND_ACK, {"tag": tag, "rid": rid, "duplicate": True})
            if done is not None:
                self._push_entry(conn, rid, done)
            return
        try:
            if kind == KIND_SUBMIT:
                handle = self._door.submit(
                    payload["model"],
                    payload["payload"],
                    variant=payload["variant"],
                    deadline_seconds=payload.get("deadline_seconds"),
                )
            else:
                handle = self._door.submit_linear(
                    payload["model"],
                    payload["payload"],
                    deadline_seconds=payload.get("deadline_seconds"),
                )
        except Exception as error:  # OverloadedError, ProtocolError, ...
            with self._lock:
                self._inflight.pop(rid, None)
                self._push.pop(rid, None)
            conn.send(KIND_ERROR, {"tag": tag, "rid": rid, "error": encode_error(error)})
            return
        with self._lock:
            self._inflight[rid] = handle
        handle.add_done_callback(lambda h, rid=rid: self._on_request_done(rid, h))
        conn.send(KIND_ACK, {"tag": tag, "rid": rid, "duplicate": False})

    def _on_request_done(self, rid: str, handle: RequestHandle) -> None:
        error = handle.exception()
        if error is None:
            report = handle.result()
            # Ship a copy carrying the *fleet* id and this replica's name;
            # the original (with its replica-local id) stays owned by the
            # local runtime.
            report = dataclasses.replace(
                report,
                request_id=rid,
                worker=f"{self.name}:drain",
            )
            self._log_executed(rid)
            entry = ("result", report)
        else:
            entry = ("error", encode_error(error))
        with self._lock:
            self._inflight.pop(rid, None)
            self._completed[rid] = entry
            conn = self._push.pop(rid, None)
        if conn is not None:
            self._push_entry(conn, rid, entry)

    def _push_entry(self, conn: _ServerConn, rid: str, entry: tuple) -> None:
        status, value = entry
        if status == "result":
            conn.send(KIND_RESULT, {"tag": rid, "rid": rid, "report": value})
        else:
            conn.send(KIND_ERROR, {"tag": rid, "rid": rid, "error": value})

    def _on_fetch(self, conn: _ServerConn, tag, payload) -> None:
        rid = payload["rid"]
        with self._lock:
            done = self._completed.get(rid)
            known = done is not None or rid in self._inflight
            if done is None and known:
                self._push[rid] = conn  # re-subscribe the new connection
        if done is not None:
            self._push_entry(conn, rid, done)
        elif known:
            conn.send(KIND_PENDING, {"tag": tag, "rid": rid})
        else:
            conn.send(KIND_ERROR, {
                "tag": tag,
                "rid": rid,
                "error": encode_error(ProtocolError(f"unknown request {rid!r}")),
                "known": False,
            })

    # -- execution log / stats ----------------------------------------------
    def _log_executed(self, rid: str) -> None:
        """Append one completed fleet rid to the crash-surviving log.

        Written (and flushed) *before* the result is recorded or pushed:
        if the process dies in between, the log over-approximates what the
        router saw -- never the reverse -- so a cross-replica duplicate can
        never hide.
        """
        if self._log_file is None:
            return
        with self._log_lock:
            self._log_file.write(rid + "\n")
            self._log_file.flush()

    def executed_ids(self) -> list[str]:
        """Fleet rids this replica completed successfully, in completion order."""
        with self._lock:
            return [
                rid for rid, (status, _v) in self._completed.items()
                if status == "result"
            ]

    def _stats_payload(self, tag) -> dict:
        with self._lock:
            entries = list(self._completed.items())
        reports = [value for _rid, (status, value) in entries if status == "result"]
        admission = self._door.admission
        cache_stats = self._door.runtime.engine_cache.stats()
        return {
            "tag": tag,
            "name": self.name,
            "num_requests": len(reports),
            "num_batches": len({r.batch_id for r in reports}),
            "retried_requests": sum(1 for r in reports if r.retried),
            "total_attempts": sum(r.attempts for r in reports),
            "deadlines_met": sum(1 for r in reports if r.deadline_met is True),
            "deadlines_missed": sum(1 for r in reports if r.deadline_met is False),
            "typed_failures": sum(
                1 for _rid, (status, _v) in entries if status == "error"
            ),
            "admitted": admission.admitted_count if admission is not None else 0,
            "shed": admission.shed_count if admission is not None else 0,
            "executed": [
                rid for rid, (status, _v) in entries if status == "result"
            ],
            "engine_cache": dataclasses.asdict(cache_stats),
            "batches_executed": self._door.batches_executed,
        }


# -- process-mode replicas ----------------------------------------------------


class ReplicaProcessHandle:
    """A replica running in its own (forked) OS process."""

    def __init__(self, name: str, host: str, port: int, process) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.process = process

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL -- the crash the chaos tests inject mid-batch."""
        self.process.kill()

    def terminate(self) -> None:
        """SIGTERM -- the replica drains its front door, then exits."""
        self.process.terminate()

    def join(self, timeout: float | None = None) -> None:
        self.process.join(timeout)

    def crash(self) -> None:
        """Router-facing crash hook (same surface as :meth:`ReplicaServer.crash`)."""
        self.kill()


def _replica_process_main(channel, models, weight_banks, name, fleet_dir, kwargs):
    server = ReplicaServer(
        models, name=name, weight_banks=weight_banks, fleet_dir=fleet_dir, **kwargs
    )
    server.install_signal_handlers()
    server.start()
    channel.send((server.host, server.port))
    channel.close()
    server.wait()


def spawn_replica_process(
    models=None,
    *,
    name: str = "replica",
    weight_banks=None,
    fleet_dir=None,
    start_timeout: float = 30.0,
    **runtime_kwargs,
) -> ReplicaProcessHandle:
    """Fork one :class:`ReplicaServer` into its own process.

    Uses the ``fork`` start method (the kernel tiers' shared pools are
    pid-keyed, so forked children rebuild them safely) so the models need no
    serialization; the child reports its bound port back over a pipe.  The
    process is a daemon: it can be SIGKILLed mid-batch -- the point -- and
    dies with its parent.  SIGTERM triggers a graceful front-door drain.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    parent_channel, child_channel = ctx.Pipe()
    process = ctx.Process(
        target=_replica_process_main,
        args=(child_channel, models, weight_banks, name, fleet_dir, runtime_kwargs),
        name=f"replica-{name}",
        daemon=True,
    )
    process.start()
    child_channel.close()
    if not parent_channel.poll(start_timeout):
        process.kill()
        raise ProtocolError(
            f"replica {name!r} did not report a port within {start_timeout}s"
        )
    host, port = parent_channel.recv()
    parent_channel.close()
    return ReplicaProcessHandle(name, host, port, process)
