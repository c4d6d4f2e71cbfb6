"""Crash-tolerant replica fleet: wire protocol, router, lossless failover.

The acceptance bar from the issue: with replicas killed mid-drain under any
fault interleaving (``conn_send`` / ``conn_recv`` / ``replica_heartbeat`` /
``replica_crash``, seeded by the CI-matrixed ``REPRO_FAULT_SEED``), every
completed request's logits are bit-identical to a single-process serial
drain, the conservation ledger closes
(``submitted == completed + typed-failed``, zero hangs, zero drops), and
the per-replica execution logs prove no request ever executed twice.

Wire-protocol properties (every frame survives encode/decode, including
max-size payloads and typed-error cause chains) are pinned by hypothesis;
failover rungs (dedupe, fetch-not-re-execute, quarantine + half-open
probe, local fallback, typed fleet exhaustion) each get a deterministic
test of their own.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FleetUnavailable,
    OverloadedError,
    ProtocolError,
    ReplicaLost,
    RequestFailed,
    TransientFault,
    WireError,
)
from repro.he import kernels
from repro.nn import BERT_BASE, TransformerEncoder, scaled_config
from repro.protocols import PRIMER_FPC
from repro.runtime import (
    AdmissionController,
    FaultPlan,
    FaultRule,
    FleetRouter,
    ReplicaServer,
    RetryPolicy,
    ServingRuntime,
    active_injector,
    fault_scope,
    read_execution_logs,
    spawn_replica_process,
)
from repro.runtime.faults import (
    SITE_CONN_RECV,
    SITE_CONN_SEND,
    SITE_ONLINE_EXECUTE,
    SITE_REPLICA_CRASH,
    SITE_REPLICA_HEARTBEAT,
    fault_seed_from_env,
)
from repro.runtime.net import (
    KIND_ACK,
    KIND_ERROR,
    KIND_FETCH,
    KIND_HEARTBEAT,
    KIND_HEARTBEAT_OK,
    KIND_HELLO,
    KIND_HELLO_OK,
    KIND_NAMES,
    KIND_RESULT,
    KIND_SUBMIT,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    decode_error,
    decode_frame,
    encode_error,
    encode_frame,
    recv_frame,
    send_frame,
)

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
def second_model() -> TransformerEncoder:
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1
    )
    return TransformerEncoder.initialise(config, seed=7)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(29)
    return [rng.integers(0, 40, size=6) for _ in range(8)]


@pytest.fixture(scope="module")
def fault_free_logits(small_model, workload):
    """Logits of an injection-free single-process serial drain."""
    runtime = ServingRuntime({"tiny": small_model}, max_batch_size=4, seed=21)
    ids = [runtime.submit("tiny", tokens) for tokens in workload]
    runtime.run_pending()
    return {
        tokens.tobytes(): runtime.result(rid).result
        for tokens, rid in zip(workload, ids, strict=True)
    }


def _server(model, **kwargs) -> ReplicaServer:
    kwargs.setdefault("max_batch_size", 4)
    kwargs.setdefault("seed", 21)
    return ReplicaServer({"tiny": model}, **kwargs).start()


def _router(replicas, **kwargs) -> FleetRouter:
    kwargs.setdefault("start_health_monitor", False)
    return FleetRouter(replicas, **kwargs)


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class _StreamSock:
    """Byte-stream stand-in for a socket (short reads on purpose)."""

    def __init__(self, data: bytes, chunk: int = 3) -> None:
        self._data = data
        self._chunk = chunk

    def recv(self, n: int) -> bytes:
        take = min(n, self._chunk, len(self._data))
        out, self._data = self._data[:take], self._data[take:]
        return out


_payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=40)
    | st.binary(max_size=64),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


class TestWireProtocol:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(KIND_NAMES)), payload=_payloads)
    def test_every_frame_survives_encode_decode(self, kind, payload):
        out_kind, out_payload = decode_frame(encode_frame(kind, payload))
        assert out_kind == kind
        assert out_payload == payload

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(sorted(KIND_NAMES)),
        payload=_payloads,
        chunk=st.integers(min_value=1, max_value=7),
    )
    def test_recv_frame_reassembles_short_reads(self, kind, payload, chunk):
        sock = _StreamSock(encode_frame(kind, payload), chunk=chunk)
        out_kind, out_payload = recv_frame(sock)
        assert out_kind == kind
        assert out_payload == payload

    def test_numpy_payloads_round_trip_bit_identical(self):
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, 1 << 40, size=64).astype(np.int64)
        _kind, payload = decode_frame(
            encode_frame(KIND_SUBMIT, {"payload": tokens})
        )
        assert payload["payload"].dtype == np.int64
        assert np.array_equal(payload["payload"], tokens)

    def test_max_size_payload_round_trips_and_over_limit_is_typed(self):
        blob = b"\x5a" * (4 * 1024 * 1024)
        _kind, payload = decode_frame(encode_frame(KIND_RESULT, blob))
        assert payload == blob
        with pytest.raises(WireError):
            encode_frame(KIND_RESULT, b"\x00" * (MAX_FRAME_BYTES + 1))

    def test_corruption_is_caught_by_the_crc(self):
        frame = bytearray(encode_frame(KIND_ACK, {"rid": "fleet-0"}))
        frame[-1] ^= 0xFF
        with pytest.raises(WireError):
            decode_frame(bytes(frame))

    def test_bad_magic_and_version_are_typed(self):
        frame = bytearray(encode_frame(KIND_ACK, {}))
        bad_magic = b"XXXX" + bytes(frame[4:])
        with pytest.raises(WireError, match="magic"):
            decode_frame(bad_magic)
        frame[4] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode_frame(bytes(frame))

    def test_clean_close_at_boundary_is_none_mid_frame_is_typed(self):
        assert recv_frame(_StreamSock(b"")) is None
        frame = encode_frame(KIND_ACK, {"rid": "fleet-1"})
        with pytest.raises(WireError, match="closed"):
            recv_frame(_StreamSock(frame[: len(frame) - 2]))

    def test_oversized_length_field_is_rejected_not_allocated(self):
        frame = bytearray(encode_frame(KIND_ACK, {}))
        frame[6:10] = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(WireError, match="ceiling"):
            recv_frame(_StreamSock(bytes(frame)))


_error_samples = st.sampled_from([
    lambda: OverloadedError("shed", retry_after_seconds=0.25),
    lambda: RequestFailed(
        "boom", request_id="fleet-9", attempts=3, site="online_execute"
    ),
    lambda: ReplicaLost("gone", site="replica_crash"),
    lambda: TransientFault("flaky", site="conn_send"),
    lambda: FleetUnavailable("empty", retry_after_seconds=1.5),
    lambda: ProtocolError("bad order"),
    lambda: ValueError("plain"),
]).map(lambda factory: factory())


class TestErrorCodec:
    @settings(max_examples=60, deadline=None)
    @given(error=_error_samples, cause=_error_samples, root=_error_samples)
    def test_typed_errors_survive_with_full_cause_chains(self, error, cause, root):
        cause.__cause__ = root
        error.__cause__ = cause
        decoded = decode_error(encode_error(error))
        assert type(decoded) is type(error)
        assert str(decoded) == str(error)
        for attr in ("site", "request_id", "attempts", "retry_after_seconds"):
            if hasattr(error, attr):
                assert getattr(decoded, attr) == getattr(error, attr)
        assert type(decoded.__cause__) is type(cause)
        assert type(decoded.__cause__.__cause__) is type(root)

    def test_cause_cycle_is_truncated_not_infinite(self):
        error = ProtocolError("self-referential")
        error.__cause__ = error
        spec = encode_error(error)
        assert spec["cause"] is None  # cycle cut, codec still total

    def test_unknown_error_type_degrades_to_protocol_error(self):
        spec = {"type": "TotallyMadeUp", "message": "huh", "attrs": {}, "cause": None}
        decoded = decode_error(spec)
        assert isinstance(decoded, ProtocolError)
        assert "TotallyMadeUp" in str(decoded)


# ---------------------------------------------------------------------------
# Replica server protocol behaviour (thread-mode, raw sockets)
# ---------------------------------------------------------------------------


class _RawClient:
    """Minimal scripted peer for protocol-level server tests."""

    def __init__(self, server: ReplicaServer) -> None:
        self.sock = socket.create_connection((server.host, server.port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._tags = iter(range(10_000))

    def call(self, kind: int, payload: dict) -> tuple[int, dict]:
        send_frame(self.sock, kind, payload)
        return recv_frame(self.sock)

    def collect(self, count: int) -> dict[int, list[dict]]:
        """Read ``count`` frames, grouped by kind (push order is racy)."""
        frames: dict[int, list[dict]] = {}
        for _ in range(count):
            kind, payload = recv_frame(self.sock)
            frames.setdefault(kind, []).append(payload)
        return frames

    def hello(self, base: int = 1_000_000) -> dict:
        kind, payload = self.call(
            KIND_HELLO, {"tag": next(self._tags), "batch_id_base": base}
        )
        assert kind == KIND_HELLO_OK
        return payload

    def close(self) -> None:
        self.sock.close()


class TestReplicaServer:
    def test_submit_ack_result_and_heartbeat(self, small_model, workload):
        server = _server(small_model)
        try:
            client = _RawClient(server)
            hello = client.hello(base=5_000_000)
            assert hello["version"] == WIRE_VERSION
            send_frame(client.sock, KIND_SUBMIT, {
                "tag": "t1", "rid": "fleet-0", "model": "tiny",
                "payload": workload[0], "variant": PRIMER_FPC,
                "deadline_seconds": None,
            })
            frames = client.collect(2)
            [ack] = frames[KIND_ACK]
            assert ack["rid"] == "fleet-0" and not ack["duplicate"]
            [result] = frames[KIND_RESULT]
            report = result["report"]
            assert report.request_id == "fleet-0"
            assert report.batch_id >= 5_000_000  # HELLO base applied
            assert report.worker.startswith(server.name)
            kind, beat = client.call(KIND_HEARTBEAT, {"tag": "t2"})
            assert kind == KIND_HEARTBEAT_OK
            assert beat["pending"] == 0 and beat["inflight"] == 0
            client.close()
        finally:
            server.close()

    def test_duplicate_rid_is_deduped_not_re_executed(self, small_model, workload):
        server = _server(small_model)
        try:
            client = _RawClient(server)
            client.hello()
            submit = {
                "tag": "t1", "rid": "fleet-0", "model": "tiny",
                "payload": workload[0], "variant": PRIMER_FPC,
                "deadline_seconds": None,
            }
            send_frame(client.sock, KIND_SUBMIT, submit)
            client.collect(2)  # ack + result
            # The router's ambiguous-ack re-send: same rid, new tag.
            send_frame(client.sock, KIND_SUBMIT, dict(submit, tag="t2"))
            frames = client.collect(2)
            [ack] = frames[KIND_ACK]
            assert ack["duplicate"] is True
            [result] = frames[KIND_RESULT]  # replayed, not recomputed
            assert result["report"].request_id == "fleet-0"
            assert server.executed_ids() == ["fleet-0"]  # exactly once
            client.close()
        finally:
            server.close()

    def test_fetch_replays_completed_and_flags_unknown(self, small_model, workload):
        server = _server(small_model)
        try:
            first = _RawClient(server)
            first.hello()
            send_frame(first.sock, KIND_SUBMIT, {
                "tag": "t1", "rid": "fleet-3", "model": "tiny",
                "payload": workload[1], "variant": PRIMER_FPC,
                "deadline_seconds": None,
            })
            frames = first.collect(2)
            expected = frames[KIND_RESULT][0]["report"].result
            first.close()  # connection dies with the result delivered... or not
            second = _RawClient(server)  # the router's reconnect
            second.hello()
            kind, payload = second.call(KIND_FETCH, {"tag": "fleet-3", "rid": "fleet-3"})
            assert kind == KIND_RESULT
            assert np.array_equal(payload["report"].result, expected)
            kind, payload = second.call(KIND_FETCH, {"tag": "nope", "rid": "nope"})
            assert kind == KIND_ERROR and payload["known"] is False
            second.close()
        finally:
            server.close()

    def test_admission_shed_comes_back_as_typed_overload(self, small_model, workload):
        server = ReplicaServer(
            {"tiny": small_model},
            max_batch_size=4,
            seed=21,
            admission=AdmissionController(
                max_inflight_bytes=1, retry_after_seconds=0.2
            ),
        ).start()
        try:
            client = _RawClient(server)
            client.hello()
            kind, payload = client.call(KIND_SUBMIT, {
                "tag": "t1", "rid": "fleet-0", "model": "tiny",
                "payload": workload[0], "variant": PRIMER_FPC,
                "deadline_seconds": None,
            })
            assert kind == KIND_ERROR
            error = decode_error(payload["error"])
            assert isinstance(error, OverloadedError)
            assert error.retry_after_seconds > 0
            client.close()
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Router semantics (thread-mode replicas, deterministic)
# ---------------------------------------------------------------------------


class TestFleetRouter:
    def test_results_bit_identical_and_stats_aggregate(
        self, small_model, second_model, workload, fault_free_logits
    ):
        servers = [
            _server(small_model, name="rep-0", max_batch_size=2),
            ReplicaServer(
                {"tiny": small_model, "tiny2": second_model},
                name="rep-1", max_batch_size=2, seed=21,
            ).start(),
        ]
        try:
            with _router(servers) as router:
                handles = [router.submit("tiny", t) for t in workload]
                reports = [h.result(timeout=120) for h in handles]
                for tokens, report in zip(workload, reports, strict=True):
                    assert np.array_equal(
                        report.result, fault_free_logits[tokens.tobytes()]
                    )
                ledger = router.conservation()
                assert ledger["gap"] == 0 and ledger["outstanding"] == 0
                # Exact equality: the router-side aggregate equals the sum of
                # the replicas' own counters (attempts/retried made the trip
                # through the wire intact).
                aggregate = router.stats()
                replica_stats = router.replica_stats()
                for field in (
                    "num_requests", "num_batches", "retried_requests",
                    "total_attempts",
                    "deadlines_met", "deadlines_missed",
                ):
                    assert getattr(aggregate, field) == sum(
                        s[field] for s in replica_stats
                    ), field
        finally:
            for server in servers:
                server.close()

    def test_retried_requests_propagate_through_the_wire(
        self, small_model, workload, fault_free_logits
    ):
        server = _server(
            small_model,
            max_batch_size=4,
            retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=0.0, seed=SEED),
        )
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_ONLINE_EXECUTE, fires=(1,)),), seed=SEED
        )
        try:
            with fault_scope(plan):
                with _router([server]) as router:
                    handles = [router.submit("tiny", t) for t in workload[:4]]
                    reports = [h.result(timeout=120) for h in handles]
            for tokens, report in zip(workload[:4], reports, strict=True):
                assert np.array_equal(
                    report.result, fault_free_logits[tokens.tobytes()]
                )
            retried = [r for r in reports if r.retried]
            assert retried, "the injected executor fault must force a retry"
            assert all(r.attempts == 2 for r in retried)
            stats = router.stats()
            assert stats.retried_requests == len(retried)
            assert stats.total_attempts == sum(r.attempts for r in reports)
        finally:
            server.close()

    def test_sticky_least_loaded_placement_spreads_keys(
        self, small_model, second_model
    ):
        servers = [
            ReplicaServer(
                {"tiny": small_model, "tiny2": second_model},
                name=f"rep-{i}", max_batch_size=4, seed=21,
            ).start()
            for i in range(2)
        ]
        rng = np.random.default_rng(31)
        try:
            with _router(servers) as router:
                handles = []
                for _ in range(3):
                    handles.append(router.submit("tiny", rng.integers(0, 40, size=6)))
                    handles.append(router.submit("tiny2", rng.integers(0, 40, size=6)))
                reports = [h.result(timeout=120) for h in handles]
                replicas = {r.worker.split(":")[0] for r in reports}
                assert replicas == {"rep-0", "rep-1"}  # two keys, two replicas
                by_model = {
                    (r.model, r.worker.split(":")[0]) for r in reports
                }
                assert len(by_model) == 2  # each key stuck to one replica
        finally:
            for server in servers:
                server.close()

    def test_crashed_replica_requests_fail_typed_and_traffic_reroutes(
        self, small_model, workload, fault_free_logits
    ):
        clock = [0.0]
        servers = [
            _server(small_model, name="rep-0", max_batch_size=2),
            _server(small_model, name="rep-1", max_batch_size=2),
        ]
        try:
            with _router(
                servers, failure_threshold=2, cooldown_seconds=30.0,
                clock=lambda: clock[0],
            ) as router:
                first = [router.submit("tiny", t) for t in workload[:2]]
                [h.result(timeout=120) for h in first]
                placed = first[0].replica
                crashed = next(s for s in servers if s.name == placed)
                crashed.crash()
                router.probe_replicas()  # failure 1
                router.probe_replicas()  # failure 2 -> quarantine
                assert router.replicas_quarantined == 1
                # New traffic re-routes to the survivor; results stay
                # bit-identical.
                later = [router.submit("tiny", t) for t in workload[2:4]]
                for handle, tokens in zip(later, workload[2:4], strict=True):
                    report = handle.result(timeout=120)
                    assert np.array_equal(
                        report.result, fault_free_logits[tokens.tobytes()]
                    )
                assert {h.replica for h in later} == {
                    s.name for s in servers if s.name != placed
                }
                assert router.conservation()["gap"] == 0
        finally:
            for server in servers:
                server.close()

    def test_acked_then_crashed_fails_with_replica_lost_cause(self, small_model):
        server = _server(small_model, name="rep-0", linger_seconds=5.0)
        try:
            with _router(
                [server], failure_threshold=1, ack_timeout_seconds=5.0,
            ) as router:
                # Linger holds the batch, so the request is acked but
                # unreported when the replica dies.
                handle = router.submit("tiny", np.zeros(6, dtype=np.int64))
                server.crash()
                with pytest.raises(RequestFailed) as excinfo:
                    handle.result(timeout=60)
                assert isinstance(excinfo.value.__cause__, ReplicaLost)
                assert excinfo.value.request_id == handle.request_id
                ledger = router.conservation()
                assert ledger["typed_failed"] == 1 and ledger["gap"] == 0
        finally:
            server.close()

    def test_quarantine_half_open_probe_recovers_replica(self, small_model):
        clock = [0.0]
        server = _server(small_model, name="rep-0")
        try:
            with _router(
                [server],
                local_models={"tiny": small_model},
                local_runtime_kwargs={"max_batch_size": 4, "seed": 21},
                failure_threshold=2,
                cooldown_seconds=10.0,
                clock=lambda: clock[0],
            ) as router:
                plan = FaultPlan(
                    rules=(
                        FaultRule(site=SITE_REPLICA_HEARTBEAT, fires=(1, 2)),
                    ),
                    seed=SEED,
                )
                with fault_scope(plan):
                    router.probe_replicas()  # injected miss 1
                    router.probe_replicas()  # injected miss 2 -> quarantine
                    assert router.replicas_quarantined == 1
                    # Quarantined fleet degrades to the local runtime.
                    local = router.submit("tiny", np.zeros(6, dtype=np.int64))
                    assert local.replica == "local"
                    local.result(timeout=120)
                    assert router.local_submissions == 1
                    # Cooldown not yet elapsed: no probe, still quarantined.
                    clock[0] = 5.0
                    router.probe_replicas()
                    # Past the cooldown the next sweep is the half-open
                    # probe; the heartbeat succeeds and the replica returns.
                    clock[0] = 10.1
                    router.probe_replicas()
                restored = router.submit("tiny", np.ones(6, dtype=np.int64))
                assert restored.replica == "rep-0"
                restored.result(timeout=120)
                assert router.conservation()["gap"] == 0
        finally:
            server.close()

    def test_fleet_exhaustion_raises_typed_with_retry_hint(self, small_model):
        clock = [0.0]
        server = _server(small_model, name="rep-0")
        try:
            with _router(
                [server], failure_threshold=1, cooldown_seconds=30.0,
                clock=lambda: clock[0],
            ) as router:
                server.crash()
                router.probe_replicas()  # opens the breaker
                with pytest.raises(FleetUnavailable) as excinfo:
                    router.submit("tiny", np.zeros(6, dtype=np.int64))
                assert excinfo.value.retry_after_seconds == pytest.approx(30.0)
        finally:
            server.close()

    def test_replica_crash_site_kills_and_reroutes(
        self, small_model, workload, fault_free_logits
    ):
        servers = [
            _server(small_model, name="rep-0", max_batch_size=2),
            _server(small_model, name="rep-1", max_batch_size=2),
        ]
        plan = FaultPlan(
            rules=(FaultRule(site=SITE_REPLICA_CRASH, fires=(1,)),), seed=SEED
        )
        try:
            with _router(servers) as router:
                with fault_scope(plan):
                    handles = [router.submit("tiny", t) for t in workload[:4]]
                    reports = [h.result(timeout=120) for h in handles]
                assert sum(s.crashed for s in servers) == 1
                survivor = next(s.name for s in servers if not s.crashed)
                assert {h.replica for h in handles} == {survivor}
                for tokens, report in zip(workload[:4], reports, strict=True):
                    assert np.array_equal(
                        report.result, fault_free_logits[tokens.tobytes()]
                    )
                assert router.reroutes >= 1
                assert router.conservation()["gap"] == 0
        finally:
            for server in servers:
                server.close()

    def test_connection_faults_recover_bit_identical(
        self, small_model, workload, fault_free_logits
    ):
        """One injected fault at each connection site; no result is lost."""
        server = _server(small_model, name="rep-0", max_batch_size=2)
        plan = FaultPlan(
            rules=(
                FaultRule(site=SITE_CONN_SEND, fires=(2,)),
                FaultRule(site=SITE_CONN_RECV, fires=(3,)),
            ),
            seed=SEED,
        )
        try:
            with fault_scope(plan):
                with _router(
                    [server], failure_threshold=4, ack_timeout_seconds=5.0
                ) as router:
                    handles = [router.submit("tiny", t) for t in workload[:4]]
                    outcomes = []
                    for tokens, handle in zip(workload[:4], handles, strict=True):
                        try:
                            report = handle.result(timeout=120)
                            assert np.array_equal(
                                report.result, fault_free_logits[tokens.tobytes()]
                            )
                            outcomes.append("ok")
                        except RequestFailed as failure:
                            assert isinstance(failure.__cause__, ReplicaLost)
                            outcomes.append("lost")
                    ledger = router.conservation()
                    assert ledger["gap"] == 0 and ledger["outstanding"] == 0
                    assert outcomes.count("ok") >= 2
            # Every request the server actually executed, it executed once.
            executed = server.executed_ids()
            assert len(executed) == len(set(executed))
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Chaos: SIGKILL a replica process mid-drain under the CI fault-seed matrix
# ---------------------------------------------------------------------------


class TestProcessFleetChaos:
    @pytest.mark.slow
    def test_replica_killed_mid_drain_is_lossless(
        self, small_model, workload, fault_free_logits, tmp_path
    ):
        """The issue's headline chaos gate.

        Two forked replica processes share a fleet directory; one is
        SIGKILLed while its batches drain, with connection faults injected
        at the router under the matrixed ``REPRO_FAULT_SEED``.  Every
        handle resolves (no hangs), completed logits are bit-identical to
        the single-process serial drain, the conservation ledger closes,
        and the crash-surviving execution logs prove at-most-once
        execution across the fleet.
        """
        fleet_dir = tmp_path / "fleet"
        # Replicas are spawned BEFORE the fault scope: the injector is
        # router-side only (children must stay deterministic executors).
        replicas = [
            spawn_replica_process(
                {"tiny": small_model},
                name=f"rep-{i}",
                fleet_dir=fleet_dir,
                max_batch_size=2,
                seed=21,
            )
            for i in range(2)
        ]
        plan = FaultPlan(
            rules=(
                FaultRule(site=SITE_CONN_SEND, rate=0.1),
                FaultRule(site=SITE_CONN_RECV, rate=0.05),
            ),
            seed=SEED,
        )
        try:
            with fault_scope(plan):
                with FleetRouter(
                    replicas,
                    local_models={"tiny": small_model},
                    local_runtime_kwargs={"max_batch_size": 4, "seed": 21},
                    heartbeat_interval_seconds=0.1,
                    heartbeat_timeout_seconds=2.0,
                    failure_threshold=2,
                    cooldown_seconds=60.0,
                    ack_timeout_seconds=10.0,
                ) as router:
                    handles = [router.submit("tiny", t) for t in workload[:4]]
                    replicas[SEED % 2].kill()  # mid-drain, varies with the seed
                    handles += [router.submit("tiny", t) for t in workload[4:]]
                    completed, lost = 0, 0
                    for tokens, handle in zip(workload, handles, strict=True):
                        try:
                            report = handle.result(timeout=180)
                        except RequestFailed as failure:
                            assert isinstance(failure.__cause__, ReplicaLost)
                            lost += 1
                        else:
                            assert np.array_equal(
                                report.result,
                                fault_free_logits[tokens.tobytes()],
                            ), "completed logits must be bit-identical"
                            completed += 1
                    ledger = router.conservation()
                    assert ledger["submitted"] == len(workload)
                    assert ledger["completed"] == completed
                    assert ledger["typed_failed"] == lost
                    assert ledger["gap"] == 0, "conservation must close"
                    assert ledger["outstanding"] == 0
            # At-most-once across the fleet, proven from the per-replica
            # execution logs (flushed line by line; survives SIGKILL).
            logs = read_execution_logs(fleet_dir)
            executed = [rid for rids in logs.values() for rid in rids]
            assert len(executed) == len(set(executed)), (
                f"request executed on two replicas: {sorted(executed)}"
            )
            remote_completed = {
                r.request_id
                for r in router.reports()
                if r.worker != "local"
            }
            assert remote_completed <= set(executed)
        finally:
            for replica in replicas:
                replica.kill()
                replica.join(timeout=10)

    @pytest.mark.slow
    def test_sigterm_drains_before_exit(self, small_model, workload, tmp_path):
        replica = spawn_replica_process(
            {"tiny": small_model},
            name="rep-term",
            fleet_dir=tmp_path / "fleet",
            max_batch_size=4,
            seed=21,
        )
        try:
            with FleetRouter([replica], start_health_monitor=False) as router:
                handles = [router.submit("tiny", t) for t in workload[:2]]
                replica.terminate()  # SIGTERM: drain, then exit
                reports = [h.result(timeout=120) for h in handles]
                assert all(r.request_id for r in reports)
                assert router.conservation()["gap"] == 0
            replica.join(timeout=60)
            assert not replica.alive
        finally:
            replica.kill()
            replica.join(timeout=10)


class TestSharedPlanStoreWarmStart:
    @pytest.mark.slow
    def test_replicas_warm_start_from_shared_store(
        self, small_model, workload, tmp_path
    ):
        """A plan persisted by one process warm-starts the next replica."""
        from repro.protocols.planstore import PlanStore

        store_dir = tmp_path / "plans"
        first = spawn_replica_process(
            {"tiny": small_model},
            name="rep-cold",
            max_batch_size=4,
            seed=21,
            plan_store=PlanStore(store_dir),
        )
        try:
            with FleetRouter([first], start_health_monitor=False) as router:
                router.submit("tiny", workload[0]).result(timeout=120)
                [stats] = router.replica_stats()
                assert stats["engine_cache"]["cold_builds"] == 1
                assert stats["engine_cache"]["warm_starts"] == 0
        finally:
            first.terminate()
            first.join(timeout=60)
        second = spawn_replica_process(
            {"tiny": small_model},
            name="rep-warm",
            max_batch_size=4,
            seed=21,
            plan_store=PlanStore(store_dir),
        )
        try:
            with FleetRouter([second], start_health_monitor=False) as router:
                router.submit("tiny", workload[1]).result(timeout=120)
                [stats] = router.replica_stats()
                assert stats["engine_cache"]["warm_starts"] == 1
                assert stats["engine_cache"]["cold_builds"] == 0
        finally:
            second.terminate()
            second.join(timeout=60)


# ---------------------------------------------------------------------------
# Scheduler batch-id bases (the disjoint-range invariant)
# ---------------------------------------------------------------------------


class TestBatchIdBase:
    def test_base_applies_before_first_batch_only(self):
        from repro.runtime import BatchScheduler, InferenceRequest, BatchKey

        scheduler = BatchScheduler(max_batch_size=2)
        scheduler.set_batch_id_base(2_000_000)
        scheduler.submit(InferenceRequest(
            request_id="r0",
            key=BatchKey(kind="inference", model="m", variant="v"),
            payload=np.zeros(6, dtype=np.int64),
            sequence=0,
        ))
        batch = scheduler.next_batch()
        assert batch.batch_id == 2_000_000
        with pytest.raises(ProtocolError):
            scheduler.set_batch_id_base(3_000_000)  # batches already numbered

    def test_negative_base_rejected(self):
        from repro.runtime import BatchScheduler

        with pytest.raises(ProtocolError):
            BatchScheduler(max_batch_size=2).set_batch_id_base(-1)
