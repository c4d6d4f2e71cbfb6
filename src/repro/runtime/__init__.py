"""Evaluation harness and batch-serving runtime.

Ties models, protocols, cost model and data together for the paper-table
experiments (:mod:`repro.runtime.evaluation`) and serves many concurrent
inference requests over shared cryptographic state -- batch formation under
pluggable policies (:mod:`repro.runtime.scheduler`), batch execution
(:mod:`repro.runtime.executor`), the
:class:`~repro.runtime.serving.ServingRuntime` façade over it, and the
continuous-drain :class:`~repro.runtime.frontdoor.AsyncServingRuntime`
front door (submit while a drain is in flight; futures per request).
Networked serving puts a versioned wire protocol on the front door
(:mod:`repro.runtime.net`) and routes traffic across crash-tolerant
replica processes (:mod:`repro.runtime.fleet`).
"""

from .evaluation import (
    AccuracyReport,
    SchemeLatency,
    calibrated_latency_model,
    evaluate_accuracy,
    scheme_latencies,
)
from .executor import (
    BatchExecutor,
    EngineCache,
    EngineCacheStats,
    RequestReport,
)
from .faults import (
    ALL_SITES,
    CircuitBreaker,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    active_injector,
    fault_scope,
    maybe_corrupt,
    maybe_inject,
    set_fault_injector,
)
from .fleet import (
    BATCH_ID_STRIDE,
    FleetHandle,
    FleetRouter,
    read_execution_logs,
)
from .frontdoor import AdmissionController, AsyncServingRuntime, RequestHandle
from .net import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    ReplicaProcessHandle,
    ReplicaServer,
    decode_error,
    decode_frame,
    encode_error,
    encode_frame,
    recv_exactly,
    recv_frame,
    send_frame,
    spawn_replica_process,
)
from .scheduler import (
    Batch,
    BatchKey,
    BatchScheduler,
    DeadlinePolicy,
    FifoPolicy,
    InferenceRequest,
    SchedulingPolicy,
    SizeAwarePolicy,
)
from .serving import (
    ServingRuntime,
    ServingStats,
    run_sequential_baseline,
    summarize,
)

__all__ = [
    "ALL_SITES",
    "BATCH_ID_STRIDE",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "AccuracyReport",
    "AdmissionController",
    "AsyncServingRuntime",
    "Batch",
    "BatchExecutor",
    "BatchKey",
    "BatchScheduler",
    "CircuitBreaker",
    "DeadlinePolicy",
    "EngineCache",
    "EngineCacheStats",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FifoPolicy",
    "FleetHandle",
    "FleetRouter",
    "InferenceRequest",
    "ReplicaProcessHandle",
    "ReplicaServer",
    "RequestHandle",
    "RequestReport",
    "RetryPolicy",
    "SchedulingPolicy",
    "SchemeLatency",
    "ServingRuntime",
    "ServingStats",
    "SizeAwarePolicy",
    "active_injector",
    "calibrated_latency_model",
    "decode_error",
    "decode_frame",
    "encode_error",
    "encode_frame",
    "evaluate_accuracy",
    "fault_scope",
    "maybe_corrupt",
    "maybe_inject",
    "read_execution_logs",
    "recv_exactly",
    "recv_frame",
    "run_sequential_baseline",
    "scheme_latencies",
    "send_frame",
    "set_fault_injector",
    "spawn_replica_process",
    "summarize",
]
