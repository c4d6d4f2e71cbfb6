"""Outside-in span tracer for the end-to-end benchmark.

The program under test has no tracing of its own yet (ROADMAP item 1), so
the benchmark records spans from *its own* files: :func:`install` replaces
the public callables named in :data:`TARGETS` with timing wrappers, the
workload runs unchanged, and :func:`layer_metrics` turns the recorded spans
into the per-layer metrics listed in ``BENCHMARK.json``.

Two wrapper kinds keep the overhead proportional to the information kept:

* a **span** records ``(id, name, start, end, parent)`` -- one tuple per
  call, parent = the span open on the same thread when it started;
* a **leaf** only accumulates ``calls`` and ``seconds`` under
  ``(parent span, name)`` -- for callables hit hundreds of times per
  request (``OperationTracker.record``, ``Channel.send``, the simulated
  backend's arithmetic), where a tuple per call would cost more than the
  call.

A span's *self time* is its duration minus its child spans and the leaves
charged to it.  Timestamps are ``time.perf_counter`` (``CLOCK_MONOTONIC`` on
Linux, shared by every process on the host), so the spans a forked replica
dumps at exit line up with the router's; which spans fall inside the timed
region is decided afterwards from the timed windows, not at record time.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import statistics
import sys
import threading
import time

SPAN, LEAF = "span", "leaf"

#: (module, class or None, attribute, span name, kind).  Only public names:
#: the benchmark observes the layers from outside and must keep working when
#: their internals are rewritten.
TARGETS = [
    ("repro.he.kernels", None, "stacked_ntt", "he.kernels.ntt", SPAN),
    ("repro.he.kernels", None, "ntt_batch", "he.kernels.ntt", SPAN),
    ("repro.he.backend", "ExactBFVBackend", "encrypt", "he.bfv.encrypt", SPAN),
    ("repro.he.backend", "ExactBFVBackend", "encrypt_batch", "he.bfv.encrypt", SPAN),
    ("repro.he.backend", "ExactBFVBackend", "decrypt", "he.bfv.decrypt", SPAN),
    ("repro.he.backend", "ExactBFVBackend", "decrypt_batch", "he.bfv.decrypt", SPAN),
    ("repro.he.backend", "ExactBFVBackend", "mul_plain", "he.bfv.mul_plain", SPAN),
    # Under a fused kernel tier the column kernel's multiply-accumulate is one
    # linear_combine_batch call; it is charged to mul_plain, and add reads 0.
    ("repro.he.backend", "ExactBFVBackend", "linear_combine_batch", "he.bfv.mul_plain", SPAN),
    ("repro.he.backend", "ExactBFVBackend", "add", "he.bfv.add", SPAN),
    ("repro.he.matmul", None, "encrypted_batch_matmul", "he.matmul", SPAN),
    ("repro.he.tracker", "OperationTracker", "record", "he.tracker.record", LEAF),
    ("repro.he.simulated", "SimulatedHEBackend", "mul_plain", "he.simulated.mul_plain", LEAF),
    ("repro.he.simulated", "SimulatedHEBackend", "add", "he.simulated.add", LEAF),
    ("repro.protocols.fhgs", "FHGSMatmul", "online", "protocols.fhgs.online", SPAN),
    ("repro.protocols.fhgs", "FHGSMatmul", "online_batch", "protocols.fhgs.online", SPAN),
    ("repro.protocols.fhgs", "FHGSMatmul", "prepare", "protocols.fhgs.prepare", SPAN),
    ("repro.protocols.hgs", "HGSLinearLayer", "online", "protocols.hgs.online", SPAN),
    ("repro.protocols.hgs", "HGSLinearLayer", "online_batch", "protocols.hgs.online", SPAN),
    ("repro.protocols.hgs", "HGSLinearLayer", "prepare", "protocols.hgs.prepare", SPAN),
    *[
        ("repro.protocols.nonlinear", "GCNonlinearEvaluator", op, "protocols.nonlinear.gc", SPAN)
        for op in ("softmax", "gelu", "tanh", "layer_norm", "relu", "truncate")
    ],
    ("repro.protocols.channel", "Channel", "send", "protocols.channel.send", LEAF),
    ("repro.protocols.primer", "PrivateTransformerInference", "run_batch",
     "protocols.primer.run_batch", SPAN),
    ("repro.protocols.primer", "PrivateTransformerInference", "prepare",
     "protocols.primer.prepare", SPAN),
    ("repro.protocols.primer", "PrivateTransformerInference", "install",
     "protocols.primer.install", SPAN),
    ("repro.protocols.planstore", "PlanStore", "load", "protocols.planstore.load", SPAN),
    ("repro.protocols.planstore", "PlanStore", "store", "protocols.planstore.store", SPAN),
    ("repro.runtime.executor", "EngineCache", "entry", "runtime.executor.entry", SPAN),
    ("repro.runtime.executor", "BatchExecutor", "execute", "runtime.executor.execute", SPAN),
    ("repro.runtime.scheduler", "BatchScheduler", "next_batch", "runtime.scheduler.next_batch",
     SPAN),
    ("repro.runtime.serving", "ServingRuntime", "register_model", "runtime.serving.register",
     SPAN),
    ("repro.runtime.frontdoor", "AsyncServingRuntime", "submit", "runtime.frontdoor.submit",
     SPAN),
    ("repro.runtime.frontdoor", "AsyncServingRuntime", "submit_linear",
     "runtime.frontdoor.submit", SPAN),
    ("repro.runtime.net", None, "encode_frame", "runtime.net.encode", SPAN),
    ("repro.runtime.net", None, "send_frame", "runtime.net.send", SPAN),
    ("repro.runtime.net", None, "recv_frame", "runtime.net.recv", SPAN),
    # The blocking socket read: a child of recv, so recv's self time is the
    # header check, CRC and unpickle -- the decode -- and not the wait.
    ("repro.runtime.net", None, "recv_exactly", "runtime.net.wait", SPAN),
    ("repro.runtime.fleet", "FleetRouter", "submit", "runtime.fleet.submit", SPAN),
    ("repro.runtime.fleet", "FleetRouter", "submit_linear", "runtime.fleet.submit", SPAN),
]

#: spans whose result is a byte string worth summing (wire bytes)
_SIZED = {"runtime.net.encode", "runtime.net.wait"}


class Tracer:
    """In-memory span store; inactive (pass-through wrappers) until started."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []          # (id, name, start, end, parent, size)
        self._leaf_tables: list[dict] = []    # one {(parent, name): [calls, s]} per thread
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self.installed = False

    # -- recording -----------------------------------------------------------
    def _new_state(self) -> list:
        """Per-thread ``[span stack, leaf depth, leaf table]``."""
        state = self._tls.state = [[], 0, {}]
        self._leaf_tables.append(state[2])
        return state

    def reset(self) -> None:
        """Forget everything recorded (a forked child starts its own trace)."""
        self.spans = []
        self._leaf_tables = []
        self._tls = threading.local()

    def _span(self, name, fn):
        sized = name in _SIZED
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            try:
                stack = self._tls.state[0]
            except AttributeError:
                stack = self._new_state()[0]
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            size = 0
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    size = len(result)
                return result
            finally:
                end = perf()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, size))

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name, fn):
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            try:
                state = self._tls.state
            except AttributeError:
                state = self._new_state()
            state[1] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                state[1] -= 1
                stack = state[0]
                # A leaf nested in another leaf (record() inside mul_plain) is
                # already inside the outer leaf's time: it is counted under its
                # own name, but only outermost leaves are charged to the span.
                key = (stack[-1] if stack else 0, name, state[1] == 0)
                cell = state[2].get(key)
                if cell is None:
                    state[2][key] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Replace every target with its wrapper (idempotent, never undone)."""
        if self.installed:
            return
        import importlib

        for module_name, class_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = getattr(owner, attr)
            wrapped = (self._span if kind == SPAN else self._leaf)(name, original)
            setattr(owner, attr, wrapped)
            if class_name is None:
                # ``from .net import send_frame`` bound the original in other
                # modules' namespaces; rebind those too.
                for other in list(sys.modules.values()):
                    if (
                        getattr(other, "__name__", "").startswith("repro.")
                        and getattr(other, attr, None) is original
                    ):
                        setattr(other, attr, wrapped)
        os.register_at_fork(after_in_child=self.reset)
        self.installed = True

    # -- export --------------------------------------------------------------
    def export(self) -> dict:
        leaves: dict[tuple, list] = {}
        for table in self._leaf_tables:
            for key, (calls, seconds) in list(table.items()):
                cell = leaves.setdefault(key, [0, 0.0])
                cell[0] += calls
                cell[1] += seconds
        return {
            "pid": os.getpid(),
            "spans": list(self.spans),
            "leaves": [[*key, *cell] for key, cell in leaves.items()],
        }

    def dump(self, path, **extra) -> None:
        with open(path, "w") as handle:
            json.dump({**self.export(), **extra}, handle)


TRACER = Tracer()


# -- analysis -------------------------------------------------------------------


def _union_seconds(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Trace:
    """Spans and leaves of every process of one traced run, merged."""

    def __init__(self, exports: list[dict], windows: list[tuple[float, float]]) -> None:
        #: timed rounds as sorted, disjoint ``(start, end)`` windows
        self.windows = sorted(windows)
        self._starts = [w[0] for w in self.windows]
        self.spans: dict[tuple, tuple] = {}          # key -> (name, start, end, parent, size)
        self.children: dict[tuple, list] = {}
        self._by_name: dict[str, list] = {}
        self._timed: set[tuple] = set()              # spans that started in a timed round
        self._leaf_seconds: dict[tuple, float] = {}  # parent -> leaf time charged to it
        self._leaves: list[tuple] = []               # (parent, name, calls, seconds)
        for export in exports:
            pid = export["pid"]
            for sid, name, start, end, parent, size in export["spans"]:
                key = (pid, sid)
                self.spans[key] = (name, start, end, (pid, parent), size)
                self.children.setdefault((pid, parent), []).append(key)
                self._by_name.setdefault(name, []).append(key)
                if self._window_of(start) is not None:
                    self._timed.add(key)
            for parent, name, top, calls, seconds in export["leaves"]:
                cell = (pid, parent)
                self._leaves.append((cell, name, calls, seconds))
                if top:
                    self._leaf_seconds[cell] = self._leaf_seconds.get(cell, 0.0) + seconds

    def _window_of(self, when: float) -> tuple[float, float] | None:
        index = bisect.bisect_right(self._starts, when) - 1
        if index >= 0 and when <= self.windows[index][1]:
            return self.windows[index]
        return None

    def select(self, name: str, *, timed_only: bool = True) -> list[tuple]:
        """Spans of ``name``: those started in a timed round, or all of the run."""
        keys = self._by_name.get(name, [])
        return [k for k in keys if k in self._timed] if timed_only else list(keys)

    def duration(self, key) -> float:
        _name, start, end, _parent, _size = self.spans[key]
        return end - start

    def self_seconds(self, key) -> float:
        inside = sum(self.duration(child) for child in self.children.get(key, ()))
        return self.duration(key) - inside - self._leaf_seconds.get(key, 0.0)

    def total(self, name: str, *, timed_only: bool = True) -> float:
        """Summed duration of ``name``, skipping spans nested in the same name."""
        return sum(
            self.duration(key)
            for key in self.select(name, timed_only=timed_only)
            if self.spans.get(self.spans[key][3], ("",))[0] != name
        )

    def has_descendant(self, key, name: str) -> bool:
        pending = list(self.children.get(key, ()))
        while pending:
            child = pending.pop()
            if self.spans[child][0] == name:
                return True
            pending.extend(self.children.get(child, ()))
        return False

    def leaf_totals(self, name: str) -> tuple[int, float]:
        """``(calls, seconds)`` of a leaf under spans of the timed region."""
        calls, seconds = 0, 0.0
        for parent, leaf_name, leaf_calls, leaf_seconds in self._leaves:
            if leaf_name == name and parent in self._timed:
                calls += leaf_calls
                seconds += leaf_seconds
        return calls, seconds

    def busy_intervals(self) -> list[tuple[float, float]]:
        """Top-level span intervals, clipped to the timed rounds.

        A top-level ``runtime.net.recv`` opens with a blocking wait for the
        peer; its interval begins when that first read returned.
        """
        intervals = []
        for key, (name, start, end, parent, _size) in self.spans.items():
            if parent in self.spans or name == "runtime.net.wait":
                continue
            if name == "runtime.net.recv":
                waits = [
                    self.spans[child][2] for child in self.children.get(key, ())
                    if self.spans[child][0] == "runtime.net.wait"
                ]
                start = min(waits, default=start)
            window = self._window_of(start)
            if window is not None:
                intervals.append((start, min(end, window[1])))
        return intervals


def _mean_ms(trace: Trace, keys) -> float:
    return 1e3 * statistics.fmean(trace.duration(k) for k in keys) if keys else 0.0


def layer_metrics(trace: Trace, *, requests: int, main_pid: int) -> dict[str, float]:
    """Per-layer metrics derivable from spans alone (timed rounds unless noted)."""

    def per_request_ms(seconds: float) -> float:
        return 1e3 * seconds / requests

    metrics: dict[str, float] = {}
    metrics["he.kernels.ntt_ms_per_request"] = per_request_ms(trace.total("he.kernels.ntt"))
    metrics["he.kernels.ntt_calls_per_request"] = len(trace.select("he.kernels.ntt")) / requests
    for op in ("encrypt", "decrypt", "mul_plain", "add"):
        metrics[f"he.bfv.{op}_ms_per_request"] = per_request_ms(trace.total(f"he.bfv.{op}"))
    metrics["he.matmul.self_ms_per_request"] = per_request_ms(
        sum(trace.self_seconds(k) for k in trace.select("he.matmul"))
    )
    record_calls, record_seconds = trace.leaf_totals("he.tracker.record")
    metrics["he.tracker.record_calls_per_request"] = record_calls / requests
    metrics["he.tracker.record_ms_per_request"] = per_request_ms(record_seconds)
    for op in ("mul_plain", "add"):
        metrics[f"he.simulated.{op}_ms_per_request"] = per_request_ms(
            trace.leaf_totals(f"he.simulated.{op}")[1]
        )

    # Offline work happens whenever an engine is built -- in set-up on
    # infer_warm, in the timed rounds on engine_churn -- so "per build"
    # metrics use every span of the run.
    builds = len(trace.select("protocols.primer.prepare", timed_only=False))

    def per_build_ms(name: str) -> float:
        return 1e3 * trace.total(name, timed_only=False) / builds if builds else 0.0

    for layer in ("fhgs", "hgs"):
        metrics[f"protocols.{layer}.online_ms_per_request"] = per_request_ms(
            trace.total(f"protocols.{layer}.online")
        )
        metrics[f"protocols.{layer}.prepare_ms_per_build"] = per_build_ms(
            f"protocols.{layer}.prepare"
        )
    metrics["protocols.nonlinear.gc_ms_per_request"] = per_request_ms(
        trace.total("protocols.nonlinear.gc")
    )
    metrics["protocols.nonlinear.calls_per_request"] = (
        len(trace.select("protocols.nonlinear.gc")) / requests
    )
    metrics["protocols.channel.messages_per_request"] = (
        trace.leaf_totals("protocols.channel.send")[0] / requests
    )
    metrics["protocols.primer.run_batch_ms_per_request"] = per_request_ms(
        trace.total("protocols.primer.run_batch")
    )
    metrics["protocols.primer.prepare_ms_per_build"] = per_build_ms("protocols.primer.prepare")
    metrics["protocols.primer.install_ms_per_build"] = _mean_ms(
        trace, trace.select("protocols.primer.install", timed_only=False)
    )
    for op in ("load", "store"):
        metrics[f"protocols.planstore.{op}_ms"] = _mean_ms(
            trace, trace.select(f"protocols.planstore.{op}", timed_only=False)
        )

    entries = trace.select("runtime.executor.entry", timed_only=False)
    cold = {k for k in entries if trace.has_descendant(k, "protocols.primer.prepare")}
    warm = {
        k for k in entries
        if k not in cold and trace.has_descendant(k, "protocols.planstore.load")
    }
    metrics["runtime.executor.cold_build_ms"] = _mean_ms(trace, cold)
    metrics["runtime.executor.warm_build_ms"] = _mean_ms(trace, warm)
    timed_entries = trace.select("runtime.executor.entry")
    metrics["runtime.executor.cache_hit_share"] = (
        sum(1 for k in timed_entries if k not in cold and k not in warm) / len(timed_entries)
        if timed_entries else 0.0
    )
    metrics["runtime.executor.execute_ms_per_batch"] = _mean_ms(
        trace, trace.select("runtime.executor.execute")
    )
    metrics["runtime.scheduler.next_batch_us"] = 1e3 * _mean_ms(
        trace, trace.select("runtime.scheduler.next_batch")
    )
    metrics["runtime.frontdoor.submit_us_per_request"] = 1e3 * _mean_ms(
        trace, trace.select("runtime.frontdoor.submit")
    )

    # Wire metrics are the router's side of each connection (the main process).
    def router_side(name: str) -> list[tuple]:
        return [k for k in trace.select(name) if k[0] == main_pid]

    encodes = router_side("runtime.net.encode")
    recvs = router_side("runtime.net.recv")
    waits = router_side("runtime.net.wait")
    metrics["runtime.net.encode_us_per_frame"] = 1e3 * _mean_ms(trace, encodes)
    metrics["runtime.net.decode_us_per_frame"] = (
        1e6 * statistics.fmean(trace.self_seconds(k) for k in recvs) if recvs else 0.0
    )
    metrics["runtime.net.frames_per_request"] = (len(encodes) + len(recvs)) / requests
    metrics["runtime.net.wire_bytes_per_request"] = (
        sum(trace.spans[k][4] for k in encodes + waits) / requests
    )
    metrics["runtime.fleet.submit_us_per_request"] = 1e3 * _mean_ms(
        trace, trace.select("runtime.fleet.submit")
    )
    return metrics


def round_overhead_ms(trace: Trace, rounds: list[tuple[float, float]]) -> float:
    """Median over rounds of (round latency - time some executor was running)."""
    executes = sorted(
        (trace.spans[k][1], trace.spans[k][2]) for k in trace.select("runtime.executor.execute")
    )
    starts = [e[0] for e in executes]
    gaps = []
    for start, end in rounds:
        low = bisect.bisect_left(starts, start)
        high = bisect.bisect_right(starts, end)
        busy = _union_seconds((s, min(e, end)) for s, e in executes[low:high])
        gaps.append((end - start) - busy)
    return 1e3 * statistics.median(gaps) if gaps else 0.0


def coverage_share(trace: Trace) -> float:
    """Share of the timed rounds during which some traced span was open."""
    wall = sum(end - start for start, end in trace.windows)
    return _union_seconds(trace.busy_intervals()) / wall if wall else 0.0
