"""The four workloads of the end-to-end benchmark.

Each workload fixes a *shape* (sizes, keys, requests per round W, batch
size) and derives everything else from ``--seed``.  W per key always equals
``max_batch_size`` and the front door lingers :data:`LINGER_SECONDS` for a
key to fill (returning the moment it is full), so every batch is full and
batch composition is identical run to run.  ``README.md`` says why each
workload exists and which layer it is meant to expose.

Inference inputs are drawn from small *screened* families (model seeds and
token sequences fixed here, checked by ``screen_inputs.py``): the 15-bit
fixed-point protocol's max-abs error against float logits has a heavy tail
-- 1.30 seen in 2100 unscreened (model, input) pairs, against the suite's
tolerance of 1.0 -- so an unscreened draw would fail about one request in a
thousand and make ``correct_share`` a lottery.  Cost does not depend on
token values, so screening removes that lottery and nothing else.
"""

from __future__ import annotations

import multiprocessing
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from measure import Request, Round
from tracing import TRACER

from repro.he import ExactBFVBackend
from repro.he.params import rns_serving_parameters
from repro.nn import BERT_BASE, TransformerEncoder, scaled_config
from repro.protocols.formats import protocol_he_parameters
from repro.protocols.planstore import PlanStore
from repro.protocols.primer import PRIMER_F, PRIMER_FPC
from repro.runtime import AsyncServingRuntime, FleetRouter, ReplicaProcessHandle, ReplicaServer

#: how long a front door waits for a key to fill.  It returns the moment the
#: key is full, so in a healthy round this is never waited out; it only has to
#: outlast a stall of the submitting thread.  At 0.25 s one fleet_wire run in
#: forty formed a 31-request batch on the shared reference host.
LINGER_SECONDS = 1.0
#: the suite's tolerance for private logits against ``TransformerEncoder.logits``
LOGIT_TOLERANCE = 1.0

#: screened inference inputs (see the module docstring and screen_inputs.py)
TOKEN_POOL_SEED = 4
INFER_MODEL_SEED = 3
INFER_POOL_SIZE = 32
CHURN_MODEL_SEED0 = 1000
CHURN_POOL_SIZE = 8
CHURN_CANDIDATES = 120
#: offsets from CHURN_MODEL_SEED0 whose error on the token pool exceeds 0.6
CHURN_EXCLUDED = frozenset({10, 14, 17, 20, 40, 42, 51, 52, 57, 63, 74, 78, 83, 98, 108})


@dataclass
class Inputs:
    """Everything a run is given: the rounds, one solo probe, shared fixtures."""

    rounds: list[Round]
    probe: Request
    fixtures: dict


class DoorSession:
    """One in-process front door plus what the harness may ask of it."""

    def __init__(self, door: AsyncServingRuntime, plan_dir: Path | None = None) -> None:
        self.door = door
        self._plan_dir = plan_dir

    def register(self, name: str, model) -> None:
        self.door.runtime.register_model(name, model)

    def submit(self, request: Request):
        if request.variant is None:
            return self.door.submit_linear(request.target, request.payload)
        return self.door.submit(request.target, request.payload, variant=request.variant)

    @staticmethod
    def matches(request: Request, report) -> bool:
        if request.variant is None:
            return np.array_equal(report.result, request.expected)
        return float(np.max(np.abs(report.result - request.expected))) < LOGIT_TOLERANCE

    def child_pids(self) -> list[int]:
        return []

    def layer_stats(self) -> dict[str, float]:
        """Counters only this process can read (store, cache, channel logs)."""
        runtime = self.door.runtime
        cache = runtime.engine_cache
        log_len = len(runtime.linear_channel.messages) + sum(
            len(cache.entry(key).engine.channel.messages) for key in cache.cached_keys()
        )
        stats = {
            "protocols.channel.log_len_end": log_len,
            "runtime.executor.evictions": cache.stats().evictions,
        }
        if cache.plan_store is not None:
            store = cache.plan_store.stats()
            lookups = store.hits + store.misses
            stats["protocols.planstore.hit_share"] = store.hits / lookups if lookups else 0.0
            stats["protocols.planstore.mb_per_plan"] = (
                store.total_bytes / store.entries / 1e6 if store.entries else 0.0
            )
            stats["protocols.planstore.prunes"] = store.prunes
        return stats

    def close(self) -> dict:
        self.door.close(timeout=60)
        if self._plan_dir is not None:
            shutil.rmtree(self._plan_dir, ignore_errors=True)
        return {"teardown_kills": 0, "child_traces": []}


def _replica_main(pipe, name, banks, fleet_dir, max_batch_size, trace_path) -> None:
    """Child process: one production ``ReplicaServer``, drained by DRAIN/SIGTERM."""
    server = ReplicaServer(
        None, name=name, weight_banks=banks, fleet_dir=fleet_dir,
        max_batch_size=max_batch_size, linger_seconds=LINGER_SECONDS,
    )
    server.install_signal_handlers()
    server.start()
    pipe.send((server.host, server.port))
    pipe.close()
    server.wait()
    if TRACER.active:
        TRACER.dump(
            trace_path, channel_log_len=len(server.runtime.linear_channel.messages)
        )


def _spawn_replica(name, banks, workdir: Path, max_batch_size: int, watchdog):
    """Fork one replica; returns its router-facing handle and its trace path."""
    context = multiprocessing.get_context("fork")
    trace_path = workdir / f"trace-{name}.json"
    parent_end, child_end = context.Pipe()
    process = context.Process(
        target=_replica_main,
        args=(child_end, name, banks, workdir / "fleet", max_batch_size, trace_path),
        name=name, daemon=True,
    )
    process.start()
    child_end.close()
    watchdog.children.add(process.pid)
    if not parent_end.poll(30):
        process.kill()
        raise RuntimeError(f"replica {name} did not report a port within 30 s")
    host, port = parent_end.recv()
    parent_end.close()
    return ReplicaProcessHandle(name, host, port, process), trace_path


class FleetSession:
    """``FleetRouter`` over forked replica processes (health monitor off)."""

    def __init__(self, banks, workdir: Path, watchdog, *, replicas: int, max_batch_size: int):
        self._watchdog = watchdog
        spawned = [
            _spawn_replica(f"rep-{index}", banks, workdir, max_batch_size, watchdog)
            for index in range(replicas)
        ]
        self.handles = [handle for handle, _path in spawned]
        self._trace_paths = [path for _handle, path in spawned]
        self.router = FleetRouter(self.handles, start_health_monitor=False)

    def register(self, name: str, model) -> None:
        raise NotImplementedError("fleet_wire serves weight banks only")

    def submit(self, request: Request):
        return self.router.submit_linear(request.target, request.payload)

    matches = staticmethod(DoorSession.matches)

    def child_pids(self) -> list[int]:
        return [handle.process.pid for handle in self.handles]

    def layer_stats(self) -> dict[str, float]:
        return {
            "runtime.fleet.conservation_gap": self.router.conservation()["gap"],
            "runtime.fleet.reroutes": self.router.reroutes,
        }

    def close(self) -> dict:
        """drain -> close router -> terminate -> join(10 s) -> kill."""
        kills = 0
        self.router.drain_replicas()
        self.router.close(timeout=10)
        for handle in self.handles:
            handle.terminate()
            handle.join(10)
            if handle.alive:
                handle.kill()
                handle.join(10)
                kills += 1
            self._watchdog.children.discard(handle.process.pid)
        return {
            "teardown_kills": kills,
            "child_traces": [path for path in self._trace_paths if path.exists()],
        }


class Workload:
    """Shape of one workload; subclasses generate inputs and open sessions."""

    name: str
    per_round: int            #: W, requests submitted per round
    max_batch_size: int
    #: rounds per block and warm-up rounds of a nominal 20 s run on 2 cores
    block_rounds: int
    warmup_rounds: int
    #: rounds after which the workload's pattern repeats; blocks hold whole cycles
    cycle = 1
    #: pin the bench process and its children to one CPU
    single_cpu = False

    def plan(self, seconds: float, smoke: bool) -> tuple[int, int]:
        """``(warm-up rounds, rounds per block)`` for a nominal run length.

        The count is a pure function of ``--seconds``: the timed region is a
        fixed amount of work, not a stopwatch (see measure.py).
        """
        if smoke:
            return 1, 1
        cycles = seconds / 20.0 / self.cycle
        return (
            self.cycle * max(1, round(self.warmup_rounds * cycles)),
            self.cycle * max(1, round(self.block_rounds * cycles)),
        )

    def generate(self, seed: int, rounds: int) -> Inputs:
        raise NotImplementedError

    def open(self, inputs: Inputs, workdir: Path, watchdog):
        raise NotImplementedError


class LinearExact(Workload):
    name = "linear_exact"
    """Real RLWE arithmetic on the exact BFV backend: he.kernels/ntt/bfv/matmul do nearly
    all the work, so a kernel, NTT-residency or packing change must move it."""

    per_round = 8
    max_batch_size = 8
    block_rounds = 3
    warmup_rounds = 6
    bank_shape = (32, 32)
    request_shape = (16, 32)

    def generate(self, seed: int, rounds: int) -> Inputs:
        rng = np.random.default_rng([seed, 1])
        params = rns_serving_parameters(4096, 6)
        t = params.plaintext_modulus
        # no zero weights: a zero skips its multiply, and he_ops_per_request must
        # not depend on the seed
        bank = rng.integers(1, t, size=self.bank_shape)

        def request() -> Request:
            x = rng.integers(0, t, size=self.request_shape)
            return Request("bank", x, (x @ bank) % t)

        made = [Round([request() for _ in range(self.per_round)]) for _ in range(rounds)]
        return Inputs(made, request(), {"bank": bank, "params": params})

    def open(self, inputs: Inputs, workdir: Path, watchdog) -> DoorSession:
        backend = ExactBFVBackend(inputs.fixtures["params"], seed=5)
        door = AsyncServingRuntime(
            backend_factory=lambda: backend,
            max_batch_size=self.max_batch_size,
            linger_seconds=LINGER_SECONDS,
        )
        door.runtime.register_weights("bank", inputs.fixtures["bank"])
        return DoorSession(door)


class InferWarm(Workload):
    name = "infer_warm"
    """Full Primer inference on two long-lived engines: protocols.fhgs/hgs/nonlinear,
    he.simulated, he.tracker and the channel do the work and he.kernels none."""

    per_round = 8
    max_batch_size = 4
    block_rounds = 3
    warmup_rounds = 6
    variants = (PRIMER_FPC, PRIMER_F)
    config = dict(embed_dim=32, num_heads=4, seq_len=8, vocab_size=128, num_blocks=2)

    def generate(self, seed: int, rounds: int) -> Inputs:
        rng = np.random.default_rng([seed, 2])
        cfg = scaled_config(BERT_BASE, **self.config)
        model = TransformerEncoder.initialise(cfg, seed=INFER_MODEL_SEED)
        pool = np.random.default_rng(TOKEN_POOL_SEED).integers(
            0, cfg.vocab_size, size=(INFER_POOL_SIZE, cfg.seq_len)
        )
        logits = [model.logits(tokens) for tokens in pool]

        def request(variant) -> Request:
            pick = int(rng.integers(len(pool)))
            return Request("m", pool[pick], logits[pick], variant)

        made = [
            Round([
                request(variant)
                for variant in self.variants
                for _ in range(self.max_batch_size)
            ])
            for _ in range(rounds)
        ]
        return Inputs(made, request(PRIMER_FPC), {"model": model})

    def open(self, inputs: Inputs, workdir: Path, watchdog) -> DoorSession:
        door = AsyncServingRuntime(
            {"m": inputs.fixtures["model"]},
            max_batch_size=self.max_batch_size,
            linger_seconds=LINGER_SECONDS,
            seed=1,
        )
        for variant in self.variants:
            door.runtime.engine_for("m", variant)
        return DoorSession(door)


class EngineChurn(Workload):
    name = "engine_churn"
    """Every request misses a 3-entry engine cache over 12 models and every 4th
    re-registers fresh weights: prepare/install/keygen/plan-store I/O, not online."""

    per_round = 1
    max_batch_size = 1
    block_rounds = 12
    warmup_rounds = 24
    models = 12
    cold_every = 4
    cycle = 4
    config = dict(embed_dim=16, num_heads=2, seq_len=8, vocab_size=64, num_blocks=2)

    def generate(self, seed: int, rounds: int) -> Inputs:
        rng = np.random.default_rng([seed, 3])
        cfg = scaled_config(BERT_BASE, **self.config)
        pool = np.random.default_rng(TOKEN_POOL_SEED).integers(
            0, cfg.vocab_size, size=(CHURN_POOL_SIZE, cfg.seq_len)
        )
        offsets = [k for k in range(CHURN_CANDIDATES) if k not in CHURN_EXCLUDED]
        order = [offsets[i] for i in rng.permutation(len(offsets))]

        def model(position: int) -> TransformerEncoder:
            # Past the screened family the fresh models repeat; by then the
            # 16-entry store pruned the old plan, so the build is cold again.
            offset = order[position % len(order)]
            return TransformerEncoder.initialise(cfg, seed=CHURN_MODEL_SEED0 + offset)

        base = {f"m{i}": model(i) for i in range(self.models)}
        current = dict(base)
        fresh = self.models

        def request(name: str) -> Request:
            tokens = pool[int(rng.integers(len(pool)))]
            return Request(name, tokens, current[name].logits(tokens), PRIMER_FPC)

        made = []
        for index in range(rounds):
            name = f"m{index % self.models}"
            register = None
            if index % self.cold_every == 0:
                current[name] = model(fresh)
                fresh += 1
                register = (name, current[name])
            made.append(Round([request(name)], register))
        probe = request(f"m{rounds % self.models}")
        return Inputs(made, probe, {"base": base})

    def open(self, inputs: Inputs, workdir: Path, watchdog) -> DoorSession:
        plan_dir = workdir / "plans"
        shutil.rmtree(plan_dir, ignore_errors=True)
        door = AsyncServingRuntime(
            dict(inputs.fixtures["base"]),
            max_batch_size=self.max_batch_size,
            linger_seconds=LINGER_SECONDS,
            seed=1,
            plan_store=PlanStore(plan_dir, max_entries=16),
            engine_cache_entries=3,
        )
        return DoorSession(door, plan_dir)


class FleetWire(Workload):
    name = "fleet_wire"
    """Negligible compute behind a FleetRouter and 2 replica processes with 64 in flight:
    runtime.net framing, fleet routing, front door and scheduler are the cost."""

    per_round = 64
    max_batch_size = 32
    block_rounds = 50
    warmup_rounds = 80
    replicas = 2
    # Each submit is a router -> replica -> router round trip.  Across the two
    # vCPUs of the reference guest every wake-up is a VM exit whose cost the
    # neighbours set: unpinned, a round takes 30 ms +- 20 % from run to run;
    # on one CPU the same rounds take 19 ms and the layers' CPU work is what
    # is left, which is what this workload is for.
    single_cpu = True
    bank_shape = (16, 8)
    request_shape = (8, 16)

    def generate(self, seed: int, rounds: int) -> Inputs:
        rng = np.random.default_rng([seed, 4])
        t = protocol_he_parameters().plaintext_modulus
        banks = {
            f"b{i}": rng.integers(1, 64, size=self.bank_shape) for i in range(self.replicas)
        }

        def request(index: int) -> Request:
            name = f"b{index % self.replicas}"
            x = rng.integers(0, 64, size=self.request_shape)
            return Request(name, x, (x @ banks[name]) % t)

        made = [
            Round([request(i) for i in range(self.per_round)]) for _ in range(rounds)
        ]
        return Inputs(made, request(0), {"banks": banks})

    def open(self, inputs: Inputs, workdir: Path, watchdog) -> FleetSession:
        shutil.rmtree(workdir / "fleet", ignore_errors=True)
        return FleetSession(
            inputs.fixtures["banks"], workdir, watchdog,
            replicas=self.replicas, max_batch_size=self.max_batch_size,
        )


WORKLOADS = {w.name: w for w in (LinearExact(), InferWarm(), EngineChurn(), FleetWire())}
