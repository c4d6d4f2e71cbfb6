"""Run one workload of the end-to-end benchmark in this (fresh) process.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> \
        [--seconds 20] [--trace 0|1] [--smoke] [--record DIR] [--out FILE]

Prints every metric by name with its unit, then -- as the last line -- one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
listed in ``BENCHMARK.json``.  See ``README.md`` for the protocol.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import measure
import tracing

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".bench_work"
#: set-ups per run; ``setup_s`` is their median, the last one is kept and timed
SETUPS = 3

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_share": "ratio",
    "online_mb_per_request": "MB",
    "online_rounds_per_request": "count",
    "he_ops_per_request": "count",
}

PER_LAYER = {
    "he.kernels.ntt_ms_per_request": "ms",
    "he.kernels.ntt_calls_per_request": "count",
    "he.bfv.encrypt_ms_per_request": "ms",
    "he.bfv.decrypt_ms_per_request": "ms",
    "he.bfv.mul_plain_ms_per_request": "ms",
    "he.bfv.add_ms_per_request": "ms",
    "he.matmul.self_ms_per_request": "ms",
    "he.tracker.transforms_per_request": "count",
    "he.tracker.rotations_per_request": "count",
    "he.tracker.record_calls_per_request": "count",
    "he.tracker.record_ms_per_request": "ms",
    "he.simulated.mul_plain_ms_per_request": "ms",
    "he.simulated.add_ms_per_request": "ms",
    "protocols.fhgs.online_ms_per_request": "ms",
    "protocols.fhgs.prepare_ms_per_build": "ms",
    "protocols.hgs.online_ms_per_request": "ms",
    "protocols.hgs.prepare_ms_per_build": "ms",
    "protocols.nonlinear.gc_ms_per_request": "ms",
    "protocols.nonlinear.calls_per_request": "count",
    "protocols.channel.messages_per_request": "count",
    "protocols.channel.log_len_end": "count",
    "protocols.primer.run_batch_ms_per_request": "ms",
    "protocols.primer.prepare_ms_per_build": "ms",
    "protocols.primer.install_ms_per_build": "ms",
    "protocols.planstore.load_ms": "ms",
    "protocols.planstore.store_ms": "ms",
    "protocols.planstore.hit_share": "ratio",
    "protocols.planstore.mb_per_plan": "MB",
    "protocols.planstore.prunes": "count",
    "runtime.executor.cold_build_ms": "ms",
    "runtime.executor.warm_build_ms": "ms",
    "runtime.executor.cache_hit_share": "ratio",
    "runtime.executor.evictions": "count",
    "runtime.executor.execute_ms_per_batch": "ms",
    "runtime.scheduler.queue_wait_ms_p50": "ms",
    "runtime.scheduler.batch_size_mean": "count",
    "runtime.scheduler.batch_fill_share": "ratio",
    "runtime.scheduler.next_batch_us": "us",
    "runtime.frontdoor.submit_us_per_request": "us",
    "runtime.frontdoor.overhead_ms_per_round": "ms",
    "runtime.net.encode_us_per_frame": "us",
    "runtime.net.decode_us_per_frame": "us",
    "runtime.net.frames_per_request": "count",
    "runtime.net.wire_bytes_per_request": "B",
    "runtime.fleet.submit_us_per_request": "us",
    "runtime.fleet.conservation_gap": "count",
    "runtime.fleet.reroutes": "count",
    "runtime.fleet.teardown_kills": "count",
    "client.median_block_rps": "1/s",
    "client.median_round_ms": "ms",
    "client.latency_p90_ms": "ms",
    "client.drift_ratio": "ratio",
    "client.block_iqr_share": "ratio",
    "host.calib_ms": "ms",
    "host.cpu_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.coverage_share": "ratio",
}


class InvalidRun(Exception):
    """A determinism guard tripped: the numbers of this run mean nothing."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal length of the timed region (sets the round count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="a few rounds only")
    parser.add_argument("--record", type=Path, help="also write the result object into DIR")
    parser.add_argument("--out", type=Path, help="write the spans of a --trace run here")
    return parser.parse_args(argv)


def pin_kernel_tier() -> str:
    """Compile/load the C kernels before any clock starts and pin the tier."""
    from repro.he import kernels

    tier = "compiled" if "compiled" in kernels.available_tiers() else "reference"
    kernels.set_kernel_tier(tier)
    return tier


def run_phase(workload, inputs, warmup: int, blocks: int, workdir: Path, watchdog, *,
              setups: int):
    """Set up ``setups`` times, then time the rounds after the kept set-up.

    A set-up is construction, engine builds and the warm-up rounds; every
    set-up but the last is torn down again, so each does identical work.
    """
    warm_rounds, timed_rounds = inputs.rounds[:warmup], inputs.rounds[warmup:]
    tally, probe = measure.Tally(), measure.HostProbe()
    setups_done, kills = [], 0
    for index in range(setups):
        start, sampled = time.perf_counter(), len(probe.samples)
        session = workload.open(inputs, workdir, watchdog)
        try:
            measure.run_rounds(session, warm_rounds, tally, probe)
        except BaseException:
            session.close()
            raise
        # the probe's own samples are not part of the set-up
        setups_done.append(time.perf_counter() - start - sum(probe.samples[sampled:]))
        if index < setups - 1:
            kills += session.close()["teardown_kills"]
    try:
        gc.collect()
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        times, reports = measure.run_blocks(session, timed_rounds, tally, probe, blocks)
        cpu_share = (time.process_time() - cpu_start) / (time.perf_counter() - wall_start)
        _, probe_reports = measure.run_rounds(
            session, [measure.Round([inputs.probe])], tally, probe
        )
        rss = measure.peak_rss_mb(session.child_pids())
        layer_stats = session.layer_stats()
    finally:
        closed = session.close()
    return {
        "setups": setups_done,
        "host_probe": probe,
        "times": times,
        "reports": reports,
        "blocks": blocks,
        "probe": probe_reports[0] if probe_reports else None,
        "tally": tally,
        "cpu_share": cpu_share,
        "peak_rss_mb": rss,
        "layer_stats": layer_stats,
        "teardown_kills": kills + closed["teardown_kills"],
        "child_traces": closed["child_traces"],
    }


def report_metrics(workload, reports) -> dict[str, float]:
    """Layer metrics every run can read off the returned ``RequestReport``s."""
    batches = {}
    for report in reports:
        batches.setdefault(report.batch_id, []).append(report)
    transforms = rotations = 0
    for members in batches.values():
        # A shared-slot batch reports one joint operation count on every member.
        for report in members[:1] if members[0].shared_slot_batch else members:
            ops = report.he_operations
            transforms += ops.get("ntt_forward", 0) + ops.get("ntt_inverse", 0)
            rotations += ops.get("he_rotate", 0)
    sizes = [report.batch_size for report in reports]
    return {
        "he.tracker.transforms_per_request": transforms / len(reports),
        "he.tracker.rotations_per_request": rotations / len(reports),
        "runtime.scheduler.queue_wait_ms_p50": 1e3 * statistics.median(
            report.queue_seconds for report in reports
        ),
        "runtime.scheduler.batch_size_mean": statistics.fmean(sizes),
        "runtime.scheduler.batch_fill_share": statistics.fmean(sizes) / workload.max_batch_size,
    }


def check_guards(phase, shared) -> None:
    from repro.he import kernels

    if kernels.kernel_fallback() is not None:
        raise InvalidRun(f"kernel tier fell back to reference: {kernels.kernel_fallback()}")
    if not phase["reports"]:
        raise InvalidRun("no request of the timed region returned a report")
    fill = shared["runtime.scheduler.batch_fill_share"]
    if fill != 1.0:
        raise InvalidRun(f"runtime.scheduler.batch_fill_share is {fill}, not 1.0")


def end_to_end(workload, phase) -> dict[str, float]:
    tally, probe = phase["tally"], phase["probe"]
    metrics = measure.timing_metrics(phase["times"], phase["blocks"], workload.per_round)
    metrics["setup_s"] = measure.quiet(phase["setups"])
    metrics["host.calib_ms"] = 1e3 * statistics.median(phase["host_probe"].samples)
    metrics["peak_rss_mb"] = phase["peak_rss_mb"]
    metrics["correct_share"] = tally.correct / tally.attempted
    if probe is None:
        raise InvalidRun("the probe request did not complete")
    metrics["online_mb_per_request"] = probe.online_bytes / 1e6
    metrics["online_rounds_per_request"] = probe.online_rounds
    metrics["he_ops_per_request"] = sum(probe.he_operations.values())
    metrics["host.cpu_share"] = phase["cpu_share"]
    return metrics


def per_layer(workload, base, traced, out: Path | None) -> tuple[dict, dict]:
    """``(per-layer metrics, end-to-end metrics of the untraced phase)``."""
    exports = [tracing.TRACER.export()]
    for path in traced["child_traces"]:
        with open(path) as handle:
            exports.append(json.load(handle))
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as handle:
            json.dump({"windows": traced["times"].windows, "processes": exports}, handle)
    trace = tracing.Trace(exports, traced["times"].windows)
    requests = workload.per_round * len(traced["times"].end)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(tracing.layer_metrics(trace, requests=requests, main_pid=os.getpid()))
    metrics.update(report_metrics(workload, traced["reports"]))
    metrics.update(traced["layer_stats"])
    metrics["protocols.channel.log_len_end"] += sum(
        export.get("channel_log_len", 0) for export in exports
    )
    metrics["runtime.frontdoor.overhead_ms_per_round"] = tracing.round_overhead_ms(
        trace, list(zip(traced["times"].submit, traced["times"].end, strict=True))
    )
    metrics["runtime.fleet.teardown_kills"] = base["teardown_kills"] + traced["teardown_kills"]
    untraced = end_to_end(workload, base)
    for name in PER_LAYER:
        if name.startswith(("client.", "host.")):
            metrics[name] = untraced[name]
    traced_rps = measure.timing_metrics(
        traced["times"], traced["blocks"], workload.per_round
    )["throughput_rps"]
    metrics["trace.overhead_share"] = 1.0 - traced_rps / untraced["throughput_rps"]
    metrics["trace.coverage_share"] = tracing.coverage_share(trace)
    return metrics, {name: untraced[name] for name in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK.mkdir(exist_ok=True)
    # The compiled kernel tier caches its shared library under the temp dir;
    # keep that (and every other scratch file) inside the checkout.
    (WORK / "tmp").mkdir(exist_ok=True)
    tempfile.tempdir = str(WORK / "tmp")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.runtime  # noqa: F401 - every layer loaded before any patching
    except ImportError as error:
        print(f"cannot import the program under test from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if workload.single_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # replicas inherit it
    watchdog = measure.Watchdog()
    watchdog.start()
    tier = pin_kernel_tier()
    seconds = args.seconds / 4 if args.trace else args.seconds
    warmup, per_block = workload.plan(seconds, args.smoke)
    blocks = 3 if args.smoke else measure.BLOCKS
    inputs = workload.generate(args.seed, warmup + blocks * per_block)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    print(f"workload {workload.name}  seed {args.seed}  kernel tier {tier}  "
          f"rounds {warmup} warm-up + {blocks} x {per_block} timed  W {workload.per_round}")
    try:
        if args.trace:
            base = run_phase(workload, inputs, warmup, blocks, workdir, watchdog, setups=1)
            tracing.TRACER.install()
            tracing.TRACER.active = True
            try:
                traced = run_phase(workload, inputs, warmup, blocks, workdir, watchdog, setups=1)
            finally:
                tracing.TRACER.active = False
            check_guards(traced, report_metrics(workload, traced["reports"]))
            metrics, untraced = per_layer(workload, base, traced, args.out)
            shown = {**untraced, **metrics}
            tallies = [base["tally"], traced["tally"]]
            phase = base
        else:
            setups = 1 if args.smoke else SETUPS
            phase = run_phase(workload, inputs, warmup, blocks, workdir, watchdog,
                              setups=setups)
            shared = report_metrics(workload, phase["reports"])
            check_guards(phase, shared)
            metrics = end_to_end(workload, phase)
            shown = {**metrics, **shared, "runtime.fleet.teardown_kills": phase["teardown_kills"]}
            tallies = [phase["tally"]]
            print(f"latency_p50_ms over {len(phase['times'].end)} rounds, "
                  f"throughput_rps over {blocks} blocks")
    except InvalidRun as error:
        print(f"invalid run: {error}", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        watchdog.cancel()
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(f"requests sent {attempted}  succeeded {attempted - failed}  failed {failed}")
    units = {**END_TO_END, **PER_LAYER}
    for name, value in shown.items():
        print(f"{name:<44} {value:>16.6f} {units[name]}")
    wanted = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in wanted.items()},
    }
    if args.record is not None:
        # The raw clocks, so another statistic can be tried without re-running.
        rounds = {
            "wall": phase["times"].walls, "latency": phase["times"].latencies,
            "host": phase["host_probe"].samples, "setups": phase["setups"],
        }
        args.record.mkdir(parents=True, exist_ok=True)
        name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
        with open(args.record / name, "w") as handle:
            json.dump({"workload": workload.name, "seed": args.seed, **result,
                       "printed": shown, "rounds": rounds}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
