"""Measurement protocol shared by every workload of the end-to-end benchmark.

One generator thread drives a *closed loop in lock-step rounds*: submit the
round's W requests, wait for all W, repeat.  Work is a fixed **count** of
rounds (derived from ``--seconds`` by the workload, never a stopwatch), so
cost that depends on how many requests a long-lived engine has served is
identical run to run.  The timed rounds are cut into :data:`BLOCKS` equal
blocks.  Every block does the same work, so what tells their times apart is
the shared host, and the host only ever *adds* time: the gated timings are
read off the quiet blocks (:func:`quiet`), the all-block medians stay as
``client.*`` diagnostics.  README.md shows both on the same recorded runs.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: equal blocks the timed rounds are cut into
BLOCKS = 20
#: which block stands for the run: the one a tenth of the way up from the
#: fastest (the 3rd fastest of 20), so two fluke blocks cannot set the number
QUIET_QUANTILE = 0.1
#: the whole run exits non-zero this long after it started
DEADLINE_SECONDS = 170.0
#: a request whose result has not arrived this long after its round was
#: submitted counts as failed (the slowest healthy round is ~0.5 s)
RESULT_TIMEOUT_SECONDS = 30.0


@dataclass
class Request:
    """One generated request and the plaintext reference its result must match."""

    target: str                 #: model or weight-bank name
    payload: np.ndarray
    expected: np.ndarray
    variant: object = None      #: PrimerVariant for inference requests


@dataclass
class Round:
    requests: list[Request]
    #: model to (re-)register before submitting: ``(name, model)`` or None
    register: tuple | None = None


@dataclass
class Tally:
    """Requests sent / matching their reference / not (failed, refused, timed out)."""

    attempted: int = 0
    correct: int = 0

    @property
    def failed(self) -> int:
        return self.attempted - self.correct


class HostProbe:
    """A fixed pure-Python kernel, sampled between rounds: ``host.calib_ms``.

    A diagnostic only.  It tells a slow hour of the shared host (the probe
    slows with the run) from a slower program (it does not); no metric is
    scaled by it -- on recorded runs that made three workloads of four less
    steady (README.md).
    """

    INTERVAL_SECONDS = 0.2

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    @staticmethod
    def _kernel() -> int:
        total = 0
        for i in range(50_000):
            total += i * i % 7
        return total

    def sample(self) -> None:
        """Run the kernel, unless it ran within the last :data:`INTERVAL_SECONDS`."""
        start = time.perf_counter()
        if start - self._last >= self.INTERVAL_SECONDS:
            self._kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)


@dataclass
class RoundTimes:
    """Clock readings of the rounds of one phase (perf_counter seconds)."""

    begin: list[float] = field(default_factory=list)    # before register/submit
    submit: list[float] = field(default_factory=list)   # first submit
    end: list[float] = field(default_factory=list)      # last result

    @property
    def latencies(self) -> list[float]:
        return [e - s for s, e in zip(self.submit, self.end, strict=True)]

    @property
    def walls(self) -> list[float]:
        return [e - b for b, e in zip(self.begin, self.end, strict=True)]

    @property
    def windows(self) -> list[tuple[float, float]]:
        return list(zip(self.begin, self.end, strict=True))


def run_rounds(session, rounds: list[Round], tally: Tally, probe: HostProbe):
    """Drive ``rounds`` closed-loop; verify every result after the clock stops.

    Returns the round clocks and the reports that arrived (for the
    report-derived layer metrics).  A request that raises, is refused or
    times out is counted as attempted and not correct.  The host probe runs
    between rounds, outside every round's clock.
    """
    times = RoundTimes()
    outcomes: list[tuple[Request, object]] = []
    for round_ in rounds:
        probe.sample()
        times.begin.append(time.perf_counter())
        if round_.register is not None:
            session.register(*round_.register)
        times.submit.append(time.perf_counter())
        handles = []
        for request in round_.requests:
            try:
                handles.append(session.submit(request))
            except Exception as error:  # noqa: BLE001 - a refusal is a failed request
                handles.append(error)
        deadline = time.perf_counter() + RESULT_TIMEOUT_SECONDS
        for request, handle in zip(round_.requests, handles, strict=True):
            report = None
            if not isinstance(handle, Exception):
                try:
                    report = handle.result(timeout=max(0.05, deadline - time.perf_counter()))
                except Exception as error:  # noqa: BLE001 - timeout or typed failure
                    print(f"request failed: {error!r}", file=sys.stderr)
            outcomes.append((request, report))
        times.end.append(time.perf_counter())
    reports = []
    for request, report in outcomes:
        tally.attempted += 1
        if report is not None and session.matches(request, report):
            tally.correct += 1
        if report is not None:
            reports.append(report)
    return times, reports


def run_blocks(session, rounds: list[Round], tally: Tally, probe: HostProbe, blocks: int):
    """The timed region: ``blocks`` equal blocks, results verified between blocks."""
    per_block, ragged = divmod(len(rounds), blocks)
    if ragged or not per_block:
        raise ValueError(f"{len(rounds)} timed rounds do not fill {blocks} equal blocks")
    times, reports = RoundTimes(), []
    for index in range(blocks):
        chunk = rounds[index * per_block:(index + 1) * per_block]
        chunk_times, chunk_reports = run_rounds(session, chunk, tally, probe)
        times.begin += chunk_times.begin
        times.submit += chunk_times.submit
        times.end += chunk_times.end
        reports += chunk_reports
    return times, reports


def peak_rss_mb(child_pids=()) -> float:
    """``ru_maxrss`` of this process plus ``VmHWM`` of each live child, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass  # the child already exited; its peak is lost, not guessed
    return total_kb / 1024.0


def quartile_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quiet(values: list[float]) -> float:
    """The value :data:`QUIET_QUANTILE` of the way up from the smallest."""
    return sorted(values)[int(QUIET_QUANTILE * len(values))]


def timing_metrics(times: RoundTimes, blocks: int, per_round: int) -> dict:
    """Throughput, latency and the client-side diagnostics of one timed region."""
    per_block = len(times.end) // blocks
    walls, latencies = times.walls, times.latencies
    chunks = [slice(index * per_block, (index + 1) * per_block) for index in range(blocks)]
    block_walls = [sum(walls[chunk]) for chunk in chunks]
    block_latencies = [statistics.median(latencies[chunk]) for chunk in chunks]
    edge = max(1, blocks // 4)
    return {
        "throughput_rps": per_round * per_block / quiet(block_walls),
        "latency_p50_ms": 1e3 * quiet(block_latencies),
        "client.median_block_rps": per_round * per_block / statistics.median(block_walls),
        "client.median_round_ms": 1e3 * statistics.median(latencies),
        "client.latency_p90_ms": 1e3 * percentile(latencies, 0.9),
        "client.drift_ratio": quiet(block_walls[-edge:]) / quiet(block_walls[:edge]),
        "client.block_iqr_share": quartile_spread(block_walls),
    }


class Watchdog:
    """Hard deadline for the whole run: kill the children, exit non-zero.

    On unchanged code a replica occasionally survives ``drain`` + SIGTERM and
    the bench process then hangs in interpreter exit; a benchmark that can
    hang is worse than one that fails.
    """

    def __init__(self) -> None:
        self.children: set[int] = set()
        self._timer = threading.Timer(DEADLINE_SECONDS, self._expire)
        self._timer.daemon = True

    def start(self) -> None:
        self._timer.start()

    def cancel(self) -> None:
        self._timer.cancel()

    def _expire(self) -> None:
        print(f"watchdog: run exceeded {DEADLINE_SECONDS:.0f} s, aborting", file=sys.stderr)
        for pid in list(self.children):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        sys.stderr.flush()
        os._exit(3)
