"""Compare two sets of recorded benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py <runs-A> [<runs-B>]

Each directory holds the objects ``run.py --record DIR`` wrote (one per
workload x seed).  For every workload x end-to-end metric this prints each
side's median and quartiles, the bound from ``BENCHMARK.json`` and a verdict
for B against A:

``same``        B's median is within the bound of A's, either way
``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the bound
``unresolved``  a side's quartile spread is wider than the bound, so the
                runs cannot tell -- unless every run of one side beats every
                run of the other, which still counts

A gain smaller than the bound reads ``same`` here; claim one by the paired
rule of the ``choosing-metrics`` guide (README.md).  With one directory it
prints each metric's spread (quartile distance as a share of the median)
against a third of its bound -- the steadiness the benchmark contract asks of
ten runs with ten seeds -- and exits non-zero if any metric misses it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from measure import quartile_spread as spread

ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of the ``--trace 0`` records."""
    runs: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        with open(path) as handle:
            record = json.load(handle)
        metrics = runs.setdefault(record["workload"], {})
        for name, cell in record["metrics"].items():
            metrics.setdefault(name, []).append(cell["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    # Work on "badness" (larger is worse) so one set of comparisons serves
    # both directions.
    sign = 1.0 if better == "lower" else -1.0
    bad_a, bad_b = [sign * v for v in a], [sign * v for v in b]
    median_a = statistics.median(bad_a)
    worsening = (statistics.median(bad_b) - median_a) / abs(median_a) if median_a else 0.0
    if max(spread(a), spread(b)) > bound:
        if min(bad_b) > max(bad_a):
            return "worse"
        if max(bad_b) < min(bad_a):
            return "better"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    sides = [load_runs(Path(arg)) for arg in argv]
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if any(workload not in side for side in sides):
            continue
        print(f"\n{workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = []
            for side in sides:
                q1, median, q3 = quartiles(side[workload][name])
                columns.append(f"{median:>12.4f} [{q1:.4f} .. {q3:.4f}]")
            if len(sides) == 1:
                share = spread(sides[0][workload][name])
                steady = share <= bound / 3
                note = f"spread {share:.4f}  third of bound {bound / 3:.4f}  " + (
                    "steady" if steady else "NOT steady"
                )
                if not steady:
                    status = 1
            else:
                note = f"bound {bound}  " + verdict(
                    sides[0][workload][name], sides[1][workload][name], bound, metric["better"]
                )
                if note.endswith(("worse", "unresolved")):
                    status = 1
            print(f"  {name:<28}" + "  vs".join(columns) + f"  {note}")
    return status


if __name__ == "__main__":
    sys.exit(main())
