#!/usr/bin/env python3
"""Compares two cost-ledger result sets written by `run.py --out DIR`.

    python3 bench/ledger/compare.py A B

A is the parent, B the change. Both sets must come from the same --seed and
--seconds, so their scenarios pair up seed by seed (run.py checks nothing
across sets; this script refuses sets whose seeds differ).

End-to-end metrics: for each scenario pair the ratio B/A is taken, oriented
so that above 1 is worse, and the verdict uses the bound BENCHMARK.json fixes
for the metric:
  worse       median ratio worse than the bound
  better      median ratio better than the bound
  within      median ratio within the bound
  unresolved  the ratios' interquartile spread is wider than the bound and
              not every pair falls beyond it on the same side
Deterministic metrics (recall, latency_s, overhead_mb, peak_heap_mb) are also
marked when every sample pair is identical, as a change that only speeds up
the simulator must leave them. Per-layer metrics: counters (any unit that is
not a host time or rate) must match exactly; host times are printed for
information. The "worse by" column is the median ratio minus one, positive
when B is worse.

Exit status: 1 when an end-to-end metric is worse than its bound, a counter
differs, a run failed its checks, or more consumer sessions failed in B;
2 on missing or mismatched result files; else 0.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HOST_UNITS = {"s", "ms", "us", "ns", "%", "1/s"}


class CompareError(Exception):
    pass


def load(directory, workload, trace):
    """Returns (params, {metric: (unit, samples)}) or None if absent."""
    suffix = "_trace" if trace else ""
    path = Path(directory) / f"BENCH_ledger_{workload}{suffix}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for point in doc["points"]:
        if point["section"] == section:
            p = point["params"]
            metrics[p["metric"]] = (p["unit"],
                                    point["metrics"]["value"]["samples"])
    return doc["params"], metrics


def worse_ratio(a, b, better):
    """B relative to A, oriented so that above 1 is worse."""
    if a == b:
        return 1.0
    if a == 0 or b == 0:
        return float("inf") if (b > a) == (better == "lower") else 0.0
    return b / a if better == "lower" else a / b


def verdict(a, b, better, bound):
    ratios = [worse_ratio(x, y, better) for x, y in zip(a, b)]
    change = statistics.median(ratios) - 1.0
    spread = 0.0
    if len(ratios) >= 2:
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        spread = q3 - q1
    if spread > bound:
        if min(ratios) > 1.0 + bound:
            return "worse", change
        if max(ratios) < 1.0 - bound:
            return "better", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within", change


def row(workload, metric, unit, a, b, change, verdict_text):
    print(f"{workload:11s} {metric:32s} {unit:8s} {a:>16.6g} {b:>16.6g} "
          f"{change * 100:+8.2f}%  {verdict_text}")


def compare_workload(dir_a, dir_b, workload, bench):
    """Prints the workload's rows; returns the number of failures."""
    a = load(dir_a, workload, False)
    b = load(dir_b, workload, False)
    if a is None or b is None:
        raise CompareError(f"{workload}: untraced report missing in "
                           f"{dir_a if a is None else dir_b}")
    failures = 0
    for key in ("seed", "trace"):
        if a[0][key] != b[0][key]:
            raise CompareError(f"{workload}: {key} differs between sets")
    for side, (params, _) in (("A", a), ("B", b)):
        if params["correct"] != 1:
            print(f"{workload}: set {side} failed its correctness checks")
            failures += 1
    if b[0]["failed"] > a[0]["failed"]:
        print(f"{workload}: failed sessions rose from {a[0]['failed']} to "
              f"{b[0]['failed']}")
        failures += 1

    for spec in bench["end_to_end"]:
        name = spec["name"]
        if name not in a[1] or name not in b[1]:
            raise CompareError(f"{workload}: {name} missing")
        (unit, sa), (_, sb) = a[1][name], b[1][name]
        if len(sa) != len(sb):
            raise CompareError(f"{workload}: {name} sample counts differ")
        v, change = verdict(sa, sb, spec["better"], spec["bound"])
        row(workload, name, unit, statistics.median(sa),
            statistics.median(sb), change,
            v + (" (identical samples)" if sa == sb else ""))
        failures += v == "worse"

    ta = load(dir_a, workload, True)
    tb = load(dir_b, workload, True)
    if ta is None and tb is None:
        return failures
    if ta is None or tb is None:
        raise CompareError(f"{workload}: traced report in one set only")
    for spec in bench["per_layer"]:
        name = spec["name"]
        (unit, sa), (_, sb) = ta[1][name], tb[1][name]
        ma, mb = statistics.median(sa), statistics.median(sb)
        if unit == "%":  # already a relative figure: show points moved
            change = (mb - ma) / 100 * (1 if spec["better"] == "lower" else -1)
        else:
            change = worse_ratio(ma, mb, spec["better"]) - 1.0
        if unit in HOST_UNITS:
            row(workload, name, unit, ma, mb, change, "info")
        elif sa == sb:
            row(workload, name, unit, ma, mb, change, "exact")
        else:
            row(workload, name, unit, ma, mb, change, "COUNTER DIFFERS")
            failures += 1
    return failures


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    dir_a, dir_b = sys.argv[1], sys.argv[2]
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            bench = json.load(f)
        print(f"{'workload':11s} {'metric':32s} {'unit':8s} {'A median':>16s} "
              f"{'B median':>16s} {'worse by':>9s}  verdict")
        failures = 0
        for w in bench["workloads"]:
            failures += compare_workload(dir_a, dir_b, w["name"], bench)
    except (CompareError, OSError, KeyError, ValueError) as err:
        print(f"compare.py: {err}", file=sys.stderr)
        return 2
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
