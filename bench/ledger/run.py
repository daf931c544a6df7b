#!/usr/bin/env python3
"""Cost-ledger runner: builds pds_ledger (Release) from source and runs it.

One workload, one mode (the form a harness uses):

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

The run's human tables go to stdout, and its last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"} holding exactly the
metrics BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1), each with its declared unit.

A full result set (every workload, untraced then traced), for compare.py:

    python3 bench/ledger/run.py --out DIR [--seed N] [--seconds S]

The build lives in build-rel/ledger under the repository root. Exit status:
0 when every run passed its checks; 1 when a run reported a correctness
failure; 2 when the build failed, a run crashed or timed out, or its output
did not match BENCHMARK.json (no result line is printed then).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-rel" / "ledger"
BINARY = BUILD / "pds_ledger"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


class RunError(Exception):
    pass


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures once, then (re)builds pds_ledger; tool output to stderr."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "ledger"),
                      "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "pds_ledger",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            raise RunError(f"build step {cmd[:2]} failed: {err}") from err
        if proc.returncode != 0:
            raise RunError(f"build step {' '.join(cmd[:3])} exited "
                           f"{proc.returncode}")


def check_result(line, declared):
    """Parses the result line and checks it against the declared metrics."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        raise RunError(f"last output line is not JSON: {err}") from err
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise RunError("result object has the wrong keys")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise RunError(f"metrics differ from BENCHMARK.json: missing "
                       f"{missing}, undeclared {extra}, unit mismatch "
                       f"{units}")
    return result


def run_one(workload, seed, seconds, trace, out, declared):
    """Runs one workload in one mode; returns the binary's exit status."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if out:
        cmd.append(f"--out={out}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False,
                              cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise RunError(f"{workload}: pds_ledger did not finish: {err}") \
            from err
    if proc.returncode not in (0, 1):
        raise RunError(f"{workload}: pds_ledger exited {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = check_result(lines[-1], declared)
    if result["correct"] != (proc.returncode == 0):
        raise RunError(f"{workload}: exit status disagrees with result")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one mode (default: 0 then 1)")
    parser.add_argument("--out", help="directory for reports and traces")
    args = parser.parse_args()
    if args.seed < 1:
        parser.error("--seed must be positive")

    try:
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        if args.workload is not None and args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        seconds = args.seconds or bench["run_seconds"]
        out = None
        if args.out:
            out = Path(args.out).resolve()
            out.mkdir(parents=True, exist_ok=True)
        build()
        status = 0
        for workload in [args.workload] if args.workload else names:
            for trace in [args.trace] if args.trace is not None else [0, 1]:
                declared = bench["per_layer" if trace else "end_to_end"]
                status = max(status, run_one(workload, args.seed, seconds,
                                             trace, out, declared))
        return status
    except (RunError, OSError, KeyError, ValueError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
