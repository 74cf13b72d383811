"""Steadiness check: run workloads repeatedly and print each metric's spread.

    python3 -m perfbench.steady --runs 10 [--workload NAME ...] [--trace 1]

Run from the repository root.  Each run is a separate ``perfbench.run``
process with its own seed (1, 2, ...).  For every metric the table shows the
median, the first and third quartiles over the runs, and the spread: the
distance between the quartiles as a share of the median.  For end-to-end
metrics it also shows the bound from BENCHMARK.json and flags a spread that
exceeds a third of it.  The exit code is nonzero when a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartile_spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / |median|) as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.steady", description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    status = 0
    for workload in args.workload or [w["name"] for w in config["workloads"]]:
        values, units, attempted, failed, elapsed = {}, {}, 0, 0, []
        for seed in range(1, args.runs + 1):
            command = config["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", str(args.trace),
            ]
            start = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed.append(time.perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                if not lines or not lines[-1].startswith("{"):
                    continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n{workload}: {len(elapsed)} runs, {attempted} items, failed_frac "
              f"{failed / max(attempted, 1):.6f}, run time median {statistics.median(elapsed):.1f} s "
              f"max {max(elapsed):.1f} s")
        print(f"  {'metric':40s} {'unit':>12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, series in values.items():
            if len(series) < 2:
                continue
            median, q1, q3, spread = quartile_spread(series)
            bound = bounds.get(name)
            flag = " > bound/3" if bound is not None and spread > bound / 3 else ""
            print(f"  {name:40s} {units[name]:>12s} {median:12.6f} {q1:12.6f} {q3:12.6f} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
