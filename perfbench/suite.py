"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/suite.py [--seed 1] [--results-dir DIR]

Run from the repository root.  It makes six runs through run.py, each as long
as `run_seconds` in BENCHMARK.json (about five minutes in all), prints each
run's table of metrics with units, and ends with the failure rate of each
workload.  Exits with 1 when any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--results-dir", default=os.path.join(".perfbench_out", "results"))
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    failures = {}
    all_correct = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--results-dir", args.results_dir],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(proc.stderr, file=sys.stderr)
                result = {"correct": False, "attempted": 0, "failed": 0}
            print()
            all_correct &= proc.returncode == 0 and result["correct"]
            done, failed = failures.get(workload, (0, 0))
            failures[workload] = (done + result["attempted"], failed + result["failed"])
    for workload, (attempted, failed) in failures.items():
        rate = failed / attempted if attempted else 1.0
        print(f"{workload:16s} failure_rate {rate:.4g} ({failed} of {attempted} attempted)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
