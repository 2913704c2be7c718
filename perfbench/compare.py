"""Compare two result sets, parent and change, workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RESULTS_DIR     # spread of one set only

Run from the repository root.  Each directory holds the records run.py
writes (`--results-dir`); untraced runs are compared, one value per run (the
run's median).  Runs pair up by seed.  For every workload and end-to-end
metric it prints each side's median and quartiles over runs, the pairs the
change won, and a verdict, with the bounds of BENCHMARK.json:

  improved      at least 10 pairs, the change wins at least 9 in 10 of them
                (ties count for neither), and the medians differ by more than
                the parent's interquartile range
  worse         the change's median is worse than the parent's by more than
                the bound, and either the parent's spread (IQR / median) is
                within the bound or every change run reads worse than every
                parent run
  unresolved    the parent's spread is wider than the bound and not every
                change run reads better than every parent run
  within bound  otherwise

A gain does not count when more jobs fail: per workload it also compares the
failed jobs of the two sets, and the change is worse when it failed more jobs
than the parent, or when a seed the parent ran is missing from the change or
has no value for a metric.  Exits with 1 when any verdict is "worse".  Given
one directory, it prints each metric's spread over runs (IQR / median)
against its bound, and exits with 1 when a spread exceeds its bound.
"""

from __future__ import annotations

import glob
import json
import os
import sys

from run import quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    """(verdict, pairs won by the change) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, p_med, q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    spread = (q3 - q1) / abs(p_med)
    worse_by = sign * (p_med - c_med) / abs(p_med)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > q3 - q1):
        return "improved", wins
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse", wins
    if spread > bound and not all_better:
        return "unresolved", wins
    return "within bound", wins


def load(directory: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> {"summary", "failed", "attempted"} of the untraced
    runs in `directory`."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        if not record["trace"]:
            runs.setdefault(record["workload"], {})[record["seed"]] = {
                "summary": record.get("summary") or {},
                "failed": record["failed"], "attempted": record["attempted"]}
    return runs


def _medians(runs: dict[int, dict], name: str) -> dict[int, float]:
    return {s: r["summary"][name]["median"] for s, r in sorted(runs.items())
            if name in r["summary"]}


def compare(parent_dir: str, change_dir: str, metrics: list[dict]) -> list[dict]:
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in sorted(parent):
        p_runs, c_runs = parent[workload], change.get(workload, {})
        failed = [sum(r[k] for r in runs.values()) for runs in (p_runs, c_runs)
                  for k in ("failed", "attempted")]
        rows.append({"workload": workload, "metric": "failed jobs", "failed": failed,
                     "verdict": "worse" if failed[2] > failed[0] else "within bound"})
        for m in metrics:
            name = m["name"]
            p, c = _medians(p_runs, name), _medians(c_runs, name)
            missing = sorted(set(p) - set(c))
            pairs = [(p[s], c[s]) for s in sorted(set(p) & set(c))]
            row = {"workload": workload, "metric": name, "unit": m["unit"],
                   "parent": quartiles(list(p.values())) if p else None,
                   "parent_n": len(p),
                   "change": quartiles(list(c.values())) if c else None,
                   "change_n": len(c), "wins": 0, "pairs": len(pairs), "missing": missing}
            if missing:
                row["verdict"] = "worse"
            elif not p:
                row["verdict"] = "unresolved"
            else:
                row["verdict"], row["wins"] = verdict(list(p.values()), list(c.values()),
                                                      pairs, m["better"], m["bound"])
            rows.append(row)
    return rows


def spread(directory: str, metrics: list[dict]) -> int:
    worst = 0
    for workload, runs in sorted(load(directory).items()):
        for m in metrics:
            values = list(_medians(runs, m["name"]).values())
            if len(values) < len(runs) or any(r["failed"] for r in runs.values()):
                worst = 1
                print(f"{workload:16s} {m['name']:12s} has failed jobs or runs without a value")
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med)
            if share > m["bound"]:
                worst = 1
            print(f"{workload:16s} {m['name']:12s} median {med:12.6g} {m['unit']:4s} "
                  f"spread {share:7.2%} of bound {m['bound']:.0%} over {len(values)} runs")
    return worst


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    if len(argv) == 1:
        return spread(argv[0], metrics)
    rows = compare(argv[0], argv[1], metrics)
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3] n':>36s} "
          f"{'change median [q1, q3] n':>36s} {'won':>7s}  verdict")
    def side(q, n):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {n}" if q else f"- {n}"

    for r in rows:
        if "failed" in r:
            pf, pa, cf, ca = r["failed"]
            print(f"{r['workload']:16s} {r['metric']:12s} {f'{pf} of {pa}':>36s} "
                  f"{f'{cf} of {ca}':>36s} {'':7s}  {r['verdict']}")
            continue
        note = f"  no change value for seeds {r['missing']}" if r["missing"] else ""
        print(f"{r['workload']:16s} {r['metric']:12s} {side(r['parent'], r['parent_n']):>36s} "
              f"{side(r['change'], r['change_n']):>36s} {r['wins']:>3d}/{r['pairs']:<3d}  "
              f"{r['verdict']}  ({r['unit']}){note}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
