"""Benchmark runner: one workload, one seed, one run.

    python3 perfbench/run.py --workload nf-desk --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each job runs in a fresh process with BLAS and
OpenMP threads pinned to nproc, and repeats the seed's inputs; jobs start
until `--seconds` have passed.  Between the jobs of an untraced run,
set-up-only processes sample `setup_s`.  Every job's outputs are checked
against the reference fingerprint.  With `--trace 0` the run reports the end-to-end
metrics of BENCHMARK.json (medians over its jobs); with `--trace 1` it
alternates traced and untraced jobs and reports the per-layer metrics.  The
last line of standard output is the JSON result; the full record, with the
run environment and every job, goes to <results-dir>.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
JOB_TIMEOUT_S = 120
MIN_JOBS = 2
SETUP_SHARE = 0.2        # share of an untraced run spent on set-up-only probes
MIN_SETUP_SAMPLES = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def environment(threads: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu_model, caches = None, {}
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
        base = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(base)):
            def field(name):
                with open(os.path.join(base, index, name)) as fh:
                    return fh.read().strip()
            caches[f"L{field('level')} {field('type')}"] = field("size")
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join("src", "nlsnf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: str(threads) for var in THREAD_VARS},
        "cpu_model": cpu_model, "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


class Run:
    def __init__(self, args, work_dir: str, threads: int):
        self.args = args
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
                        **{var: str(threads) for var in THREAD_VARS})
        self.count = 0

    def launch(self, traced: bool = False, setup_only: bool = False) -> dict:
        """Start one job process, wait for it, and return its raw record."""
        job_dir = os.path.join(self.work_dir, f"job{self.count:03d}")
        self.count += 1
        os.makedirs(job_dir)
        cmd = [sys.executable, os.path.join(HERE, "job.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--scale", self.args.scale, "--job-dir", job_dir]
        cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
        record = {"job_dir": job_dir, "traced": traced, "problems": []}
        with open(os.path.join(job_dir, "log.txt"), "w") as log:
            t_launch = time.perf_counter()
            try:
                proc = subprocess.run(cmd, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=JOB_TIMEOUT_S)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = None
            record["process_s"] = time.perf_counter() - t_launch
        try:
            with open(os.path.join(job_dir, "result.json")) as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = {}
        if code != 0 or not result:
            record["problems"].append(f"job process exit code {code}")
        if result.get("error"):
            record["problems"].append(result["error"].strip().splitlines()[-1])
        if "t_ready" in result:
            record["setup_s"] = result["t_ready"] - t_launch
            expected = os.path.abspath(os.path.join("src", "nlsnf"))
            if os.path.dirname(result["nlsnf_file"]) != expected:
                record["problems"].append(f"nlsnf imported from {result['nlsnf_file']}")
        if record["problems"]:
            with open(os.path.join(job_dir, "log.txt")) as fh:
                record["log_tail"] = fh.read().splitlines()[-5:]
        record["untraced_targets"] = result.get("untraced_targets", [])
        record["result"] = result
        return record


def job_metrics(record: dict) -> dict:
    res = record["result"]
    out = {"wall_s": res["wall_s"], "setup_s": record["setup_s"],
           "peak_rss_mb": res["peak_rss_mb"], "loop_per_s": res["loop_n"] / res["loop_s"]}
    size = 0
    for root, _, files in os.walk(os.path.join(record["job_dir"], "out")):
        size += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    out["cli.artifact_bytes"] = size
    return out


def execute(args) -> dict:
    """The job loop and every check; returns the full run record."""
    threads = len(os.sched_getaffinity(0))
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}_{os.getpid()}"
    work_dir = os.path.join(".perfbench_out", "work", tag)
    os.makedirs(work_dir)
    run = Run(args, work_dir, threads)
    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    reference = checks.load_reference(args.scale)[args.workload]
    jobs, setups = [], []

    def probe_until_share():
        """Set-up probes until they have taken SETUP_SHARE of the run so far,
        so that they are spread over the run like its jobs."""
        while sum(s["process_s"] for s in setups) < SETUP_SHARE * (time.perf_counter() - t0):
            setups.append(run.launch(setup_only=True))

    try:
        t0 = time.perf_counter()
        rounds = []  # duration of each round: its set-up probes and its job
        while True:
            elapsed = time.perf_counter() - t0
            if len(jobs) >= MIN_JOBS and (
                    elapsed + 0.5 * statistics.median(rounds) >= args.seconds):
                break
            t_round = time.perf_counter()
            if not args.trace:
                probe_until_share()
            record = run.launch(traced=bool(args.trace) and len(jobs) % 2 == 0)
            rounds.append(time.perf_counter() - t_round)
            if not record["problems"]:
                try:
                    fp = checks.fingerprint(args.workload, record["job_dir"])
                except (OSError, KeyError, ValueError) as exc:
                    record["problems"].append(f"unreadable outputs: {exc!r}")
            if not record["problems"]:
                record["fingerprint"] = fp
                record["metrics"] = job_metrics(record)
                if record["traced"]:
                    with open(os.path.join(record["job_dir"], "spans.json")) as fh:
                        spans = json.load(fh)
                    record["metrics"].update(tracer.layer_metrics(spans))
                    record["metrics"]["trace.spans"] = len(spans)
                    record["layers"] = sorted({s[0].split(".")[0] for s in spans})
                    record["call_edges"] = sorted({f"{spans[s[3]][0]} > {s[0]}"
                                                   for s in spans if s[3] >= 0})
                    if args.workload == "continuum-wide":
                        record["metrics"]["spectral.lap_hist_rel_gap"] = \
                            checks.lap_hist_rel_gap(fp)
            jobs.append(record)
        if not args.trace:
            probe_until_share()
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run.launch(setup_only=True))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    oracle = checks.oracle(args.workload, inputs, reference)
    first = next((j for j in jobs if "fingerprint" in j), None)
    for j in jobs:
        if "fingerprint" not in j:
            continue
        j["problems"] += checks.check(args.workload, inputs, j["fingerprint"], reference, oracle)
        if not checks.same_fingerprint(j["fingerprint"], first["fingerprint"]):
            j["problems"].append("fingerprint differs from the run's first job")
    for s in setups:
        if s["problems"]:
            s["problems"].insert(0, "set-up probe failed")
    ok = [j for j in jobs if not j["problems"]]
    failed = len(jobs) - len(ok) + sum(1 for s in setups if s["problems"])
    return {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace,
            "environment": environment(threads), "inputs": _jsonable(inputs),
            "attempted": len(jobs) + len(setups), "failed": failed,
            "jobs": [_job_record(j) for j in jobs],
            "setup_probes_s": [s.get("setup_s") for s in setups],
            "ok_jobs": ok}


def _job_record(job: dict) -> dict:
    """A job as stored in the results file; the long output vectors of
    continuum-wide are checked but not stored."""
    out = {k: v for k, v in job.items() if k not in ("result", "job_dir", "fingerprint")}
    if "fingerprint" in job:
        out["fingerprint"] = {k: v for k, v in job["fingerprint"].items()
                              if len(json.dumps(_jsonable(v))) <= 4096}
    return _jsonable(out)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if hasattr(value, "tolist"):
        return _jsonable(value.tolist())
    return value


def summarize(record: dict, catalog: list[dict]) -> dict:
    """Median and quartiles over the run's jobs of every metric in `catalog`."""
    ok = record.pop("ok_jobs")
    if record["trace"]:
        ok = [j for j in ok if j["traced"]]
    samples = {m["name"]: [j["metrics"][m["name"]] for j in ok if m["name"] in j["metrics"]]
               for m in catalog}
    if not record["trace"]:
        samples["setup_s"] += [s for s in record["setup_probes_s"] if s is not None]
    else:
        walls = {flag: [j["metrics"]["wall_s"] for j in record["jobs"]
                        if not j["problems"] and j["traced"] == flag] for flag in (True, False)}
        samples["trace.overhead_s"] = (
            [statistics.median(walls[True]) - statistics.median(walls[False])]
            if walls[True] and walls[False] else [0.0])
    summary = {}
    for m in catalog:
        values = samples[m["name"]]
        if values:
            q1, med, q3 = quartiles(values)
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                  "unit": m["unit"]}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", default="full", choices=sorted(workloads.SCALES),
                   help="tiny runs the same code paths in seconds (self-tests)")
    p.add_argument("--results-dir", default=os.path.join(".perfbench_out", "results"))
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "nlsnf", "__init__.py")):
        print("run.py: src/nlsnf not found; run from the root of an nlsnf checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    catalog = bench["per_layer"] if args.trace else bench["end_to_end"]

    record = execute(args)
    summary = summarize(record, catalog)
    record["summary"] = summary
    record["failure_rate"] = record["failed"] / record["attempted"]
    correct = record["failed"] == 0 and len(summary) == len(catalog)

    os.makedirs(args.results_dir, exist_ok=True)
    path = os.path.join(args.results_dir, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(record['jobs'])} jobs, {len(record['setup_probes_s'])} set-up probes")
    print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}  unit")
    for name, s in summary.items():
        print(f"{name:34s} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} {s['n']:3d}  {s['unit']}")
    print(f"{'failure_rate':34s} {record['failure_rate']:14.6g} "
          f"({record['failed']} of {record['attempted']} attempted)")
    for j in record["jobs"]:
        for problem in j["problems"]:
            print(f"job failed: {problem}")
    print(f"results: {path}")
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in summary.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
