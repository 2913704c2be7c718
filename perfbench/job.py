"""One benchmark job in a fresh process.

    python3 perfbench/job.py --workload W --seed N --scale full --job-dir D [--trace] [--setup-only]

Set-up (interpreter start, `import nlsnf`, writing the job's inputs) ends at
`t_ready`.  The job is timed from its first call into nlsnf to its return,
artifact writes included.  Results go to D/result.json, spans to
D/spans.json, and the continuum-wide outputs to D/outputs.npz; all of them
after the clock has stopped.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
import warnings

import numpy as np

import nlsnf
from nlsnf import cli, spectral

import tracer
import workloads


def prepare(workload: str, inputs: dict, job_dir: str) -> str | None:
    """Write the config file of a CLI job; continuum-wide needs none."""
    if workload == "continuum-wide":
        return None
    path = os.path.join(job_dir, "job.cfg")
    with open(path, "w") as fh:
        fh.write(workloads.config_text(inputs, os.path.join(job_dir, "out")))
    return path


def run_cli(workload: str, config_path: str) -> dict:
    command = "pipeline" if workload == "nf-desk" else "simulate"
    code = cli.main([command, "--config", config_path])
    return {"exit_code": code}


def run_continuum(inputs: dict) -> dict:
    """Build the wide-box operator, then push each seeded probe through the
    density estimators, both density Grams, the P.V. Gram and both sides of
    the resolvent boundary value."""
    warnings.simplefilter("ignore")  # LAP "unreliable" warnings are expected here
    grid = spectral.GridSpec(l_box=inputs["l_box"], m_pts=inputs["m_pts"])
    model = spectral.build_operator(
        grid, spectral.poschl_teller(grid.x, workloads.DESK["a"], workloads.DESK["kappa2"]))
    t_loop = time.perf_counter()
    x = grid.x
    out = {"lap": [], "lap_small": [], "hist": [], "w": [], "gram_hist": [], "gram_lap": [],
           "gram_pv": [], "rl_plus": [], "rl_minus": []}
    for probe in inputs["probes"]:
        w = model.c + probe["a"]
        phis = workloads.packet_vectors(probe, x)
        out["w"].append(w)
        lap = [spectral.spectral_density_form(model, w, p, details=True) for p in phis]
        out["lap"].append([r.value for r in lap])
        out["lap_small"].append([r.small_signal for r in lap])
        out["hist"].append([spectral.histogram_density(model, w, p) for p in phis])
        out["gram_hist"].append(spectral.density_gram(model, w, phis, estimator="histogram"))
        out["gram_lap"].append(spectral.density_gram(model, w, phis, estimator="lap"))
        out["gram_pv"].append(spectral.pv_gram(model, w, phis))
        out["rl_plus"].append(spectral.resolvent_limit(model, w, phis[0], side="+"))
        out["rl_minus"].append(spectral.resolvent_limit(model, w, np.conj(phis[0]), side="-"))
    loop_s = time.perf_counter() - t_loop
    out = {k: np.asarray(v) for k, v in out.items()}
    out["lam"] = model.lam
    out["c"] = np.asarray(model.c)
    return {"exit_code": 0, "loop_n": len(inputs["probes"]), "loop_s": loop_s,
            "outputs": out}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    p.add_argument("--job-dir", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    config_path = prepare(args.workload, inputs, args.job_dir)
    result = {"t_ready": time.perf_counter(), "nlsnf_file": nlsnf.__file__}
    result_path = os.path.join(args.job_dir, "result.json")
    if args.setup_only:
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return 0

    trace = tracer.Tracer(run_id=os.path.basename(args.job_dir))
    trace.install(tracer.TARGETS if args.trace else tracer.UNTRACED_TARGETS)
    outputs = None
    try:
        t_start = time.perf_counter()
        if args.workload == "continuum-wide":
            out = run_continuum(inputs)
        else:
            out = run_cli(args.workload, config_path)
        t_end = time.perf_counter()
        outputs = out.pop("outputs", None)
    except Exception:  # the job boundary: record the failure, do not hide it
        result["error"] = traceback.format_exc()
        out, t_start, t_end = {"exit_code": None}, 0.0, 0.0
    finally:
        trace.uninstall()
    result.update(out, untraced_targets=trace.missing)
    result["wall_s"] = t_end - t_start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sims = [s for s in trace.spans if s[0] == "dynamics.simulate"]
    if sims:
        result["loop_n"] = sum(s[5]["steps"] for s in sims)
        result["loop_s"] = sum(s[2] - s[1] for s in sims)
    if outputs is not None:
        np.savez(os.path.join(args.job_dir, "outputs.npz"), **outputs)
    if args.trace:
        with open(os.path.join(args.job_dir, "spans.json"), "w") as fh:
            json.dump(trace.spans, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if result.get("exit_code") == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
