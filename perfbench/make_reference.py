"""Regenerate perfbench/reference.json, the pinned fingerprints the checks use.

    python3 perfbench/make_reference.py

Run from the repository root.  The reference comes from the same job code the
benchmark times, and each section is validated against the checks before it
is written.  Regenerate it only in a change that means to alter these
results, and say why in that change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import job  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _triple(t) -> list:
    return [t.m, list(t.mu), list(t.nu)]


def _run_cli(workload: str, inputs: dict, job_dir: str, targets=()) -> dict:
    trace = tracer.Tracer("reference")
    trace.install(list(targets))
    try:
        code = job.run_cli(workload, job.prepare(workload, inputs, job_dir))["exit_code"]
    finally:
        trace.uninstall()
    if code != 0:
        raise SystemExit(f"{workload} reference run exited with {code}")
    return checks.fingerprint(workload, job_dir)


def _validated(workload: str, inputs: dict, fp: dict, ref: dict) -> dict:
    bad = checks.check(workload, inputs, fp, ref, checks.oracle(workload, inputs, ref))
    if bad:
        raise SystemExit(f"{workload} reference fails its own checks: {bad}")
    return ref


def nf_desk(scale: str, tmp: str) -> dict:
    inputs = workloads.make_inputs("nf-desk", 0, scale)
    captured = {}

    def keep(name):
        def hook(result, args, kwargs):
            captured[name] = result
        return hook

    fp = _run_cli("nf-desk", inputs, tmp, [("fgr", "build_packets", keep("packets")),
                                           ("resonance", "build_index_sets", keep("catalog"))])
    ref = {k: fp[k] for k in ("lam", "c", "bigM", "M", "X", "rounds", "z0_terms",
                              "remainder_terms")}
    ref["minimal"] = [_triple(t) for t in captured["catalog"].minimal]
    ref["packets"] = [{"w": p.w, "members": [_triple(t) for t, _ in p.members],
                       "gram_re": p.gram.real.tolist(), "gram_im": p.gram.imag.tolist()}
                      for p in captured["packets"]]
    return _validated("nf-desk", inputs, fp, ref)


def evolve_long(scale: str, tmp: str) -> dict:
    table = []
    for entry, amps in enumerate(workloads.evolve_table()):
        inputs = dict(workloads.make_inputs("evolve-long", 0, scale),
                      amplitudes=list(amps), table_entry=entry, phase=1.0)
        job_dir = os.path.join(tmp, f"entry{entry}")
        os.makedirs(job_dir)
        fp = _run_cli("evolve-long", inputs, job_dir)
        table.append({"z_re": [z.real for z in fp["z_final"]],
                      "z_im": [z.imag for z in fp["z_final"]],
                      "mass_initial": fp["mass"][0], "mass_final": fp["mass"][-1]})
        _validated("evolve-long", inputs, fp, {"table": table})
    return {"table": table}


def continuum_wide(scale: str, tmp: str) -> dict:
    inputs = workloads.make_inputs("continuum-wide", 0, scale)
    out = job.run_continuum(inputs)["outputs"]
    ref = {"lam": out["lam"].tolist(), "c": float(out["c"])}
    return _validated("continuum-wide", inputs, out, ref)


def main() -> int:
    reference = {}
    for scale in sorted(workloads.SCALES):
        with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
            reference[scale] = {}
            for name, make in (("nf-desk", nf_desk), ("evolve-long", evolve_long),
                               ("continuum-wide", continuum_wide)):
                job_dir = os.path.join(tmp, name)
                os.makedirs(job_dir)
                reference[scale][name] = make(scale, job_dir)
                print(f"{scale} {name}: ok", flush=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
