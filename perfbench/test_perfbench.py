"""Self-tests of the benchmark, at the tiny scale (about a minute).

    python3 -m pytest perfbench -q

Run from the repository root.  The runs go through run.py exactly as the
full benchmark does, with M = 256 grids and one-second runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

# layers each workload must reach, per the workload definitions
LAYERS = {
    "nf-desk": {"spectral", "hamalg", "birkhoff", "resonance", "fgr", "dynamics", "cli"},
    "evolve-long": {"spectral", "dynamics", "cli"},
    "continuum-wide": {"spectral"},
}


def _run(args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """(workload, trace) -> (completed process, result line, run record)."""
    out = {}
    results = tmp_path_factory.mktemp("results")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--scale", "tiny",
                         "--results-dir", str(results)])
            with open(results / f"{workload}_seed3_trace{trace}.json") as fh:
                record = json.load(fh)
            out[workload, trace] = (proc, json.loads(proc.stdout.splitlines()[-1]), record)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_unit(tiny_runs, workload, trace):
    proc, line, _ = tiny_runs[workload, trace]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    catalog = BENCH["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in catalog]
    table = proc.stdout.splitlines()
    for m in catalog:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(row.split()[:1] == [m["name"]] and row.endswith(m["unit"]) for row in table)
        if not trace:
            assert line["metrics"][m["name"]]["value"] > 0
    assert any(row.startswith("failure_rate") for row in table)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_jobs_match_untraced(tiny_runs, workload):
    _, _, record = tiny_runs[workload, 1]
    jobs = record["jobs"]
    assert {j["traced"] for j in jobs} == {True, False}
    assert all(not j["problems"] for j in jobs)
    traced = next(j for j in jobs if j["traced"])["fingerprint"]
    plain = next(j for j in jobs if not j["traced"])["fingerprint"]
    assert checks.same_fingerprint(traced, plain)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_layer_has_spans(tiny_runs, workload):
    _, _, record = tiny_runs[workload, 1]
    for job in record["jobs"]:
        if job["traced"]:
            assert LAYERS[workload] <= set(job["layers"])
            if workload == "nf-desk":
                # calls through names imported into birkhoff and dynamics
                edges = set(job["call_edges"])
                assert "birkhoff.solve_homological > spectral.resolvent_apply" in edges
                assert "dynamics.build_zeta_couplings > spectral.resolvent_limit" in edges
                assert "birkhoff.normal_form_round > hamalg.lie_series" in edges
                assert "dynamics.simulate > fgr.packet_form" in edges
                assert "dynamics.simulate > spectral.project_modes" in edges


def test_self_times_and_layer_metrics():
    # simulate [0, 10] holds two steps and a packet_form monitor call;
    # the packet_form call of rayleigh_report is not a monitor call
    spans = [["dynamics.simulate", 0.0, 10.0, -1, "r", {"samples": 2, "steps": 2}],
             ["dynamics.step", 1.0, 3.0, 0, "r", None],
             ["dynamics.step", 4.0, 5.0, 0, "r", None],
             ["fgr.packet_form", 6.0, 6.5, 0, "r", None],
             ["fgr.rayleigh_report", 11.0, 14.0, -1, "r", None],
             ["fgr.packet_form", 12.0, 13.0, 4, "r", None]]
    assert tracer.self_times(spans) == [6.5, 2.0, 1.0, 0.5, 2.0, 1.0]
    m = tracer.layer_metrics(spans)
    assert m["dynamics.step_calls"] == 2 and m["dynamics.step_us"] == 1.5e6
    assert m["dynamics.monitor_s"] == 7.0 and m["dynamics.monitor_ms_per_sample"] == 3500.0
    assert m["fgr.packet_form_calls"] == 1 and m["fgr.packet_form_s"] == 0.5
    assert set(m) | {"cli.artifact_bytes", "trace.overhead_s", "trace.spans"} == {
        x["name"] for x in BENCH["per_layer"]}


def test_tracer_rebinds_imported_names_and_skips_missing_targets():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from nlsnf import dynamics, spectral

    original = spectral.project_modes
    trace = tracer.Tracer("t")
    trace.install([("spectral", "project_modes", None), ("spectral", "no_such_function", None)])
    try:
        assert dynamics.project_modes is spectral.project_modes is not original
    finally:
        trace.uninstall()
    assert dynamics.project_modes is spectral.project_modes is original
    assert trace.missing == ["spectral.no_such_function"]


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.make_inputs(workload, 5, "full")
        assert repr(a) == repr(workloads.make_inputs(workload, 5, "full"))
        assert repr(a) != repr(workloads.make_inputs(workload, 6, "full"))


# ---------------------------------------------------------------------------
# the fingerprint checker, on results built from the reference


def _good(workload):
    ref = checks.load_reference("tiny")[workload]
    inputs = workloads.make_inputs(workload, 4, "tiny")
    orc = checks.oracle(workload, inputs, ref)
    if workload == "nf-desk":
        fp = {k: ref[k] for k in ("lam", "c", "bigM", "M", "X", "rounds", "z0_terms",
                                  "remainder_terms")}
        fp.update(reality_ok=[True] * len(ref["rounds"]), rayleigh=[orc["rmin"], orc["rmax"]],
                  verdict=orc["verdict"], mass_drift=1e-12)
    elif workload == "evolve-long":
        entry = ref["table"][inputs["table_entry"]]
        z = (np.asarray(entry["z_re"]) + 1j * np.asarray(entry["z_im"])) * inputs["phase"]
        fp = {"z_final": list(z),
              "mass": [entry["mass_initial"], entry["mass_final"]]}
    else:
        rng = np.random.default_rng(0)
        rl = rng.standard_normal((len(inputs["probes"]), inputs["m_pts"])) * (1 + 1j)
        fp = {"lam": np.asarray(ref["lam"]), "c": np.asarray(ref["c"]),
              "lap": orc["hist"], "lap_small": np.zeros(orc["hist"].shape, bool),
              "hist": orc["hist"], "gram_hist": orc["gram_hist"],
              "gram_lap": orc["gram_hist"], "gram_pv": orc["gram_hist"],
              "rl_plus": rl, "rl_minus": np.conj(rl)}
    return inputs, fp, ref, orc


PERTURBATIONS = {
    "nf-desk": [
        lambda fp: fp.update(c=fp["c"] * (1 + 1e-8)),
        lambda fp: fp.update(rounds=[r[:-1] + [r[-1] + 1] for r in fp["rounds"]]),
        lambda fp: fp.update(remainder_terms=fp["remainder_terms"] - 1),
        lambda fp: fp.update(X=[x * (1 + 1e-7) for x in fp["X"]]),
        lambda fp: fp.update(rayleigh=[fp["rayleigh"][0] * (1 + 1e-6), fp["rayleigh"][1]]),
        lambda fp: fp.update(verdict=not fp["verdict"]),
        lambda fp: fp.update(reality_ok=[False]),
        lambda fp: fp.update(mass_drift=1e-7),
    ],
    "evolve-long": [
        lambda fp: fp.update(z_final=[fp["z_final"][0] + 1e-5] + fp["z_final"][1:]),
        lambda fp: fp.update(mass=[fp["mass"][0], fp["mass"][1] * (1 + 1e-6)]),
        lambda fp: fp.update(mass=[fp["mass"][0] * (1 + 1e-6), fp["mass"][1]]),
    ],
    "continuum-wide": [
        lambda fp: fp.update(hist=fp["hist"] * (1 + 1e-6)),
        lambda fp: fp.update(gram_hist=fp["gram_hist"] + 1e-6j * np.abs(fp["gram_hist"]).max()),
        lambda fp: fp.update(gram_pv=fp["gram_pv"] + np.triu(np.ones_like(fp["gram_pv"][0]), 1)),
        lambda fp: fp.update(rl_minus=fp["rl_minus"] * (1 + 1e-8)),
        lambda fp: fp.update(lam=fp["lam"] + 1e-9),
        lambda fp: fp.update(lap=fp["lap"] * np.nan),
        lambda fp: fp.update(hist=fp["hist"][:, :-1]),
    ],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_accepts_reference_and_rejects_perturbations(workload):
    inputs, fp, ref, orc = _good(workload)
    assert checks.check(workload, inputs, fp, ref, orc) == []
    for perturb in PERTURBATIONS[workload]:
        bad = {k: (v.copy() if hasattr(v, "copy") else v) for k, v in fp.items()}
        perturb(bad)
        assert checks.check(workload, inputs, bad, ref, orc), perturb


# ---------------------------------------------------------------------------
# compare verdicts on synthetic runs


PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10.0]


def _verdict(change, parent=PARENT, better="lower", bound=0.1):
    return compare.verdict(parent, change, list(zip(parent, change)), better, bound)[0]


def test_compare_verdicts():
    assert _verdict([x * 0.8 for x in PARENT]) == "improved"
    assert _verdict([x * 1.25 for x in PARENT], better="higher") == "improved"
    assert _verdict([x * 1.02 for x in PARENT]) == "within bound"
    assert _verdict([x * 1.3 for x in PARENT]) == "worse"
    assert _verdict([x * 0.7 for x in PARENT], better="higher") == "worse"
    wide = [5.0, 15.0, 7.0, 13.0, 9.0, 11.0, 6.0, 14.0, 8.0, 12.0]
    assert _verdict(wide, parent=wide) == "unresolved"
    assert _verdict([4.0] * 10, parent=wide) == "within bound"  # every run better, no claim
    assert _verdict([x * 0.8 for x in PARENT[:5]], parent=PARENT[:5]) == "within bound"
    assert _verdict([x * 20 for x in wide], parent=wide) == "worse"


def _write_set(directory, scale, failed=(), skip=(), empty=()):
    """Synthetic untraced records, one per seed, every metric at base * scale."""
    os.makedirs(directory)
    for seed, base in enumerate(PARENT):
        if seed in skip:
            continue
        summary = {} if seed in empty else {
            m["name"]: {"median": base * scale} for m in BENCH["end_to_end"]}
        with open(directory / f"nf-desk_seed{seed}_trace0.json", "w") as fh:
            json.dump({"workload": "nf-desk", "seed": seed, "trace": 0, "summary": summary,
                       "failed": int(seed in failed), "attempted": 10}, fh)


def _compare(tmp_path, **change):
    _write_set(tmp_path / "parent", 1.0)
    _write_set(tmp_path / "change", 0.5, **change)
    rows = compare.compare(str(tmp_path / "parent"), str(tmp_path / "change"),
                           BENCH["end_to_end"])
    return {r["metric"]: (r["verdict"], r.get("wins"), r.get("pairs")) for r in rows}


def test_compare_pairs_by_seed(tmp_path):
    verdicts = _compare(tmp_path)
    assert verdicts["wall_s"] == ("improved", 10, 10)
    assert verdicts["loop_per_s"] == ("worse", 0, 10)
    assert verdicts["failed jobs"][0] == "within bound"


@pytest.mark.parametrize("change", [{"failed": (3,)}, {"skip": (3,)}, {"empty": (3,)}])
def test_compare_counts_failures_against_the_change(tmp_path, change, monkeypatch):
    # every surviving change job is twice as fast; the change still is worse
    verdicts = _compare(tmp_path, **change)
    worse = {name for name, v in verdicts.items() if v[0] == "worse"}
    if "failed" in change:
        assert worse == {"failed jobs", "loop_per_s"}
    else:
        assert worse == {m["name"] for m in BENCH["end_to_end"]}
    monkeypatch.chdir(ROOT)
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nf-desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
