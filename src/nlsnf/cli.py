"""Command-line pipeline: model -> hypotheses -> normal form -> catalog ->
FGR verdict -> simulation, with every stage persisted under the output
directory and a manifest that is written even when a stage fails.

Exit codes: 0 success, 2 hypothesis violation, 3 numerical failure,
4 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import resource
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import birkhoff, dynamics, fgr, hamalg, resonance, spectral
from .errors import (
    ConfigError,
    HypothesisViolation,
    NlsnfError,
    NumericalError,
)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4

OUTDIR_ENV = "NLSNF_OUTDIR"

DEFAULTS = {
    "model": {
        "l_box": "40.0",
        "m_pts": "2048",
        "preset": "poschl_teller",
        "a": "1.5",
        "kappa2": "0.35",
        "depth": "",
        "width": "",
        "potential_csv": "",
    },
    "forcing": {"gamma0": "1.0", "gamma1": "1.0"},
    "analysis": {
        "r_max": "",          # default N + 1
        "n0": "",             # default N + 2
        "degree_cap": "",     # default 2N + 4
        "tol_res": "1e-9",
        "estimator": "histogram",
    },
    "simulation": {
        "t_end": "200.0",
        "dt": "1e-3",
        "output_stride": "100",
        "mode_amplitudes": "0.05,0.0",
        "sponge": "false",
        "wrap_policy": "warn",
        "seed": "0",
    },
    "output": {"directory": "out"},
}


def load_config(path: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read_dict(DEFAULTS)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                cp.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"config file {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path}: not UTF-8 text "
                              f"(byte {exc.start}: {exc.reason})") from exc
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return cp


def _output_dir(cp) -> str:
    out = os.environ.get(OUTDIR_ENV) or cp.get("output", "directory")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out}: {exc.strerror}") from exc
    return out


def config_hash(cp) -> str:
    blob = json.dumps({s: dict(cp[s]) for s in cp.sections()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _finite(sec, key: str) -> float:
    """The float at `key` of a config section; ValueError unless finite."""
    value = sec.getfloat(key)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    return value


def potential_from_config(cp) -> tuple[spectral.GridSpec, np.ndarray]:
    """The grid and the sampled potential of [model]."""
    sec = cp["model"]
    try:
        grid = spectral.GridSpec(l_box=_finite(sec, "l_box"), m_pts=sec.getint("m_pts"))
        if sec.get("potential_csv"):
            v = spectral.potential_from_csv(grid, sec.get("potential_csv"))
        else:
            preset = sec.get("preset")
            params = {}
            if preset == "poschl_teller":
                params = {"a": _finite(sec, "a"), "kappa2": _finite(sec, "kappa2")}
            elif preset == "gaussian_well":
                params = {"depth": _finite(sec, "depth"), "width": _finite(sec, "width")}
            elif preset == "sech2_well":
                if sec.get("depth"):
                    params = {"depth": _finite(sec, "depth")}
            v = spectral.potential_from_preset(grid, preset, **params)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"[model]: {exc}") from exc
    return grid, v


def build_model_from_config(cp) -> spectral.OperatorModel:
    """The dense model of [model], continuum and all."""
    return spectral.build_operator(*potential_from_config(cp))


def _complex_list(text: str):
    out = []
    for item in text.split(","):
        item = item.strip()
        if item:
            value = complex(item)
            if not np.isfinite(value):
                raise ValueError(f"mode amplitude {item} is not finite")
            out.append(value)
    return tuple(out)


def sim_config_from(cp) -> dynamics.SimConfig:
    sec = cp["simulation"]
    if sec.get("nonlinearity", "cubic") != "cubic":
        raise ConfigError("only the cubic nonlinearity is implemented")
    try:
        return dynamics.SimConfig(
            gamma0=_finite(cp["forcing"], "gamma0"),
            gamma1=_finite(cp["forcing"], "gamma1"),
            t_end=_finite(sec, "t_end"),
            dt=_finite(sec, "dt"),
            output_stride=sec.getint("output_stride"),
            mode_amplitudes=_complex_list(sec.get("mode_amplitudes")),
            sponge=sec.getboolean("sponge"),
            wrap_policy=sec.get("wrap_policy"),
        )
    except ValueError as exc:
        raise ConfigError(f"[simulation]: {exc}") from exc


ESTIMATORS = ("histogram", "lap")


@dataclass
class AnalysisConfig:
    """[analysis] and the [simulation] seed; None means the budget default."""

    tol_res: float
    r_max: int | None        # N + 1
    n0: int | None           # N + 2
    degree_cap: int | None   # 2N + 4
    estimator: str
    seed: int


def analysis_config_from(cp) -> AnalysisConfig:
    sec = cp["analysis"]
    try:
        ints = {key: int(sec.get(key)) if sec.get(key) else None
                for key in ("r_max", "n0", "degree_cap")}
        config = AnalysisConfig(tol_res=_finite(sec, "tol_res"), estimator=sec.get("estimator"),
                                seed=cp.getint("simulation", "seed"), **ints)
    except ValueError as exc:
        raise ConfigError(f"[analysis]: {exc}") from exc
    if not config.tol_res > 0.0:
        raise ConfigError(f"[analysis]: tol_res must be positive, got {config.tol_res}")
    if config.estimator not in ESTIMATORS:
        raise ConfigError(f"[analysis]: estimator must be one of {ESTIMATORS}, "
                          f"got {config.estimator!r}")
    return config


def write_trajectory_csv(record: dynamics.TrajectoryRecord, path: str):
    nb = record.z.shape[1]
    cols = [record.times]
    header = ["t"]
    for j in range(nb):
        cols += [record.z[:, j].real, record.z[:, j].imag]
        header += [f"re_z{j}", f"im_z{j}"]
    if record.zeta is not None:
        for j in range(nb):
            cols += [record.zeta[:, j].real, record.zeta[:, j].imag]
            header += [f"re_zeta{j}", f"im_zeta{j}"]
    cols += [record.mass, record.energy, record.f_l2, record.f_h1, record.f_weighted]
    header += ["mass", "energy", "f_l2", "f_h1", "f_weighted"]
    if record.g_weighted is not None:
        cols.append(record.g_weighted)
        header.append("g_weighted")
    if record.fgr_flux is not None:
        cols.append(record.fgr_flux)
        header.append("fgr_flux")
    np.savetxt(path, np.column_stack(cols), delimiter=",",
               header=",".join(header), comments="")


def save_expansion(ham, path_json: str, path_npz: str):
    records, vectors = hamalg.expansion_to_records(ham)
    with open(path_json, "w") as fh:
        json.dump({"terms": records, "vectors_file": os.path.basename(path_npz)},
                  fh, indent=1)
    np.savez_compressed(path_npz, **{k: v for k, v in vectors.items()})


# ---------------------------------------------------------------------------
# pipeline


# The stages each config subcommand runs, in order, after `config` has checked
# every section.  A linear run (gamma0 = gamma1 = 0) records its normal form
# as skipped and runs no stage that reads one.
COMMAND_STAGES = {
    "spectrum": ("model",),
    "normalform": ("model", "resonance", "catalog", "normal_form"),
    "fgr": ("model", "resonance", "catalog", "normal_form", "reduce", "fgr"),
    "pipeline": ("model", "resonance", "catalog", "normal_form", "reduce", "fgr", "simulate"),
    "simulate": ("model", "simulate"),
}

# The stages that read the continuum modes, which only the dense model has.
# The `model` stage of a run with none of them solves for the bound states
# alone (`spectral.bound_states`), with no M x M eigensolve.
CONTINUUM_STAGES = ("resonance", "normal_form", "fgr")


def run_pipeline(cp, outdir: str, command: str = "pipeline") -> dict:
    """Run the `config` stage, then the stages COMMAND_STAGES lists for `command`.

    The `config` stage checks every section before anything is built.  The
    manifest is rewritten after each stage and records a failing stage;
    `incomplete` turns false once the last stage is done.  Each stage records
    its wall time in `seconds`, the process's peak RSS so far in
    `peak_rss_mb` and the messages of the warnings it raised in `warnings`;
    a skipped stage records only why it was skipped, and a failing one puts
    its warnings in `failed_stage_warnings`.  They are still shown when the
    run ends.  The model is dense only when a stage of CONTINUUM_STAGES
    runs.  The simulation gets the reduced-form monitors when the `fgr`
    stage ran.
    """
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            return _run_stages(cp, outdir, command, caught)
    finally:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def _run_stages(cp, outdir: str, command: str, caught: list) -> dict:
    """`run_pipeline`, with the warnings raised so far in `caught`."""
    run = COMMAND_STAGES[command]
    manifest: dict = {
        "config": {s: dict(cp[s]) for s in cp.sections()},
        "config_hash": config_hash(cp),
        "stages": {},
        "incomplete": True,
    }
    manifest_path = os.path.join(outdir, "manifest.json")
    stage_start = time.perf_counter()
    recorded = 0   # the warnings in `caught` that a stage has recorded

    def messages() -> list[str]:
        """The warnings raised since the last stage that recorded them."""
        nonlocal recorded
        new, recorded = caught[recorded:], len(caught)
        return [str(w.message) for w in new]

    def flush():
        """Write the manifest; the stages run since the last flush get their
        time and the peak RSS."""
        nonlocal stage_start
        now = time.perf_counter()
        for entry in manifest["stages"].values():
            if "seconds" not in entry and "skipped" not in entry:
                entry["seconds"] = now - stage_start
                entry["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                entry["warnings"] = messages()
        stage_start = now
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=1, default=_json_default)

    def done(name: str):
        """Write the manifest after stage `name`; the run is complete after its last."""
        manifest["incomplete"] = name != run[-1]
        flush()

    stage = "config"
    try:
        sim_config = sim_config_from(cp)
        analysis = analysis_config_from(cp)
        linear = sim_config.gamma0 == 0.0 and sim_config.gamma1 == 0.0
        if linear:
            run = tuple(name for name in run if name not in ("reduce", "fgr"))

        stage = "model"
        grid, v = potential_from_config(cp)
        if any(name in CONTINUUM_STAGES for name in run):
            model = spectral.build_operator(grid, v)
        else:
            model = spectral.bound_states(grid, v)
        manifest["stages"]["model"] = {
            "c": model.c,
            "eigenvalues": model.lam.tolist(),
            "n_bound": model.n,
            "grid": {"l_box": model.grid.l_box, "m_pts": model.grid.m_pts},
            "basis": "dense" if isinstance(model, spectral.OperatorModel) else "bound_states",
            "iterations": model.iterations,
            "residual": model.residual,
        }
        spectral.export_eigenpairs_csv(model, os.path.join(outdir, "eigenpairs.csv"))
        done("model")

        if "resonance" in run:
            stage = "resonance"
            tol = analysis.tol_res
            budget = resonance.resonance_budget(model.lam, model.c, tol)
            report = resonance.check_hypotheses(model.lam, model.c, budget, tol)
            h4 = spectral.threshold_blowup_report(model)
            manifest["stages"]["resonance"] = {
                "N": budget.big_n, "N_j": budget.n_j, "floor_c": budget.floor_c,
                "h5": report.h5_ok, "h7": report.h7_ok, "h8": report.h8_ok,
                "h10": sim_config.gamma1 != 0.0,
                "witnesses": report.witnesses,
                "h4": {key: h4[key] for key in ("growth_exponents", "suspicious")},
            }
            done("resonance")
            if not report.all_ok:
                raise HypothesisViolation("hypothesis check failed",
                                          witnesses=report.witnesses)

        if "catalog" in run:
            stage = "catalog"
            catalog = resonance.build_index_sets(model.lam, model.c, budget, report, tol)
            with open(os.path.join(outdir, "resonance_report.txt"), "w") as fh:
                fh.write(resonance.catalog_report(catalog, budget, report))
            manifest["stages"]["catalog"] = {
                "bigM": len(catalog.big_m), "M": len(catalog.minimal),
                "X": catalog.x_values, "min_gap": catalog.min_gap,
            }
            done("catalog")

        if "normal_form" in run and linear:
            manifest["stages"]["normal_form"] = {"skipped": "linear run"}
            done("normal_form")
        elif "normal_form" in run:
            stage = "normal_form"
            e_p = hamalg.expand_potential_energy(model, sim_config.gamma0, sim_config.gamma1)
            r_max = budget.big_n + 1 if analysis.r_max is None else analysis.r_max
            nf = birkhoff.normal_form(model, e_p, r_max=r_max, n0=analysis.n0,
                                      degree_cap=analysis.degree_cap, big_n=budget.big_n,
                                      tol_res=analysis.tol_res)
            manifest["stages"]["normal_form"] = {
                "r_final": nf.r_final, "n0": nf.n0, "degree_cap": nf.degree_cap,
                "rounds": [
                    {
                        "r": led.r, "extracted": led.extracted,
                        "resonant": led.resonant, "solved": led.solved,
                        "chi_terms": led.chi_terms,
                        "dropped": led.dropped.count,
                        "dropped_by_size": led.dropped.by_size,
                        "dropped_mass": led.dropped.coeff_mass,
                        "chains": led.chains,
                        "classes": led.class_counts,
                        "reality_ok": led.reality_ok,
                    }
                    for led in nf.ledgers
                ],
                "z_terms": len(nf.z_part),
                "remainder_terms": len(nf.remainder),
            }
            for i, chi in enumerate(nf.generators):
                save_expansion(chi, os.path.join(outdir, f"chi_{i + 2}.json"),
                               os.path.join(outdir, f"chi_{i + 2}.npz"))
            save_expansion(nf.z_part, os.path.join(outdir, "z_part.json"),
                           os.path.join(outdir, "z_part.npz"))
            done("normal_form")

        if "reduce" in run:
            stage = "reduce"
            reduced = birkhoff.reduce_to_minimal(nf, catalog)
            save_expansion(reduced.z0, os.path.join(outdir, "z0.json"),
                           os.path.join(outdir, "z0.npz"))
            manifest["stages"]["reduce"] = {
                "z0_terms": len(reduced.z0),
                "z1_M": len(reduced.z1_m), "z1_Mprime": len(reduced.z1_mprime),
                "remainder_terms": len(reduced.remainder),
            }
            done("reduce")

        if "fgr" in run:
            stage = "fgr"
            packets = fgr.build_packets(model, reduced, estimator=analysis.estimator)
            ray = fgr.rayleigh_report(packets, catalog.minimal, n_modes=len(model.lam),
                                      seed=analysis.seed)
            manifest["stages"]["fgr"] = {
                "packets": [{"w": p.w, "members": len(p.members),
                             "clipped_mass": p.clipped_mass, "lap_gap": p.lap_gap()}
                            for p in packets],
                "min_quotient": ray.min_quotient, "max_quotient": ray.max_quotient,
                "h9prime_verdict": ray.verdict,
            }
            np.savetxt(os.path.join(outdir, "rayleigh_quotients.csv"),
                       ray.quotients, delimiter=",", header="quotient", comments="")
            done("fgr")

        if "simulate" in run:
            stage = "simulate"
            aux = None if "fgr" not in run else dynamics.ReducedAux(
                catalog=catalog, reduced=reduced, packets=packets,
                zeta_couplings=dynamics.build_zeta_couplings(model, reduced, analysis.tol_res),
                g_couplings=dynamics.build_g_couplings(model, reduced),
            )
            sim_start = time.perf_counter()
            record = dynamics.simulate(model, sim_config, aux=aux)
            _record_sim(manifest, record, time.perf_counter() - sim_start)
            write_trajectory_csv(record, os.path.join(outdir, "trajectory.csv"))
            done("simulate")
        return manifest
    except Exception as exc:
        manifest["failed_stage"] = stage
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        if len(caught) > recorded:
            manifest["failed_stage_warnings"] = messages()
        flush()
        raise


def _record_sim(manifest, record: dynamics.TrajectoryRecord, seconds: float):
    z2 = np.sum(np.abs(record.z) ** 2, axis=1)
    manifest["stages"]["simulate"] = {
        "steps": record.steps,
        "steps_per_s": record.steps / seconds,
        "eps_h1": record.eps_h1,
        "t_wrap": record.t_wrap,
        "sponge": record.sponge_used,
        "beyond_wrap": record.beyond_wrap(),
        "mass_drift": record.mass_drift(),
        "mode_energy_initial": float(z2[0]),
        "mode_energy_final": float(z2[-1]),
        "strichartz": record.strichartz,
        "zsq_integrals": {str(k): v for k, v in record.zsq_integrals.items()},
    }


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    cp = load_config(args.config)
    if args.preset:
        cp.set("model", "preset", args.preset)
    for name in ("a", "kappa2", "depth", "width"):
        val = getattr(args, name, None)
        if val is not None:
            cp.set("model", name, str(val))
    outdir = _output_dir(cp)
    stage = run_pipeline(cp, outdir, "spectrum")["stages"]["model"]
    print(f"c = {stage['c']:.10g}")
    print("eigenvalues:", ", ".join(f"{l:.10g}" for l in stage["eigenvalues"]))
    print(f"wrote {os.path.join(outdir, 'eigenpairs.csv')}")
    return EXIT_OK


def cmd_resonance_check(args) -> int:
    try:
        lam = np.array([float(s) for s in args.lam.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--lambda: {exc}") from exc
    # tol follows the rule of [analysis] tol_res: a tol of 0 or NaN would pass
    # every check
    if not np.isfinite(lam).all():
        raise ConfigError(f"--lambda: eigenvalues must be finite, got {args.lam}")
    if not math.isfinite(args.c):
        raise ConfigError(f"--c must be finite, got {args.c}")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
    budget = resonance.resonance_budget(lam, args.c, args.tol)
    report = resonance.check_hypotheses(lam, args.c, budget, args.tol)
    if report.all_ok:
        catalog = resonance.build_index_sets(lam, args.c, budget, report, args.tol)
        print(resonance.catalog_report(catalog, budget, report))
        return EXIT_OK
    print(f"N = {budget.big_n}; (H5) {report.h5_ok}, (H7) {report.h7_ok}, "
          f"(H8) {report.h8_ok}")
    for key, items in report.witnesses.items():
        print(f"  {key} witnesses: {items[:10]}")
    return EXIT_HYPOTHESIS


def cmd_pipeline(args) -> int:
    cp = load_config(args.config)
    outdir = _output_dir(cp)
    manifest = run_pipeline(cp, outdir, "pipeline")
    print(f"pipeline complete; manifest at {os.path.join(outdir, 'manifest.json')}")
    verdict = manifest["stages"].get("fgr", {}).get("h9prime_verdict")
    if verdict is not None:
        print(f"(H9') verdict: {'positive' if verdict else 'negative'}")
    return EXIT_OK


def cmd_normalform(args) -> int:
    cp = load_config(args.config)
    stage = run_pipeline(cp, _output_dir(cp), "normalform")["stages"]["normal_form"]
    if "skipped" in stage:
        print(f"normal form skipped: {stage['skipped']}")
        return EXIT_OK
    for led in stage["rounds"]:
        print(f"round r={led['r']}: extracted {led['extracted']}, "
              f"resonant {led['resonant']}, solved {led['solved']}, "
              f"chi terms {led['chi_terms']}, dropped {led['dropped']}, "
              f"reality {'ok' if led['reality_ok'] else 'BROKEN'}")
    print(f"Z terms: {stage['z_terms']}, remainder terms: {stage['remainder_terms']}")
    return EXIT_OK


def cmd_fgr(args) -> int:
    cp = load_config(args.config)
    manifest = run_pipeline(cp, _output_dir(cp), "fgr")
    print(json.dumps(manifest["stages"].get("fgr", {}), indent=1, default=_json_default))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cp = load_config(args.config)
    outdir = _output_dir(cp)
    stage = run_pipeline(cp, outdir, "simulate")["stages"]["simulate"]
    print(f"mass drift {stage['mass_drift']:.3e}; "
          f"wrote {os.path.join(outdir, 'trajectory.csv')}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlsnf",
        description="normal forms, resonance catalogs and FGR diagnostics "
                    "for the forced NLS on a periodic box")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenpairs of a potential preset")
    p.add_argument("--config", default=None)
    p.add_argument("--preset", default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--kappa2", type=float, default=None)
    p.add_argument("--depth", type=float, default=None)
    p.add_argument("--width", type=float, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("resonance-check", help="hypothesis checks for a given spectrum")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated eigenvalues, lambda_0 = 0 first")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--tol", type=float, default=resonance.TOL_RES)
    p.set_defaults(func=cmd_resonance_check)

    for name, fn in (("normalform", cmd_normalform), ("fgr", cmd_fgr),
                     ("simulate", cmd_simulate), ("pipeline", cmd_pipeline)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.set_defaults(func=fn)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, NlsnfError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
