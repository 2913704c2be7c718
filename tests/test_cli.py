import configparser
import json
import os
import time
import warnings

import numpy as np
import pytest

from nlsnf import birkhoff, cli, dynamics, resonance, spectral
from nlsnf.errors import NumericalError


SMALL_CONFIG = """
[model]
l_box = 30.0
m_pts = 256
preset = poschl_teller
a = 1.5
kappa2 = 0.35

[forcing]
gamma0 = 1.0
gamma1 = 2.0

[simulation]
t_end = 2.0
dt = 1e-3
output_stride = 200
mode_amplitudes = 0.05,0.02
wrap_policy = ignore

[output]
directory = {out}
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG.format(out=tmp_path / "out"))
    return str(path)


def test_resonance_check_clean(capsys):
    rc = cli.main(["resonance-check", "--lambda", "0,0.7", "--c", "0.7875"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "N = 1" in out


def test_resonance_check_violation(capsys):
    rc = cli.main(["resonance-check", "--lambda", "0,2.0", "--c", "2.25"])
    assert rc == cli.EXIT_HYPOTHESIS
    out = capsys.readouterr().out
    assert "h8" in out


def test_resonance_check_h6_error(capsys):
    rc = cli.main(["resonance-check", "--lambda", "0,0.35", "--c", "0.7"])
    assert rc == cli.EXIT_HYPOTHESIS


def test_resonance_check_bad_lambda_exits_config(capsys):
    rc = cli.main(["resonance-check", "--lambda", "0,abc", "--c", "0.7875"])
    assert rc == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--lambda", "0,nan", "--c", "0.7875"],
    ["--lambda", "0,inf", "--c", "0.7875"],
    ["--lambda", "0,0.7", "--c", "nan"],
    ["--lambda", "0,0.7", "--c", "inf"],
    # a tolerance of 0 or NaN would pass every check of a clean spectrum
    ["--lambda", "0,0.7", "--c", "0.7875", "--tol", "nan"],
    ["--lambda", "0,0.7", "--c", "0.7875", "--tol", "0"],
    ["--lambda", "0,0.7", "--c", "0.7875", "--tol", "-1"],
    ["--lambda", "0,0.7", "--c", "0.7875", "--tol", "inf"],
], ids=["lambda-nan", "lambda-inf", "c-nan", "c-inf", "tol-nan", "tol-0", "tol-negative",
        "tol-inf"])
def test_resonance_check_non_finite_or_non_positive_input_exits_config(capsys, args):
    rc = cli.main(["resonance-check", *args])
    assert rc == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_resonance_check_over_the_enumeration_limit_exits_config(capsys):
    # N = 1,428,571: (H7) alone would visit 4.7e19 (mu, m) pairs
    start = time.perf_counter()
    rc = cli.main(["resonance-check", "--lambda", "0,0.7", "--c", "1e6"])
    assert time.perf_counter() - start < 1.0
    assert rc == cli.EXIT_CONFIG
    assert ("config error: budget N = 1428571: (H7) and (H8) would enumerate "
            "4.66e+19 (index, m) pairs") in capsys.readouterr().err


@pytest.mark.parametrize("c, rc, stream, head", [
    # 15 * 0.7 = 10.5: (H6) fails before any enumeration
    ("10.5", cli.EXIT_HYPOTHESIS, "err",
     "hypothesis violation: (H6) violated: 15 * lambda_1 = c within tolerance"),
    # 0.7 * 5 + 17 = 20.5: N = 29, 3.8e5 pairs, under the limit
    ("20.5", cli.EXIT_HYPOTHESIS, "out", "N = 29; (H5) True, (H7) False, (H8) False"),
], ids=["c-10.5", "c-20.5"])
def test_resonance_check_under_the_enumeration_limit_keeps_its_answer(capsys, c, rc, stream, head):
    assert cli.main(["resonance-check", "--lambda", "0,0.7", "--c", c]) == rc
    assert getattr(capsys.readouterr(), stream).splitlines()[0] == head


def test_resonance_check_builds_a_wide_clean_catalog(capsys):
    # lambda = (0, 1/sqrt(2)) at c = 20.33: N = 28, |bigM| = 39,593 in runs
    # of up to 2,996 triples of equal m; comparing every pair of bigM took
    # minutes, the per-m sweep takes seconds
    start = time.perf_counter()
    rc = cli.main(["resonance-check", "--lambda", "0,0.7071067811865476", "--c", "20.33"])
    assert rc == cli.EXIT_OK and time.perf_counter() - start < 30.0
    out = capsys.readouterr().out
    assert "|bigM| = 39593, |M| = 4730, min gap above c = 0.0131458" in out.splitlines()
    assert out.count("[minimal]") == 4730 and out.count("[dominated]") == 39593 - 4730


def test_pipeline_refuses_a_budget_over_the_enumeration_limit(small_config, capsys, monkeypatch):
    # the desk budget N = 1 takes 75 (H7) and 65 (H8) pairs
    monkeypatch.setattr(resonance, "MAX_ENUMERATION", 139)
    rc = cli.main(["pipeline", "--config", small_config])
    assert rc == cli.EXIT_CONFIG
    assert "budget N = 1: (H7) and (H8) would enumerate 140 " in capsys.readouterr().err
    manifest = json.load(open(os.path.join(os.path.dirname(small_config), "out",
                                           "manifest.json")))
    assert manifest["failed_stage"] == "resonance"


def test_spectrum_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    rc = cli.main(["spectrum", "--preset", "poschl_teller"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "0.7875" in out
    assert (tmp_path / "eigenpairs.csv").exists()


def test_pipeline_end_to_end(small_config, capsys):
    rc = cli.main(["pipeline", "--config", small_config])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "pipeline complete" in out
    cfgdir = os.path.dirname(small_config)
    manifest = json.load(open(os.path.join(cfgdir, "out", "manifest.json")))
    assert manifest["incomplete"] is False
    stages = manifest["stages"]
    assert stages["model"]["n_bound"] == 1
    assert stages["resonance"]["h5"] and stages["resonance"]["h7"]
    assert stages["catalog"]["M"] == 6
    assert "h9prime_verdict" in stages["fgr"]
    assert stages["simulate"]["mass_drift"] < 1e-8
    assert stages["simulate"]["beyond_wrap"] is False
    for entry in stages.values():
        assert entry["seconds"] > 0 and entry["peak_rss_mb"] > 0
    assert stages["simulate"]["steps"] > 0 and stages["simulate"]["steps_per_s"] > 0
    assert os.path.exists(os.path.join(cfgdir, "out", "trajectory.csv"))
    assert os.path.exists(os.path.join(cfgdir, "out", "resonance_report.txt"))


def test_pipeline_threads_tol_res_to_every_stage(tmp_path, capsys, monkeypatch):
    # [analysis] tol_res reaches the classification, the homological check
    # and the zeta couplings, not only the resonance and catalog stages
    seen = {}

    def spy(module, name, position):
        real = getattr(module, name)

        def recorder(*args, **kwargs):
            # None: the call left tol_res at its default
            tol = kwargs.get("tol_res", args[position] if len(args) > position else None)
            seen.setdefault(name, set()).add(tol)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, recorder)

    spy(birkhoff, "classify_term", 4)
    spy(birkhoff, "_verify_homological", 5)
    spy(dynamics, "build_zeta_couplings", 2)
    path = _config_with(tmp_path, "analysis", "tol_res", "1e-6")
    rc = cli.main(["pipeline", "--config", str(path)])
    assert rc == cli.EXIT_OK
    assert seen == {"classify_term": {1e-6}, "_verify_homological": {1e-6},
                    "build_zeta_couplings": {1e-6}}


def test_pipeline_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(SMALL_CONFIG.format(out=outdir))
        rc = cli.main(["pipeline", "--config", str(cfg)])
        assert rc == cli.EXIT_OK
        outs.append((outdir / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_pipeline_halts_on_hypothesis_violation(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("""
[model]
l_box = 30.0
m_pts = 256
preset = sech2_well

[forcing]
gamma0 = 1.0
gamma1 = 1.0

[output]
directory = {out}
""".format(out=tmp_path / "out"))
    rc = cli.main(["pipeline", "--config", str(cfg)])
    assert rc == cli.EXIT_HYPOTHESIS
    manifest = json.load(open(tmp_path / "out" / "manifest.json"))
    assert manifest["incomplete"] is True
    assert manifest["failed_stage"] == "resonance"
    # c = 1.0 breaks the non-integer hypothesis; the witness is recorded
    assert manifest["stages"]["resonance"]["h5"] is False


CONFIG_ERRORS = [
    ("missing-file", None, "missing.cfg", None),  # the config file is missing
    ("directory", None, ".", None),               # the config path is a directory
    # UTF-16 text, starting with the bytes FF FE: not UTF-8
    ("not-utf-8", None, "utf16.cfg", b"\xff\xfe" + "[model]\n".encode("utf-16-le")),
    ("m_pts", "model", "m_pts", "1000"),
    ("preset", "model", "preset", "nope"),
    ("dt", "simulation", "dt", "abc"),
    ("nonlinearity", "simulation", "nonlinearity", "quintic"),
    ("seed", "simulation", "seed", "abc"),
    ("tol_res", "analysis", "tol_res", "abc"),
    ("r_max", "analysis", "r_max", "two"),
    ("estimator", "analysis", "estimator", "nope"),
    ("duplicate-key", "model", "m_pts", None),   # the key appears twice
    ("gamma0", "forcing", "gamma0", "abc"),
    ("output_stride", "simulation", "output_stride", "0"),
]


# every subcommand that runs cli.run_pipeline checks the whole config
# first; the pipeline cases keep their bare ids
@pytest.mark.parametrize("command, section, key, value", [
    pytest.param(command, section, key, value,
                 id=name if command == "pipeline" else f"{command}-{name}")
    for command in ("pipeline", "normalform", "fgr", "simulate")
    for name, section, key, value in CONFIG_ERRORS
])
def test_config_error_exit(tmp_path, capsys, command, section, key, value):
    # with no section, key is the config path within tmp_path, and value the
    # bytes written there, if any
    path = tmp_path / key
    if section is not None:
        path = _config_with(tmp_path, section, key, value)
    elif value is not None:
        path.write_bytes(value)
    rc = cli.main([command, "--config", str(path)])
    assert rc == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def _config_with(tmp_path, section, key, value):
    """SMALL_CONFIG with `key` set to `value`, or given twice if value is None."""
    text = SMALL_CONFIG.format(out=tmp_path / "out")
    path = tmp_path / "bad.cfg"
    if value is None:
        path.write_text(text.replace(f"{key} = ", f"{key} = 512\n{key} = ", 1))
    else:
        cp = configparser.ConfigParser()
        cp.read_string(text)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
        with open(path, "w") as fh:
            cp.write(fh)
    return path


NON_FINITE = [
    ("simulation", "dt", "nan"),
    ("simulation", "t_end", "nan"),
    ("simulation", "t_end", "inf"),
    ("simulation", "mode_amplitudes", "0.05,nan"),
    ("model", "l_box", "nan"),
    ("model", "l_box", "inf"),
    ("model", "a", "nan"),
    ("forcing", "gamma0", "nan"),
]


# NaN passes every `<=` test and inf overflows the step count, so each float
# is checked for finiteness where it is parsed
@pytest.mark.parametrize("command", ["pipeline", "simulate"])
@pytest.mark.parametrize("section, key, value", NON_FINITE,
                         ids=[f"{key}={value}" for _, key, value in NON_FINITE])
def test_non_finite_config_value_exits_config(tmp_path, capsys, command, section, key, value):
    rc = cli.main([command, "--config", str(_config_with(tmp_path, section, key, value))])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "finite" in err


def test_linear_fast_path(tmp_path):
    cfg = tmp_path / "lin.cfg"
    cfg.write_text("""
[model]
l_box = 30.0
m_pts = 256

[forcing]
gamma0 = 0.0
gamma1 = 0.0

[simulation]
t_end = 1.0
dt = 1e-3
output_stride = 100
mode_amplitudes = 0.05,0.0
wrap_policy = ignore

[output]
directory = {out}
""".format(out=tmp_path / "out"))
    rc = cli.main(["pipeline", "--config", str(cfg)])
    assert rc == cli.EXIT_OK
    manifest = json.load(open(tmp_path / "out" / "manifest.json"))
    assert manifest["stages"]["normal_form"] == {"skipped": "linear run"}
    # |z_j| constant on the linear flow
    z0 = manifest["stages"]["simulate"]["mode_energy_initial"]
    z1 = manifest["stages"]["simulate"]["mode_energy_final"]
    assert z1 == pytest.approx(z0, rel=1e-6)


def test_simulate_runs_the_model_and_simulate_stages(small_config, capsys):
    rc = cli.main(["simulate", "--config", small_config])
    assert rc == cli.EXIT_OK
    assert "mass drift" in capsys.readouterr().out
    outdir = os.path.join(os.path.dirname(small_config), "out")
    manifest = json.load(open(os.path.join(outdir, "manifest.json")))
    assert manifest["incomplete"] is False and "failed_stage" not in manifest
    assert list(manifest["stages"]) == ["model", "simulate"]
    for entry in manifest["stages"].values():
        assert entry["seconds"] > 0 and entry["peak_rss_mb"] > 0
    sim = manifest["stages"]["simulate"]
    assert sim["steps"] > 0 and sim["steps_per_s"] > 0
    assert sim["mass_drift"] < 1e-8 and sim["beyond_wrap"] is False
    assert os.path.exists(os.path.join(outdir, "eigenpairs.csv"))
    # the same trajectory as a direct run on the bound states alone, without
    # the reduced-form monitors
    assert manifest["stages"]["model"]["basis"] == "bound_states"
    cp = cli.load_config(small_config)
    model = spectral.bound_states(*cli.potential_from_config(cp))
    record = dynamics.simulate(model, cli.sim_config_from(cp))
    direct = os.path.join(os.path.dirname(small_config), "direct.csv")
    cli.write_trajectory_csv(record, direct)
    assert open(os.path.join(outdir, "trajectory.csv"), "rb").read() == open(direct, "rb").read()


def test_simulate_records_a_failing_simulate_stage(tmp_path, capsys):
    # without the reduced-form monitors SMALL_CONFIG's t_wrap is 7.5; past it,
    # wrap_policy = error refuses to step
    cfg = tmp_path / "wrap.cfg"
    cfg.write_text(SMALL_CONFIG.format(out=tmp_path / "out")
                   .replace("t_end = 2.0", "t_end = 8.0")
                   .replace("wrap_policy = ignore", "wrap_policy = error"))
    rc = cli.main(["simulate", "--config", str(cfg)])
    assert rc == cli.EXIT_CONFIG
    manifest = json.load(open(tmp_path / "out" / "manifest.json"))
    assert manifest["incomplete"] is True
    assert manifest["failed_stage"] == "simulate"
    assert "wrap horizon" in manifest["error"]
    assert list(manifest["stages"]) == ["model"]
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_simulate_zero_data_has_no_mass_drift(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(SMALL_CONFIG.format(out=tmp_path / "out")
                   .replace("mode_amplitudes = 0.05,0.02", "mode_amplitudes ="))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["simulate", "--config", str(cfg)])
    assert rc == cli.EXIT_OK
    assert "mass drift 0.000e+00" in capsys.readouterr().out


def test_pipeline_records_a_run_beyond_the_wrap_horizon(tmp_path, capsys):
    # SMALL_CONFIG's pipeline has t_wrap = 5.91 and no sponge
    cfg = tmp_path / "long.cfg"
    cfg.write_text(SMALL_CONFIG.format(out=tmp_path / "out")
                   .replace("t_end = 2.0", "t_end = 6.0"))
    rc = cli.main(["pipeline", "--config", str(cfg)])
    assert rc == cli.EXIT_OK
    sim = json.load(open(tmp_path / "out" / "manifest.json"))["stages"]["simulate"]
    assert sim["t_wrap"] < 6.0 and sim["sponge"] is False
    assert sim["beyond_wrap"] is True


def test_manifest_records_the_drop_ledger(small_config, capsys):
    rc = cli.main(["normalform", "--config", small_config])
    assert rc == cli.EXIT_OK
    manifest = json.load(open(os.path.join(os.path.dirname(small_config), "out",
                                           "manifest.json")))
    rounds = manifest["stages"]["normal_form"]["rounds"]
    assert rounds
    for led in rounds:
        assert sum(led["dropped_by_size"].values()) == led["dropped"]
        assert led["dropped_mass"] >= 0.0
        chains = led["chains"]
        assert set(chains) == {"z", "k", "rest"}
        for chain in chains.values():
            assert all(count > 0 for count in chain["powers"])
            # every merged sum, built or dropped, has at least one raw output
            assert chain["generated"] >= sum(chain["powers"]) + chain["dropped"]
        # K's powers feed two blocks, so its drops are counted twice
        assert led["dropped"] == (chains["z"]["dropped"] + 2 * chains["k"]["dropped"]
                                  + chains["rest"]["dropped"])
    assert any(led["dropped"] > 0 for led in rounds)
    assert any(led["chains"]["k"]["dropped"] > 0 for led in rounds)


def test_normalform_command(small_config, capsys):
    rc = cli.main(["normalform", "--config", small_config])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "round r=1" in out
    assert "reality ok" in out


def test_normalform_honours_analysis_keys(small_config, capsys):
    # r_max = 1 asks for no rounds at all
    with open(small_config, "a") as fh:
        fh.write("\n[analysis]\nr_max = 1\n")
    rc = cli.main(["normalform", "--config", small_config])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "round r=" not in out
    assert "Z terms: 0" in out


def _forbid_simulation(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("this subcommand must not simulate")
    monkeypatch.setattr(dynamics, "simulate", no_simulation)


def test_spectrum_writes_manifest(small_config, capsys):
    rc = cli.main(["spectrum", "--config", small_config])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    manifest = json.load(open(os.path.join(os.path.dirname(small_config), "out",
                                           "manifest.json")))
    assert manifest["incomplete"] is False
    assert list(manifest["stages"]) == ["model"]
    assert f"c = {manifest['stages']['model']['c']:.10g}" in out


def _run_spectrum_on_csv(tmp_path, csv_path):
    """`nlsnf spectrum` on SMALL_CONFIG's grid with [model] potential_csv set."""
    path = _config_with(tmp_path, "model", "potential_csv", str(csv_path))
    rc = cli.main(["spectrum", "--config", str(path)])
    return rc, json.load(open(tmp_path / "out" / "manifest.json"))


def test_potential_csv_of_the_preset_samples_gives_the_preset_spectrum(small_config, tmp_path,
                                                                      capsys):
    # the samples interpolate to the preset's V bit for bit, so the seeded
    # bound-state solve gives the bits of the preset's own `spectrum` run
    assert cli.main(["spectrum", "--config", small_config]) == cli.EXIT_OK
    preset = json.load(open(tmp_path / "out" / "manifest.json"))["stages"]["model"]
    grid = spectral.GridSpec(l_box=30.0, m_pts=256)
    xs = np.append(grid.x, grid.l_box)            # the periodic endpoint x = L too
    np.savetxt(tmp_path / "v.csv", np.column_stack(
        [xs, spectral.poschl_teller(xs, a=1.5, kappa2=0.35)]), delimiter=",")
    rc, manifest = _run_spectrum_on_csv(tmp_path, tmp_path / "v.csv")
    assert rc == cli.EXIT_OK
    got = manifest["stages"]["model"]
    assert got["eigenvalues"] == preset["eigenvalues"] and got["c"] == preset["c"]
    assert got["eigenvalues"] == pytest.approx([0.0, 0.7], abs=1e-7)


def test_potential_csv_that_misses_the_box_exits_config(tmp_path, capsys):
    xs = np.linspace(-10.0, 10.0, 101)
    np.savetxt(tmp_path / "v.csv", np.column_stack(
        [xs, spectral.poschl_teller(xs, a=1.5, kappa2=0.35)]), delimiter=",")
    rc, manifest = _run_spectrum_on_csv(tmp_path, tmp_path / "v.csv")
    assert rc == cli.EXIT_CONFIG
    assert manifest["failed_stage"] == "model"
    assert "do not cover the box" in capsys.readouterr().err


@pytest.mark.parametrize("sample", ["nan", "-inf", "inf"])
def test_potential_csv_with_a_non_finite_sample_exits_config(tmp_path, capsys, sample):
    # a NaN at x = 0 used to end as "empty discrete spectrum" (exit 3), a
    # -inf as a ground state that is not boundary-localized (exit 3)
    (tmp_path / "v.csv").write_text(f"-100,0\n-5,0\n0,{sample}\n5,0\n100,0\n")
    rc, manifest = _run_spectrum_on_csv(tmp_path, tmp_path / "v.csv")
    assert rc == cli.EXIT_CONFIG
    assert manifest["failed_stage"] == "model"
    assert "potential CSV sample 3 is not finite" in capsys.readouterr().err


def test_preset_with_a_non_finite_sample_exits_config(tmp_path, capsys, monkeypatch):
    # finite parameters, but width^2 underflows to 0 and V(0) = -depth exp(0/0)
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = cli.main(["spectrum", "--preset", "gaussian_well", "--depth", "1e308",
                       "--width", "1e-300"])
    assert rc == cli.EXIT_CONFIG
    assert "V = nan at grid point 1024 (x = 0)" in capsys.readouterr().err
    assert json.load(open(tmp_path / "manifest.json"))["failed_stage"] == "model"


def test_missing_potential_csv_exits_config(tmp_path, capsys):
    rc, manifest = _run_spectrum_on_csv(tmp_path, tmp_path / "absent.csv")
    assert rc == cli.EXIT_CONFIG
    assert manifest["failed_stage"] == "model"
    assert "config error" in capsys.readouterr().err


def test_directory_potential_csv_exits_config(tmp_path, capsys):
    rc, manifest = _run_spectrum_on_csv(tmp_path, tmp_path)
    assert rc == cli.EXIT_CONFIG
    assert manifest["failed_stage"] == "model"
    assert "Is a directory" in capsys.readouterr().err


def test_output_path_that_is_a_file_exits_config(small_config, tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setenv(cli.OUTDIR_ENV, str(taken))
    rc = cli.main(["spectrum", "--config", small_config])
    assert rc == cli.EXIT_CONFIG
    assert "config error: output directory" in capsys.readouterr().err
    assert taken.read_text() == ""


def test_fgr_stops_before_the_simulation(small_config, capsys, monkeypatch):
    _forbid_simulation(monkeypatch)
    rc = cli.main(["fgr", "--config", small_config])
    assert rc == cli.EXIT_OK
    outdir = os.path.join(os.path.dirname(small_config), "out")
    manifest = json.load(open(os.path.join(outdir, "manifest.json")))
    assert manifest["incomplete"] is False
    assert list(manifest["stages"])[-1] == "fgr"
    assert "simulate" not in manifest["stages"]
    assert not os.path.exists(os.path.join(outdir, "trajectory.csv"))
    assert json.loads(capsys.readouterr().out) == manifest["stages"]["fgr"]


# the histogram and LAP Grams of SMALL_CONFIG's packets differ by 2.5-6.2 %
LAP_GAP_MAX = 0.25


def test_manifest_reports_packets_and_h4(small_config, capsys, monkeypatch):
    _forbid_simulation(monkeypatch)
    rc = cli.main(["fgr", "--config", small_config])
    assert rc == cli.EXIT_OK
    manifest = json.load(open(os.path.join(os.path.dirname(small_config), "out",
                                           "manifest.json")))
    packets = manifest["stages"]["fgr"]["packets"]
    assert packets
    for p in packets:
        assert p["clipped_mass"] >= 0.0
        assert 0.0 <= p["lap_gap"] < LAP_GAP_MAX
    # (H4) as the resonance stage saw it: the report of the same model
    h4 = manifest["stages"]["resonance"]["h4"]
    model = cli.build_model_from_config(cli.load_config(small_config))
    want = spectral.threshold_blowup_report(model)
    assert h4 == {"growth_exponents": want["growth_exponents"],
                  "suspicious": want["suspicious"]}
    assert len(h4["growth_exponents"]) == 3 and h4["suspicious"] is False


@pytest.mark.parametrize("command", ["normalform", "fgr"])
def test_linear_prefix_run_records_the_skip(tmp_path, capsys, monkeypatch, command):
    _forbid_simulation(monkeypatch)
    cfg = tmp_path / "lin.cfg"
    cfg.write_text(SMALL_CONFIG.format(out=tmp_path / "out")
                   .replace("gamma0 = 1.0", "gamma0 = 0.0")
                   .replace("gamma1 = 2.0", "gamma1 = 0.0"))
    rc = cli.main([command, "--config", str(cfg)])
    assert rc == cli.EXIT_OK
    manifest = json.load(open(tmp_path / "out" / "manifest.json"))
    assert manifest["incomplete"] is False
    assert list(manifest["stages"])[-1] == "normal_form"
    assert manifest["stages"]["normal_form"] == {"skipped": "linear run"}
    assert not (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize("command, basis", [("spectrum", "bound_states"),
                                            ("simulate", "bound_states"),
                                            ("normalform", "dense")])
def test_model_stage_records_its_basis(small_config, capsys, command, basis):
    # only a run with a stage that reads the continuum builds the dense basis
    with open(small_config, "a") as fh:
        fh.write("\n[analysis]\nr_max = 1\n")
    assert cli.main([command, "--config", small_config]) == cli.EXIT_OK
    manifest = json.load(open(os.path.join(os.path.dirname(small_config), "out",
                                           "manifest.json")))
    model = manifest["stages"]["model"]
    assert model["basis"] == basis
    assert (model["iterations"] is None) == (basis == "dense")
    assert 0.0 < model["residual"] <= spectral.TOL_EIG_RESIDUAL
    assert model["eigenvalues"] == pytest.approx([0.0, 0.7], abs=1e-7)


def test_stage_warnings_are_shown_and_recorded(tmp_path, capsys):
    # SMALL_CONFIG's simulate has t_wrap = 7.5; wrap_policy = warn runs past it
    cfg = tmp_path / "wrap.cfg"
    cfg.write_text(SMALL_CONFIG.format(out=tmp_path / "out")
                   .replace("t_end = 2.0", "t_end = 8.0")
                   .replace("wrap_policy = ignore", "wrap_policy = warn"))
    with pytest.warns(UserWarning, match="radiation wrap horizon") as shown:
        rc = cli.main(["simulate", "--config", str(cfg)])
    assert rc == cli.EXIT_OK
    stages = json.load(open(tmp_path / "out" / "manifest.json"))["stages"]
    assert stages["model"]["warnings"] == []
    assert stages["simulate"]["warnings"] == [str(w.message) for w in shown]
    assert len(shown) == 1


def test_a_failing_stage_records_its_warnings(small_config, capsys, monkeypatch):
    def warn_then_fail(*args, **kwargs):
        warnings.warn("about to fail")
        raise NumericalError("failed on purpose")

    monkeypatch.setattr(dynamics, "simulate", warn_then_fail)
    with pytest.warns(UserWarning, match="about to fail"):
        rc = cli.main(["simulate", "--config", small_config])
    assert rc == cli.EXIT_NUMERICAL
    manifest = json.load(open(os.path.join(os.path.dirname(small_config), "out",
                                           "manifest.json")))
    assert manifest["failed_stage"] == "simulate"
    assert manifest["failed_stage_warnings"] == ["about to fail"]
    assert list(manifest["stages"]) == ["model"]
