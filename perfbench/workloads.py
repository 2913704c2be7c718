"""Workload definitions and the inputs each one draws from its seed.

This module imports numpy only, so the runner can regenerate a job's inputs
(to check its outputs) without loading the program under test.

The model is the README desk model: a Pöschl-Teller well (a = 1.5,
kappa^2 = 0.35) on [-40, 40) with forcing gamma(t) = 1 + 8 cos t.  Grids are
coarser than the README's M = 2048 so that a run of `run_seconds` holds
several jobs: on a shared 2-vCPU VM the normal form costs 8-10 s at
M = 512 and 16-19 s at M = 2048, almost all of it in the pure-Python Lie
series either way.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("nf-desk", "evolve-long", "continuum-wide")

DESK = {"l_box": 40.0, "a": 1.5, "kappa2": 0.35, "gamma0": 1.0, "gamma1": 8.0,
        "dt": 1e-3}

# full: what the benchmark measures.  tiny: the same code paths in seconds,
# for the self-tests.
SCALES = {
    "full": {
        "desk_m": 512,
        "nf_t_end": 7.5,          # inside t_wrap = 7.87 of the L = 40 box
        "nf_stride": 5,           # 1500 monitor samples
        "evolve_t_end": 30.0,     # 30000 Strang steps, ~4 t_wrap with the sponge
        "evolve_stride": 1000,
        "wide_l": 80.0,           # grid step of the criterion-6 box (160 / 4096)
        "wide_m": 2048,
        "probes": 2,
        "packets": 3,
    },
    "tiny": {
        "desk_m": 256,
        "nf_t_end": 0.5,
        "nf_stride": 25,
        "evolve_t_end": 1.0,
        "evolve_stride": 100,
        "wide_l": 30.0,
        "wide_m": 256,
        "probes": 1,
        "packets": 2,
    },
}

# evolve-long picks its start from this fixed table and rotates it by a seeded
# global phase.  The forced NLS is U(1)-invariant, so the final amplitudes of
# every seed follow from the pinned reference of its table entry.
EVOLVE_TABLE_SIZE = 8

# continuum-wide energies: w - c is drawn in [0.3, 2.8], the criterion-6 range,
# one stratum per probe so every seed does nearly the same amount of work.
WIDE_A_RANGE = (0.3, 2.8)


def evolve_table() -> list[tuple[complex, complex]]:
    """The fixed start amplitudes (z_0, z_1) of evolve-long."""
    rng = np.random.default_rng(2010)
    table = []
    for _ in range(EVOLVE_TABLE_SIZE):
        r0 = rng.uniform(0.10, 0.20)
        r1 = rng.uniform(0.05, 0.14)
        rel = rng.uniform(0.0, 2.0 * math.pi)
        table.append((complex(r0), complex(r1 * np.exp(1j * rel))))
    return table


def make_inputs(workload: str, seed: int, scale: str) -> dict:
    """Everything a job of `workload` needs, drawn from `seed` alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sc = SCALES[scale]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "nf-desk":
        amps = (rng.uniform(0.03, 0.08) * np.exp(2j * math.pi * rng.random()),
                rng.uniform(0.02, 0.06) * np.exp(2j * math.pi * rng.random()))
        return {"m_pts": sc["desk_m"], "t_end": sc["nf_t_end"],
                "stride": sc["nf_stride"], "sponge": False,
                "amplitudes": [complex(a) for a in amps],
                "rayleigh_seed": int(rng.integers(0, 2**31 - 1))}
    if workload == "evolve-long":
        entry = int(rng.integers(EVOLVE_TABLE_SIZE))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        phase = complex(np.exp(1j * theta))
        return {"m_pts": sc["desk_m"], "t_end": sc["evolve_t_end"],
                "stride": sc["evolve_stride"], "sponge": True,
                "amplitudes": [a * phase for a in evolve_table()[entry]],
                "table_entry": entry, "phase": phase, "rayleigh_seed": 0}
    lo, hi = WIDE_A_RANGE
    n = sc["probes"]
    probes = []
    for p in range(n):
        a = lo + (hi - lo) * (p + rng.random()) / n
        packets = [{"x0": float(3.0 * rng.standard_normal()),
                    "s": float(1.0 + 1.5 * rng.random()),
                    "k0": float(rng.uniform(-1.0, 1.0))}
                   for _ in range(sc["packets"])]
        probes.append({"a": float(a), "packets": packets})
    return {"l_box": sc["wide_l"], "m_pts": sc["wide_m"], "probes": probes}


def grid_x(l_box: float, m_pts: int) -> np.ndarray:
    """Nodes of the periodic grid on [-l_box, l_box)."""
    return -l_box + (2.0 * l_box / m_pts) * np.arange(m_pts)


def packet_vectors(probe: dict, x: np.ndarray) -> list[np.ndarray]:
    """Gaussian packets of one probe: the criterion-6 profile with a momentum."""
    return [np.exp(-(x - p["x0"]) ** 2 / (2.0 * p["s"] ** 2))
            * (1.0 + 0.4 * np.tanh(x / 2.0)) * np.exp(1j * p["k0"] * x)
            for p in probe["packets"]]


def config_text(inputs: dict, outdir: str) -> str:
    """INI config of an `nlsnf pipeline` / `nlsnf simulate` job."""
    amps = ",".join(repr(a).strip("()") for a in inputs["amplitudes"])
    return "\n".join([
        "[model]",
        f"l_box = {DESK['l_box']!r}",
        f"m_pts = {inputs['m_pts']}",
        "preset = poschl_teller",
        f"a = {DESK['a']!r}",
        f"kappa2 = {DESK['kappa2']!r}",
        "[forcing]",
        f"gamma0 = {DESK['gamma0']!r}",
        f"gamma1 = {DESK['gamma1']!r}",
        "[simulation]",
        f"t_end = {inputs['t_end']!r}",
        f"dt = {DESK['dt']!r}",
        f"output_stride = {inputs['stride']}",
        f"mode_amplitudes = {amps}",
        f"sponge = {'true' if inputs['sponge'] else 'false'}",
        f"seed = {inputs['rayleigh_seed']}",
        "[output]",
        f"directory = {outdir}",
        "",
    ])
