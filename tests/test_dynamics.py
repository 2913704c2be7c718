import collections
import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlsnf import dynamics, spectral
from nlsnf.dynamics import (
    CouplingTable,
    SimConfig,
    g_transform,
    initial_state,
    simulate,
    step,
    zeta_transform,
)
from nlsnf.errors import ConfigError, NumericalError

from conftest import random_radiation
import oracles
from oracles import integrate_reduced, linear_reference, reduced_ode_rhs


def _short_config(**kw):
    base = dict(t_end=2.0, dt=1e-3, output_stride=100, wrap_policy="ignore")
    base.update(kw)
    return SimConfig(**base)


def test_zero_data_stays_zero(pt_model):
    cfg = _short_config(mode_amplitudes=())
    rec = simulate(pt_model, cfg)
    assert np.all(rec.mass == 0.0)
    assert np.all(np.abs(rec.z) == 0.0)


def test_linear_propagator_match(pt_model):
    # gamma = 0: split-step against the exact eigenbasis propagator over [0, 10]
    rng = np.random.default_rng(0)
    u0 = (0.05 * pt_model.phi[0] + 0.03 * pt_model.phi[1]).astype(complex)
    u0 = u0 + random_radiation(pt_model, rng, scale=0.02)
    cfg = _short_config(gamma0=0.0, gamma1=0.0, t_end=10.0, u0=u0)
    rec = simulate(pt_model, cfg)
    uref = linear_reference(pt_model, u0, 10.0)
    # reconstruct the final state to compare: rerun the stepper directly
    uh = np.fft.fft(u0)
    half = np.exp(-0.5j * pt_model.grid.k ** 2 * cfg.dt)
    for i in range(10_000):
        uh = step(uh, cfg.dt, i * cfg.dt, pt_model, cfg, half)
    err = spectral.l2_norm(np.fft.ifft(uh) - uref, pt_model.grid.h)
    assert err <= 1e-6
    # and |z_j(t)| constant along the linear flow
    amp = np.abs(rec.z)
    assert np.max(np.abs(amp - amp[0])) < 1e-6


def test_mass_conservation_short(pt_model):
    cfg = _short_config(gamma0=1.0, gamma1=1.0, t_end=5.0,
                        mode_amplitudes=(0.05, 0.02))
    rec = simulate(pt_model, cfg)
    drift = np.max(np.abs(rec.mass - rec.mass[0])) / rec.mass[0]
    assert drift < 1e-10


def test_time_reversibility(pt_model):
    rng = np.random.default_rng(1)
    u0 = (0.05 * pt_model.phi[0]).astype(complex) + random_radiation(pt_model, rng, 0.02)
    cfg = _short_config(gamma0=1.0, gamma1=0.5)
    half = np.exp(-0.5j * pt_model.grid.k ** 2 * cfg.dt)
    half_back = np.exp(+0.5j * pt_model.grid.k ** 2 * cfg.dt)
    uh = np.fft.fft(u0)
    n = 500
    for i in range(n):
        uh = step(uh, cfg.dt, i * cfg.dt, pt_model, cfg, half)
    for i in range(n - 1, -1, -1):
        uh = step(uh, -cfg.dt, (i + 1) * cfg.dt, pt_model, cfg, half_back)
    err = spectral.l2_norm(np.fft.ifft(uh) - u0, pt_model.grid.h)
    assert err < 1e-10 * spectral.l2_norm(u0, pt_model.grid.h)


def test_energy_conservation_autonomous(pt_model):
    # gamma1 = 0: E(u) is a constant of motion; drift < 1e-6 relative
    cfg = _short_config(gamma0=1.0, gamma1=0.0, t_end=10.0,
                        mode_amplitudes=(0.05, 0.03))
    rec = simulate(pt_model, cfg)
    scale = max(abs(rec.energy[0]), 1e-12)
    assert np.max(np.abs(rec.energy - rec.energy[0])) / scale < 1e-6


def test_second_order_accuracy(pt_model):
    # dt halving contracts the error by ~4 against a fine reference
    rng = np.random.default_rng(2)
    u0 = (0.08 * pt_model.phi[0] + 0.04j * pt_model.phi[1]).astype(complex)
    u0 += random_radiation(pt_model, rng, 0.02)
    t_end = 0.5

    def run(dt):
        cfg = _short_config(gamma0=1.0, gamma1=1.0, dt=dt, t_end=t_end)
        uh = np.fft.fft(u0)
        half = np.exp(-0.5j * pt_model.grid.k ** 2 * dt)
        n = int(round(t_end / dt))
        for i in range(n):
            uh = step(uh, dt, i * dt, pt_model, cfg, half)
        return np.fft.ifft(uh)

    ref = run(t_end / 16384)
    e1 = spectral.l2_norm(run(t_end / 512) - ref, pt_model.grid.h)
    e2 = spectral.l2_norm(run(t_end / 1024) - ref, pt_model.grid.h)
    assert 3.0 < e1 / e2 < 5.0


def test_dt_bound_enforced(pt_model):
    with pytest.raises(ConfigError, match="safe bound"):
        simulate(pt_model, _short_config(dt=1.0))


def test_wrap_policy(pt_model, pt_aux):
    cfg = SimConfig(t_end=1000.0, dt=1e-3, wrap_policy="error")
    with pytest.raises(ConfigError, match="wrap"):
        simulate(pt_model, cfg, aux=pt_aux)
    with pytest.warns(UserWarning, match="wrap"):
        simulate(pt_model, SimConfig(t_end=20.0, dt=1e-3, output_stride=2000,
                                     mode_amplitudes=(0.01,)), aux=None)


def test_initial_state_modes_and_radiation(pt_model):
    rng = np.random.default_rng(3)
    rad = random_radiation(pt_model, rng, 0.05)
    cfg = _short_config(mode_amplitudes=(0.1, 0.2j), radiation=rad)
    u0 = initial_state(pt_model, cfg)
    state = spectral.project_modes(u0, pt_model)
    assert_allclose(state.z, [0.1, 0.2j], atol=1e-12)
    assert spectral.l2_norm(state.f - rad, pt_model.grid.h) < 1e-12


def test_sponge_absorbs(pt_model):
    # radiation-only data: with the sponge on, mass decays once the field
    # reaches the boundary layer
    rng = np.random.default_rng(4)
    x = pt_model.grid.x
    u0 = (0.05 * np.exp(-(x / 6.0) ** 2) * np.exp(1j * 1.5 * x)).astype(complex)
    cfg = _short_config(gamma0=0.0, gamma1=0.0, t_end=30.0, u0=u0,
                        sponge=True, output_stride=1000)
    rec = simulate(pt_model, cfg)
    assert rec.sponge_used
    assert rec.mass[-1] < 0.9 * rec.mass[0]


# --- changes of variables ----------------------------------------------------


def test_zeta_trivial_cases(pt_aux):
    z = np.zeros(2, dtype=complex)
    assert_allclose(zeta_transform(z, 0.0, pt_aux.zeta_couplings), z)
    # empty coupling table: identity
    z2 = np.array([0.1 + 0.2j, -0.05j])
    assert_allclose(zeta_transform(z2, 1.3, CouplingTable.from_rows([], 2, j=[])), z2)


def test_zeta_scaling(pt_aux):
    # |zeta - z| = O(|z|^{2r+1}) = O(|z|^5) for the PT budget
    rng = np.random.default_rng(5)
    z0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z0 /= np.linalg.norm(z0)
    ratios = []
    for eps in (1e-1, 5e-2):
        dz = zeta_transform(eps * z0, 0.7, pt_aux.zeta_couplings) - eps * z0
        ratios.append(np.linalg.norm(dz) / eps ** 5)
    assert ratios[1] < 4.0 * ratios[0]  # bounded as eps -> 0


def test_g_transform_trivial(pt_model, pt_aux):
    rng = np.random.default_rng(6)
    f = random_radiation(pt_model, rng, 0.1)
    state = spectral.ModeState(z=np.zeros(2, dtype=complex), f=f)
    g = g_transform(state, 0.0, pt_aux.g_couplings)
    assert_allclose(g, f, atol=1e-14)


def test_g_transform_singleton(pt_model, pt_aux):
    # f = 0 and one active monomial: g equals the resolvent tail scaled by it
    table = pt_aux.g_couplings
    m, mu, nu, vector = table.m[0], table.mu[0], table.nu[0], table.weight[0]
    z = np.array([0.3 + 0.1j, 0.2 - 0.4j])
    zb = np.conj(z)
    state = spectral.ModeState(z=z, f=np.zeros(pt_model.grid.m_pts, dtype=complex))
    g = g_transform(state, 0.9, CouplingTable.from_rows([(m, mu, nu, vector)], 2))
    mono = np.exp(1j * m * 0.9)
    for j, e in enumerate(mu):
        mono *= z[j] ** e
    for j, e in enumerate(nu):
        mono *= zb[j] ** e
    assert_allclose(g, mono * vector, atol=1e-14)


def test_coupling_tables_solve_each_mprime_triple_once(pt_model, pt_aux, monkeypatch):
    # the zeta and g tables ask for R(w + i0) Psi of the same M' triples; the
    # model's memo answers the second ask, so each triple costs one
    # back-transform, and both tables keep their bytes
    calls = []
    back = spectral.OperatorModel.from_mode_coeffs
    monkeypatch.setattr(spectral.OperatorModel, "from_mode_coeffs",
                        lambda self, coeffs: calls.append(1) or back(self, coeffs))
    model = dataclasses.replace(pt_model)    # empty memos
    zeta = dynamics.build_zeta_couplings(model, pt_aux.reduced)
    g = dynamics.build_g_couplings(model, pt_aux.reduced)
    assert len(calls) == len(pt_aux.reduced.z1_mprime) > 0
    for got, want in ((zeta, pt_aux.zeta_couplings), (g, pt_aux.g_couplings)):
        assert got.weight.tobytes() == want.weight.tobytes()


def test_reduced_ode_trivial(pt_reduced, pt_model):
    out = reduced_ode_rhs(np.zeros(2, dtype=complex), None, pt_reduced, pt_model)
    assert np.all(out == 0.0)


def test_reduced_ode_quartic_example(pt_model, pt_reduced):
    # Z1 = 0, Z0 = c |z0|^4: zdot_0 = -i lambda_0 z0 - 2 i c z0^2 zbar0
    import copy

    from nlsnf.hamalg import HamExpansion
    from oracles import scalar_term

    red = copy.copy(pt_reduced)
    red.z0 = HamExpansion([scalar_term(0.7, 0, (2, 0), (2, 0))])
    red.z1_m = {}
    red.z1_mprime = {}
    z = np.array([0.3 - 0.2j, 0.0])
    out = reduced_ode_rhs(z, None, red, pt_model)
    want0 = -1j * (pt_model.lam[0] * z[0] + 2 * 0.7 * z[0] ** 2 * np.conj(z[0]))
    assert out[0] == pytest.approx(want0, rel=1e-12)
    assert out[1] == 0.0


def test_reduced_ode_radiation_couplings(pt_model, pt_reduced):
    # the Z1 part of i zdot_j: nu_j e^{imt} z^mu conj(z)^{nu - e_j} times <f, Phi>
    # over M and <conj f, Psi> over M', against explicit Python products
    rng = np.random.default_rng(9)
    z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    f = random_radiation(pt_model, rng, 0.1)
    t, h = 0.7, pt_model.grid.h
    pairs = [(trip, spectral.pairing(f, phi, h)) for trip, phi in pt_reduced.z1_m.items()]
    pairs += [(trip, spectral.pairing(np.conj(f), psi, h))
              for trip, psi in pt_reduced.z1_mprime.items()]
    assert pairs
    want = np.zeros(2, dtype=complex)
    for trip, pair in pairs:
        for j in range(2):
            if trip.nu[j] == 0:
                continue
            val = trip.nu[j] * np.exp(1j * trip.m * t) * pair
            for k in range(2):
                val *= complex(z[k]) ** trip.mu[k]
                val *= complex(np.conj(z[k])) ** (trip.nu[k] - (k == j))
            want[j] += -1j * val
    got = (reduced_ode_rhs(z, f, pt_reduced, pt_model, t)
           - reduced_ode_rhs(z, None, pt_reduced, pt_model, t))
    assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.max(np.abs(want)))


def test_reduced_ode_short_horizon_comparison(pt_model, pt_aux, pt_reduced):
    # PDE modes vs the reduced flow: difference grows like K eps^3 t at leading
    # order (K measured, finiteness asserted)
    eps = 0.05
    cfg = _short_config(gamma0=1.0, gamma1=8.0, t_end=4.0,
                        mode_amplitudes=(eps, 0.5 * eps), output_stride=50)
    rec = simulate(pt_model, cfg, aux=pt_aux)
    zp = integrate_reduced(rec.z[0], rec.times, pt_reduced, pt_model)
    err = np.max(np.abs(rec.z - zp))
    kappa = err / (eps ** 3 * rec.times[-1])
    assert np.isfinite(kappa)
    assert err < 50.0 * eps ** 3 * rec.times[-1]


def test_strichartz_and_zsq_monitors(pt_model, pt_aux):
    cfg = _short_config(gamma0=1.0, gamma1=8.0, t_end=3.0,
                        mode_amplitudes=(0.05, 0.02))
    rec = simulate(pt_model, cfg, aux=pt_aux)
    assert "r=inf,p=2" in rec.strichartz
    assert all(v >= 0 for v in rec.strichartz.values())
    assert len(rec.zsq_integrals) == len(pt_aux.catalog.minimal)
    assert all(v >= 0 for v in rec.zsq_integrals.values())
    assert rec.zeta is not None and rec.fgr_flux is not None
    assert np.all(rec.fgr_flux >= -1e-12)


# --- fused stepping and batched monitors --------------------------------------


def _stepped(model, cfg, u0, n_steps, sponge=None):
    """The states after 0 .. n_steps single (unfused) Strang steps, in x-space."""
    half = np.exp(-0.5j * model.grid.k ** 2 * cfg.dt)
    transforms = [np.fft.fft(u0)]
    for i in range(n_steps):
        transforms.append(step(transforms[-1], cfg.dt, i * cfg.dt, model, cfg, half, sponge))
    return [np.fft.ifft(uh) for uh in transforms]


def test_fused_steps_match_single_steps(pt_model):
    rng = np.random.default_rng(10)
    u0 = (0.1 * pt_model.phi[0] + 0.05j * pt_model.phi[1]).astype(complex)
    u0 += random_radiation(pt_model, rng, 0.05)
    cfg = _short_config(gamma0=1.0, gamma1=8.0)
    half = np.exp(-0.5j * pt_model.grid.k ** 2 * cfg.dt)
    uh0 = np.fft.fft(u0)
    for t0, k in ((0.0, 2), (0.37, 25)):
        fused = step(uh0, cfg.dt, t0, pt_model, cfg, half, n=k)
        uh = uh0
        for i in range(k):
            uh = step(uh, cfg.dt, t0 + i * cfg.dt, pt_model, cfg, half)
        assert np.max(np.abs(fused - uh)) <= 1e-12 * np.max(np.abs(uh))


def test_sponge_steps_match_one_step_calls(pt_model):
    # simulate takes a sponge run in stretches; each must keep the bits of
    # the one-step calls at t = k dt, k + 1 dt, ... it stands for
    rng = np.random.default_rng(12)
    u0 = (0.1 * pt_model.phi[0]).astype(complex) + random_radiation(pt_model, rng, 0.05)
    cfg = _short_config(gamma0=1.0, gamma1=8.0)
    half = np.exp(-0.5j * pt_model.grid.k ** 2 * cfg.dt)
    sponge = dynamics._sponge_mask(pt_model.grid, cfg.dt)
    uh0 = np.fft.fft(u0)
    for k0, n in ((0, 3), (2000, 1000)):
        uh = uh0
        for i in range(n):
            uh = step(uh, cfg.dt, (k0 + i) * cfg.dt, pt_model, cfg, half, sponge)
        assert np.array_equal(step(uh0, cfg.dt, k0 * cfg.dt, pt_model, cfg, half, sponge, n), uh)


def _strang_reference(uh, dt, t, model, cfg, sponge=None, n=1):
    """n Strang steps K/2 N K/2, then S with a sponge, written with np.fft.

    The oracle of `step`: it takes and returns the transform of the state,
    and does the same floating-point operations in the same order.  Plain
    steps merge the half-steps between them into one full kinetic factor;
    sponge step i starts at (k + i) dt for t = k dt and ends in the
    transform of the masked state.
    """
    half = np.exp(-0.5j * model.grid.k ** 2 * dt)
    static = -dt * (model.v + model.c)
    uh = uh * half
    for i in range(n):
        u = np.fft.ifft(uh)
        start = t + i * dt if sponge is None or i == 0 else (round(t / dt) + i) * dt
        g = cfg.gamma0 + cfg.gamma1 * math.cos(start + 0.5 * dt)
        phase = (u.real ** 2 + u.imag ** 2) * (-dt * g) + static
        rotation = np.empty(len(u), dtype=complex)
        rotation.real, rotation.imag = np.cos(phase), np.sin(phase)
        uh = np.fft.fft(u * rotation)
        if sponge is None:
            uh = uh * (half if i == n - 1 else half * half)
        else:
            uh = np.fft.fft(np.fft.ifft(uh * half) * sponge)
            if i < n - 1:
                uh = uh * half
    return uh


def test_step_matches_the_textbook_strang_loop(pt_model):
    rng = np.random.default_rng(13)
    u0 = (0.1 * pt_model.phi[0] + 0.05j * pt_model.phi[1]).astype(complex)
    u0 += random_radiation(pt_model, rng, 0.05)
    cfg = _short_config(gamma0=1.0, gamma1=8.0)
    half = np.exp(-0.5j * pt_model.grid.k ** 2 * cfg.dt)
    sponge = dynamics._sponge_mask(pt_model.grid, cfg.dt)
    uh0 = np.fft.fft(u0)
    for mask in (None, sponge):
        for t0, n in ((0.0, 1), (0.0, 7), (37 * cfg.dt, 7)):
            # the oracle multiplies by the real mask, as numpy casts it
            real = None if mask is None else mask.real
            want = _strang_reference(uh0, cfg.dt, t0, pt_model, cfg, real, n)
            got = step(uh0, cfg.dt, t0, pt_model, cfg, half, mask, n)
            assert got.tobytes() == want.tobytes(), (mask is None, t0, n)


@pytest.mark.parametrize("m_pts", [64, 512, 1000, 4096])
def test_bound_fft_gufuncs_are_np_fft(m_pts):
    # the stepper calls numpy.fft._pocketfft_umath with the factors np.fft
    # passes (1 forward, 1/M backward); the bits must be np.fft's
    import numpy.fft._pocketfft_umath as pocketfft

    assert (dynamics._fft, dynamics._ifft) == (pocketfft.fft, pocketfft.ifft)
    rng = np.random.default_rng(m_pts)
    a = rng.standard_normal(m_pts) + 1j * rng.standard_normal(m_pts)
    out = np.empty_like(a)
    assert dynamics._fft(a, 1, out=out).tobytes() == np.fft.fft(a).tobytes()
    assert dynamics._ifft(a, 1 / m_pts, out=out).tobytes() == np.fft.ifft(a).tobytes()


def test_batched_monitors_match_single_sample_helpers(pt_model, pt_aux, monkeypatch):
    # a 5-sample buffer over 13 samples: two full batches and a partial one,
    # at stride 7 with the sponge off and on, and at stride 1
    monkeypatch.setattr(dynamics, "MONITOR_BATCH", 5)
    for sponge, stride in ((False, 7), (True, 7), (False, 1)):
        _check_monitors_against_single_samples(pt_model, pt_aux, sponge, stride)


def _check_monitors_against_single_samples(model, aux, sponge, stride):
    """Each sample of a 13-sample run against x-space helpers on the states
    of single `step` calls, and the Strichartz and |z^mu conj(z)^nu|^2
    integrals against sums of those helpers over the samples."""
    rng = np.random.default_rng(11)
    u0 = (0.1 * model.phi[0] + 0.06j * model.phi[1]).astype(complex)
    u0 += random_radiation(model, rng, 0.03)
    cfg = _short_config(gamma0=1.0, gamma1=8.0, t_end=12 * stride * 1e-3,
                        output_stride=stride, u0=u0, sponge=sponge)
    rec = simulate(model, cfg, aux=aux)
    grid = model.grid
    mask = dynamics._sponge_mask(grid, cfg.dt) if sponge else None
    states = _stepped(model, cfg, u0, 12 * stride, mask)[::stride]
    assert len(rec.times) == len(states) == 13
    weight = (1.0 + grid.x ** 2) ** (-dynamics.WEIGHT_S / 2.0)
    sample_dt = stride * cfg.dt
    strichartz = dict.fromkeys(dynamics.STRICHARTZ_PAIRS, 0.0)
    zsq = dict.fromkeys(rec.zsq_integrals, 0.0)
    assert len(zsq) == len(aux.catalog.minimal) > 0
    f_h1 = []
    for i, (t, u) in enumerate(zip(rec.times, states)):
        assert t == pytest.approx(i * sample_dt, abs=1e-15)
        state = spectral.project_modes(u, model)
        f_h1.append(np.hypot(spectral.l2_norm(state.f, grid.h),
                             spectral.l2_norm(dynamics.derivative(state.f, grid), grid.h)))
        zeta = zeta_transform(state.z, t, aux.zeta_couplings)
        g_w = spectral.l2_norm(weight * g_transform(state, t, aux.g_couplings), grid.h)
        pairs = [
            (rec.z[i], state.z),
            (rec.mass[i], spectral.l2_norm(u, grid.h)),
            (rec.energy[i], oracles.energy_value(model, u, t, cfg.gamma0, cfg.gamma1)),
            (rec.f_l2[i], spectral.l2_norm(state.f, grid.h)),
            (rec.f_h1[i], f_h1[-1]),
            (rec.f_weighted[i], spectral.l2_norm(weight * state.f, grid.h)),
            (rec.zeta[i], zeta),
            (rec.g_weighted[i], g_w),
        ]
        for got, want in pairs:
            assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.max(np.abs(want)))
        for (r, p) in strichartz:
            strichartz[r, p] += sample_dt * oracles.w1p_norm(state.f, grid, p) ** r
        for (m, mu, nu) in zsq:
            mono = 1.0 + 0.0j
            for zj, a, b in zip(state.z, mu, nu):
                mono *= complex(zj) ** a * complex(np.conj(zj)) ** b
            zsq[m, mu, nu] += sample_dt * abs(mono) ** 2
    want = {f"r={r:g},p={p:g}": v ** (1.0 / r) for (r, p), v in strichartz.items()}
    want["r=inf,p=2"] = max(f_h1)
    assert rec.strichartz.keys() == want.keys()
    for key, value in want.items():
        assert rec.strichartz[key] == pytest.approx(value, rel=1e-10, abs=0), (sponge, stride, key)
    for key, value in zsq.items():
        assert value > 0
        assert rec.zsq_integrals[key] == pytest.approx(value, rel=1e-10, abs=0), (sponge, stride, key)


def test_simulate_steps_once_per_stretch_and_calls_monitors_by_module_name(
        pt_model, pt_aux, monkeypatch):
    # the benchmark's tracer rebinds the names `dynamics` imported and times
    # the monitors as simulate less its `step` calls: one `step` call per
    # stretch between samples, and `project_modes` and `packet_form` reached
    # through those names, one call per batch and per packet
    calls = collections.Counter()

    def counting(name):
        fn = getattr(dynamics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("step", "project_modes", "packet_form"):
        monkeypatch.setattr(dynamics, name, counting(name))
    monkeypatch.setattr(dynamics, "MONITOR_BATCH", 5)
    cfg = _short_config(gamma0=1.0, gamma1=8.0, t_end=0.086, output_stride=7,
                        mode_amplitudes=(0.1, 0.05))
    rec = simulate(pt_model, cfg, aux=pt_aux)
    n_out = len(rec.times)
    assert n_out == 13 and rec.steps == 84
    assert dict(calls) == {"step": n_out - 1, "project_modes": 3,
                           "packet_form": len(pt_aux.packets)}


def test_a_nan_mid_batch_names_its_sample(pt_model, monkeypatch):
    # finiteness is checked once per monitor batch; the error names the first
    # non-finite sample, here the fourth of the batch of samples 5 .. 9
    monkeypatch.setattr(dynamics, "MONITOR_BATCH", 5)
    real_step, calls = dynamics.step, []

    def poisoned(uh, *args, **kwargs):
        out = real_step(uh, *args, **kwargs)
        calls.append(1)
        if len(calls) == 8:
            out[17] = np.nan
        return out

    monkeypatch.setattr(dynamics, "step", poisoned)
    cfg = _short_config(t_end=0.084, output_stride=7, mode_amplitudes=(0.1,))
    t8 = 8 * 7 * cfg.dt
    with pytest.raises(NumericalError, match=re.escape(f"non-finite state at t = {t8:.6g}") + "$"):
        simulate(pt_model, cfg)


def test_non_finite_initial_data_raises(pt_model):
    u0 = np.zeros(pt_model.grid.m_pts, dtype=complex)
    u0[17] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        simulate(pt_model, _short_config(t_end=0.01, output_stride=5, u0=u0))


def test_the_sign_of_an_odd_bound_state_leaves_the_record_unchanged():
    # `_fix_signs` settles the tie max = -min of a parity-odd state by
    # rounding, so the dense and the bound-state solves may give phi_1
    # opposite signs.  That is harmless for an even V: -phi_1 turns the start
    # z . phi into its mirror image u(-x), the stepper (even V, even sponge)
    # evolves mirror images into mirror images, and z_1 = h <phi_1, u> and the
    # mass read the same from either
    grid = spectral.GridSpec(l_box=40.0, m_pts=512)
    v = spectral.poschl_teller(grid.x)
    assert np.array_equal(v[1:], v[1:][::-1])          # x_j <-> x_{M-j}
    model = spectral.bound_states(grid, v)
    odd = model.phi[1]
    assert np.max(np.abs(odd[1:] + odd[1:][::-1])) <= 1e-12 * np.max(np.abs(odd))
    flipped = dataclasses.replace(model, phi=model.phi * np.array([[1.0], [-1.0]]))
    cfg = _short_config(gamma0=1.0, gamma1=8.0, t_end=3.0, sponge=True,
                        mode_amplitudes=(0.15, 0.1 * np.exp(1j)))
    rec, rec_flipped = simulate(model, cfg), simulate(flipped, cfg)
    assert_allclose(rec_flipped.z, rec.z, rtol=0, atol=1e-12)
    assert_allclose(rec_flipped.mass, rec.mass, rtol=0, atol=1e-12)
    # the flipped start is the mirror image, and not the same state
    u, mirrored = initial_state(model, cfg), initial_state(flipped, cfg)
    assert np.max(np.abs(mirrored[1:] - u[1:][::-1])) <= 1e-12 * np.max(np.abs(u))
    assert np.max(np.abs(mirrored - u)) > 0.01
