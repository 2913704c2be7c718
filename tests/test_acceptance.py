"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The heavy model/pipeline artifacts are session fixtures shared with
the unit tests (conftest.py); the forced configuration is gamma(t) =
1 + 8 cos t on the Pöschl-Teller model, the shipped desk default.
"""

import itertools

import numpy as np
import pytest

import oracles
from conftest import GAMMA0, GAMMA1, random_radiation
from nlsnf import birkhoff, dynamics, fgr, hamalg, resonance, spectral
from nlsnf.hamalg import HamExpansion
from oracles import scalar_term


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# --------------------------------------------------------------------------
# 1. homological identity on random nonresonant data


def _random_nonresonant_k(model, rng, margin=0.05):
    lam = model.lam
    n = len(lam)
    terms = []
    n_terms = 1 + int(rng.integers(0, 3))
    while len(terms) < n_terms:
        kind = rng.choice(["scalar", "linear_f", "linear_fbar"])
        if kind == "scalar":
            s = int(rng.integers(2, 4))
            mu = _random_multi(rng, n, s)
            nu = _random_multi(rng, n, s)
            m = int(rng.integers(-2, 3))
            omega = float(lam @ (np.array(mu) - np.array(nu))) - m
            if abs(omega) < margin:
                continue
            c = complex(rng.standard_normal(), rng.standard_normal())
            terms.append(scalar_term(c, m, mu, nu))
        else:
            s = int(rng.integers(1, 3))
            small = _random_multi(rng, n, s)
            big = _random_multi(rng, n, s + 1)
            mu, nu = (small, big) if kind == "linear_f" else (big, small)
            m = int(rng.integers(-s, s + 1))
            omega = float(lam @ (np.array(mu) - np.array(nu))) - m
            arg = -omega if kind == "linear_f" else omega
            if arg > model.c - margin:
                continue
            if np.any(np.abs(lam - arg) < 0.02):
                continue
            vec = model.project_pc(
                (rng.standard_normal(model.grid.m_pts)
                 + 1j * rng.standard_normal(model.grid.m_pts))
                * np.exp(-model.grid.x ** 2 / (0.1 * model.grid.l_box) ** 2))
            if kind == "linear_f":
                terms.append(oracles.linear_f_term(m, mu, nu, vec))
            else:
                terms.append(oracles.linear_fbar_term(m, mu, nu, vec))
    return HamExpansion(terms)


def _random_multi(rng, n, total):
    cuts = rng.integers(0, total + 1, size=n - 1) if n > 1 else []
    out = np.zeros(n, dtype=int)
    for _ in range(total):
        out[int(rng.integers(0, n))] += 1
    del cuts
    return tuple(out)


def test_criterion_1_homological_identity(small_clean_models):
    rng = np.random.default_rng(101)
    worst = 0.0
    n_k = 0
    for model, _budget in itertools.cycle(small_clean_models):
        if n_k >= 50:
            break
        k_exp = _random_nonresonant_k(model, rng)
        chi = birkhoff.solve_homological(k_exp, model)
        bracket = HamExpansion(
            [hamalg.bracket_hf(t, model.lam, model).scaled(-1.0) for t in chi.terms])
        diff = (bracket + k_exp.scaled(-1.0).terms).merged()
        n = len(model.lam)
        for _ in range(100):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f = random_radiation(model, rng, scale=1.0)
            t = float(2 * np.pi * rng.random())
            kv = abs(oracles.evaluate(k_exp, t, z, f, model.grid.h))
            dv = abs(oracles.evaluate(diff, t, z, f, model.grid.h))
            worst = max(worst, dv / max(kv, 1e-9))
        n_k += 1
    ok = worst < 1e-8
    assert _report(1, ok, f"max |{{chi,H_F}} - K| / |K| = {worst:.2e} over "
                          f"{n_k} random K on {len(small_clean_models)} spectra")


# --------------------------------------------------------------------------
# 2./3. normal-form classification and the ledger law


def test_criterion_2_normal_form_classification(pt_normal_form, pt_model):
    nf = pt_normal_form
    lam, c = pt_model.lam, pt_model.c
    bad = []
    for t in nf.z_part.merged().terms:
        mu = np.asarray(t.mu)
        nu = np.asarray(t.nu)
        omega = float(lam @ (mu - nu)) - t.m
        if t.kind == "scalar":
            if not (t.m == 0 and abs(omega) < 1e-9 and sum(t.mu) == sum(t.nu)):
                bad.append(t)
        elif t.kind == "linear_f":
            if not (omega < -c and sum(t.mu) == sum(t.nu) - 1
                    and abs(t.m) <= sum(t.mu)):
                bad.append(t)
        elif t.kind == "linear_fbar":
            if not (omega > c and sum(t.nu) == sum(t.mu) - 1
                    and abs(t.m) <= sum(t.nu)):
                bad.append(t)
        else:
            bad.append(t)
    reality = all(led.reality_ok for led in nf.ledgers)
    ok = not bad and reality
    assert _report(2, ok,
                   f"{len(nf.z_part)} Z-terms satisfy the normal-form predicates "
                   f"exactly over {len(nf.ledgers)} round(s); reality "
                   f"{'holds' if reality else 'BROKEN'}; violations: {len(bad)}")


def test_criterion_3_ledger_law(pt_normal_form, pt_model):
    # the closure assertions run inside every lie_derivative call (criterion 2
    # could not have completed otherwise); re-verify exhaustively on a fresh
    # first-order derivative of the full forced energy
    chi = pt_normal_form.generators[0]
    info = hamalg.generator_info(chi)
    e_p = hamalg.expand_potential_energy(pt_model, GAMMA0, GAMMA1)
    violations = 0
    checked = 0
    for g in e_p.merged().terms:
        out = hamalg.lie_derivative(chi, HamExpansion([g]), pt_model)
        for t in out.terms:
            checked += 1
            if t.is_balanced and g.is_balanced:
                if t.ledger != g.ledger + info.big_m0:
                    violations += 1
            if abs(t.m) > info.m0 + abs(g.m):
                violations += 1
    ok = violations == 0 and checked > 0
    assert _report(3, ok, f"L' = L + M0 and |m'| <= m0 + |m| on {checked} "
                          f"lie-derivative outputs; violations: {violations}")


# --------------------------------------------------------------------------
# 4. catalog correctness


def test_criterion_4_catalog(pt_catalog, pt_model):
    lam, c = pt_model.lam, pt_model.c
    big_n = pt_catalog.big_n
    brute = []
    for smu in range(0, big_n + 1):
        for mu in itertools.product(range(smu + 1), repeat=len(lam)):
            if sum(mu) != smu:
                continue
            for nu in itertools.product(range(smu + 2), repeat=len(lam)):
                if sum(nu) != smu + 1:
                    continue
                for m in range(-smu, smu + 1):
                    if float(lam @ (np.array(mu) - np.array(nu))) - m < -c:
                        brute.append((m, mu, nu))
    brute_min = []
    for (m, mu, nu) in brute:
        dominated = any(
            m2 == m and (a, b) != (mu, nu)
            and all(x <= y for x, y in zip(a, mu))
            and all(x <= y for x, y in zip(b, nu))
            for (m2, a, b) in brute)
        if not dominated:
            brute_min.append((m, mu, nu))
    got_big = sorted((t.m, t.mu, t.nu) for t in pt_catalog.big_m)
    got_min = sorted((t.m, t.mu, t.nu) for t in pt_catalog.minimal)
    image = {( -t.m, t.nu, t.mu) for t in pt_catalog.minimal}
    bij = image == {(t.m, t.mu, t.nu) for t in pt_catalog.minimal_prime}
    above = all(w > c for w in pt_catalog.x_values)
    const = all(
        len({t.m for t in mem}) == 1
        and len({round(float(lam @ (np.array(t.mu) - np.array(t.nu))), 9)
                 for t in mem}) == 1
        for mem in pt_catalog.m_w.values())
    ok = (got_big == sorted(brute) and got_min == sorted(brute_min)
          and bij and above and const)
    assert _report(4, ok,
                   f"brute force reproduces |bigM| = {len(brute)}, |M| = "
                   f"{len(brute_min)}; bijection {bij}; all w > c {above}; "
                   f"M_w constancy {const}")


# --------------------------------------------------------------------------
# 5. cancellation identities


def test_criterion_5_cancellations(pt_model, pt_packets):
    rng = np.random.default_rng(105)
    x = pt_model.grid.x
    worst = dict(phase=0.0, pv=0.0, delta=0.0, reality=0.0)
    count = 0
    nonreal_rejected = True
    for trial in range(10):
        # random diagonal-resonant Z0 and a random two-packet catalog; each
        # drawn term comes with its conjugate mirror, so Z0 is real as the
        # identity (a) requires (the merged coefficient is 2 Re c)
        drawn = []
        for _ in range(4):
            mu = _random_multi(rng, 2, int(rng.integers(1, 4)))
            c = complex(rng.standard_normal(), rng.standard_normal())
            drawn.append(scalar_term(c, 0, mu, mu))
        z0 = HamExpansion(drawn + [t.mirror() for t in drawn])
        packets = []
        for w_off in (0.4 + rng.random(), 1.3 + rng.random()):
            w = pt_model.c + w_off
            members = []
            for _ in range(int(rng.integers(1, 3))):
                mu = _random_multi(rng, 2, 1)
                nu = _random_multi(rng, 2, 2)
                vec = pt_model.project_pc(
                    (rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x)))
                    * np.exp(-x ** 2 / 30))
                members.append((resonance.IndexTriple(1, mu, nu), vec))
            vecs = [v for _, v in members]
            packets.append(fgr.FgrPacket(
                w=w, members=members,
                gram=spectral.density_gram(pt_model, w, vecs),
                gram_pv=spectral.pv_gram(pt_model, w, vecs)))
        zetas = [rng.standard_normal(2) + 1j * rng.standard_normal(2)
                 for _ in range(10)]
        rep = fgr.cancellation_checks(z0, packets, zetas)
        worst["phase"] = max(worst["phase"], rep.phase_residual)
        worst["pv"] = max(worst["pv"], rep.pv_residual)
        worst["delta"] = max(worst["delta"], rep.delta_residual)
        worst["reality"] = max(worst["reality"], rep.reality_residual)
        count += len(zetas)
        # the drawn terms alone form a non-real Z0: it must be reported so
        nonreal = fgr.cancellation_checks(HamExpansion(drawn), packets, zetas)
        nonreal_rejected &= (not nonreal.ok) and nonreal.reality_residual > 1e-12
    # and the genuine pipeline packets against the pipeline Z0
    rng2 = np.random.default_rng(106)
    zetas = [0.3 * (rng2.standard_normal(2) + 1j * rng2.standard_normal(2))
             for _ in range(10)]
    rep = fgr.cancellation_checks(HamExpansion([]), pt_packets, zetas)
    worst["pv"] = max(worst["pv"], rep.pv_residual)
    worst["delta"] = max(worst["delta"], rep.delta_residual)
    count += len(zetas)
    ok = (worst["phase"] < 1e-12 and worst["pv"] < 1e-10 and worst["delta"] < 1e-10
          and worst["reality"] < 1e-12 and nonreal_rejected)
    assert _report(5, ok,
                   f"residuals over {count} random (Z0, packets, zeta): "
                   f"phase {worst['phase']:.1e} (<1e-12), P.V. {worst['pv']:.1e} "
                   f"(<1e-10), delta {worst['delta']:.1e} (<1e-10), reality "
                   f"{worst['reality']:.1e} (<1e-12); non-real Z0 rejected "
                   f"{nonreal_rejected}")


# --------------------------------------------------------------------------
# 6. dual-estimator agreement and the free-case oracle


def test_criterion_6_density_estimators(pt_model_wide, free_big):
    # free case against the closed form derived from the free resolvent
    grid = free_big.grid
    phi = np.exp(-grid.x ** 2 / 2).astype(complex)
    val = spectral.spectral_density_form(free_big, 1.0, phi)
    phihat = np.trapezoid(phi * np.exp(-1j * grid.x), grid.x)
    exact = abs(phihat) ** 2 / (2.0 * np.pi)
    free_err = abs(val - exact) / exact

    rng = np.random.default_rng(107)
    model = pt_model_wide
    x = model.grid.x
    worst = 0.0
    pairs = 0
    while pairs < 10:
        w = model.c + 0.3 + 2.5 * rng.random()
        x0 = 3.0 * rng.standard_normal()
        s = 1.0 + 1.5 * rng.random()
        phi = (np.exp(-(x - x0) ** 2 / (2 * s ** 2))
               * (1.0 + 0.4 * np.tanh(x / 2.0))).astype(complex)
        lap = spectral.spectral_density_form(model, w, phi, details=True)
        if lap.small_signal:
            continue
        hist = spectral.histogram_density(model, w, phi)
        worst = max(worst, abs(lap.value - hist) / max(abs(lap.value), abs(hist)))
        pairs += 1
    ok = free_err < 1e-4 and worst < 0.05
    assert _report(6, ok,
                   f"free-case oracle error {free_err:.2e} (<1e-4); worst "
                   f"dual-estimator disagreement {worst:.2%} over {pairs} pairs (<5%)")


# --------------------------------------------------------------------------
# 7. simulator conservation laws


@pytest.mark.slow
def test_criterion_7_conservation(pt_model):
    rng = np.random.default_rng(108)
    # mass over [0, 200] at the pinned resolution
    cfg = dynamics.SimConfig(gamma0=GAMMA0, gamma1=GAMMA1, t_end=200.0, dt=1e-3,
                             output_stride=2000, mode_amplitudes=(0.05, 0.02),
                             wrap_policy="ignore")
    rec = dynamics.simulate(pt_model, cfg)
    mass_drift = float(np.max(np.abs(rec.mass - rec.mass[0])) / rec.mass[0])

    # energy with the autonomous forcing
    cfg_e = dynamics.SimConfig(gamma0=1.0, gamma1=0.0, t_end=200.0, dt=1e-3,
                               output_stride=2000, mode_amplitudes=(0.05, 0.03),
                               wrap_policy="ignore")
    rec_e = dynamics.simulate(pt_model, cfg_e)
    e_drift = float(np.max(np.abs(rec_e.energy - rec_e.energy[0]))
                    / abs(rec_e.energy[0]))

    # linear propagator match
    u0 = (0.05 * pt_model.phi[0] + 0.03 * pt_model.phi[1]).astype(complex)
    u0 += random_radiation(pt_model, rng, 0.02)
    cfg_l = dynamics.SimConfig(gamma0=0.0, gamma1=0.0, t_end=10.0, dt=1e-3,
                               output_stride=10_000, u0=u0, wrap_policy="ignore")
    half = np.exp(-0.5j * pt_model.grid.k ** 2 * cfg_l.dt)
    u = u0.copy()
    for i in range(10_000):
        u = dynamics.step(u, cfg_l.dt, i * cfg_l.dt, pt_model, cfg_l, half)
    lin_err = spectral.l2_norm(u - oracles.linear_reference(pt_model, u0, 10.0),
                               pt_model.grid.h)
    ok = mass_drift < 1e-8 and e_drift < 1e-6 and lin_err < 1e-6
    assert _report(7, ok,
                   f"mass drift {mass_drift:.2e} (<1e-8, t in [0,200]); energy "
                   f"drift {e_drift:.2e} (<1e-6, gamma1=0); linear match "
                   f"{lin_err:.2e} (<1e-6)")


# --------------------------------------------------------------------------
# 8. Lyapunov balance


def test_criterion_8_lyapunov_balance(pt_model, pt_aux, pt_packets):
    # mode amplitudes at eps and eps/2 over a fixed small radiation background;
    # the pointwise source then scales like eps^3 (target factor 8).  Scaling
    # the radiation together with the modes pushes the source to eps^4
    # (factor ~16, the paper-side bound); that factor is reported alongside.
    x = pt_model.grid.x
    prof = pt_model.project_pc(
        (np.exp(-(x - 3.0) ** 2 / 8.0) * np.exp(0.9j * x)).astype(complex))
    prof /= spectral.l2_norm(prof, pt_model.grid.h)

    def run(eps, rad_scale):
        cfg = dynamics.SimConfig(
            gamma0=GAMMA0, gamma1=GAMMA1, t_end=7.5, dt=1e-3, output_stride=25,
            mode_amplitudes=(eps, 0.6 * eps), radiation=rad_scale * prof,
            wrap_policy="ignore")
        rec = dynamics.simulate(pt_model, cfg, aux=pt_aux)
        return fgr.lyapunov_balance(rec.times, rec.zeta, pt_packets)

    bal_1 = run(0.05, 0.01)
    bal_2 = run(0.025, 0.01)
    factor = bal_1.residual_integral / bal_2.residual_integral
    scaled_1 = run(0.05, 0.5 * 0.05)
    scaled_2 = run(0.025, 0.5 * 0.025)
    factor_scaled = scaled_1.residual_integral / scaled_2.residual_integral

    drift_ok = all(
        float(np.max(np.abs(b.drift))) <= 10.0 * b.residual_integral
        for b in (bal_1, bal_2))
    ok = 5.0 <= factor <= 11.0 and drift_ok
    assert _report(8, ok,
                   f"integrated residual factor {factor:.2f} in [5, 11] "
                   f"(full-datum scaling gives {factor_scaled:.1f}); half-action "
                   f"drift within 10x source integral: {drift_ok}")


# --------------------------------------------------------------------------
# 9. decay mechanism and the unforced contrast


@pytest.mark.slow
def test_criterion_9_decay(pt_model, pt_packets, pt_catalog):
    verdict = fgr.rayleigh_report(pt_packets, pt_catalog.minimal, n_modes=2,
                                  n_samples=300, seed=9).verdict
    cfg = dynamics.SimConfig(gamma0=GAMMA0, gamma1=GAMMA1, t_end=200.0, dt=1e-3,
                             output_stride=2000, mode_amplitudes=(0.2, 0.14),
                             sponge=True, wrap_policy="ignore")
    rec = dynamics.simulate(pt_model, cfg)
    z2 = np.sum(np.abs(rec.z) ** 2, axis=1)
    forced_ratio = float(z2[-1] / z2[0])

    cfg0 = dynamics.SimConfig(gamma0=GAMMA0, gamma1=0.0, t_end=200.0, dt=1e-3,
                              output_stride=2000, mode_amplitudes=(0.2, 0.0),
                              sponge=True, wrap_policy="ignore")
    rec0 = dynamics.simulate(pt_model, cfg0)
    z20 = np.sum(np.abs(rec0.z) ** 2, axis=1)
    unforced_ratio = float(z20[-1] / z20[0])

    ok = verdict and forced_ratio < 0.9 and unforced_ratio > 0.99
    assert _report(9, ok,
                   f"(H9') verdict {'positive' if verdict else 'negative'}; forced "
                   f"mode energy ratio {forced_ratio:.3f} (<0.9); unforced "
                   f"standing-wave ratio {unforced_ratio:.4f} (>0.99)")
