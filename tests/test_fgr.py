import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlsnf import fgr, spectral
from nlsnf.fgr import (
    FgrPacket,
    cancellation_checks,
    lyapunov_balance,
    monomial_l2,
    packet_form,
    rayleigh_report,
)
from nlsnf.hamalg import HamExpansion
from nlsnf.resonance import IndexTriple
from oracles import assemble_phi_w, scalar_term


def _packet_from(model, w, members):
    vecs = [p for _, p in members]
    gram = spectral.density_gram(model, w, vecs, estimator="histogram")
    gpv = spectral.pv_gram(model, w, vecs)
    lap = spectral.density_gram(model, w, vecs, estimator="lap")
    return FgrPacket(w=w, members=members, gram=gram, gram_pv=gpv, gram_lap=lap)


@pytest.fixture(scope="module")
def toy_packets(pt_model):
    x = pt_model.grid.x
    phi_a = pt_model.project_pc(np.exp(-x ** 2 / 2).astype(complex))
    phi_b = pt_model.project_pc((x * np.exp(-x ** 2 / 3)).astype(complex))
    p1 = _packet_from(pt_model, pt_model.c + 0.9, [
        (IndexTriple(1, (1, 0), (2, 0)), phi_a),
        (IndexTriple(1, (0, 1), (1, 1)), phi_b),
    ])
    p2 = _packet_from(pt_model, pt_model.c + 1.6, [
        (IndexTriple(0, (1, 0), (0, 2)), 0.5 * phi_a + 0.2 * phi_b),
    ])
    return [p1, p2]


def test_assemble_zero(toy_packets):
    for p in toy_packets:
        out = assemble_phi_w(p, np.zeros(2, dtype=complex))
        assert np.all(out == 0)


def test_assemble_singleton_unit_monomial(toy_packets):
    p = toy_packets[1]
    # monomial z0 zbar0^2... pick zeta real so zeta^mu conj(zeta)^nu = 1
    zeta = np.array([1.0, 1.0], dtype=complex)
    out = assemble_phi_w(p, zeta)
    assert_allclose(out, p.members[0][1], atol=1e-14)


def test_assemble_matches_naive_sum(toy_packets):
    rng = np.random.default_rng(0)
    p = toy_packets[0]
    zeta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    zb = np.conj(zeta)
    naive = np.zeros_like(p.members[0][1])
    for trip, vec in p.members:
        mono = 1.0 + 0j
        for j, e in enumerate(trip.mu):
            mono *= zeta[j] ** e
        for j, e in enumerate(trip.nu):
            mono *= zb[j] ** e
        naive = naive + mono * vec
    assert_allclose(assemble_phi_w(p, zeta), naive, atol=1e-13)


def test_packet_form_matches_direct_density(pt_model, toy_packets):
    # c* G c equals the density form of the assembled vector
    rng = np.random.default_rng(1)
    p = toy_packets[0]
    zeta = 0.7 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    direct = spectral.histogram_density(pt_model, p.w, assemble_phi_w(p, zeta))
    assert packet_form(p, zeta) == pytest.approx(direct, rel=1e-10)


def _form_sum(packets, zeta):
    """Sum over w of the delta-form, as `rayleigh_report` and `simulate` take it."""
    return sum(packet_form(p, zeta) for p in packets)


def test_packet_form_sum_zero_and_positive(toy_packets):
    assert _form_sum(toy_packets, np.zeros(2, dtype=complex)) == 0.0
    scale = max(float(np.max(np.abs(p.gram))) for p in toy_packets)
    rng = np.random.default_rng(2)
    for _ in range(10):
        zeta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        value = _form_sum(toy_packets, zeta)
        assert value >= -1e-8 * max(abs(value), 1.0)
        assert value >= -fgr.POSITIVITY_ALARM * max(1.0, scale)


def test_packet_form_free_toy_packet_oracle(free_big):
    # singleton packet on the free model: the quadratic form at unit monomial
    # equals the analytic free density
    grid = free_big.grid
    phi = np.exp(-grid.x ** 2 / 2).astype(complex)
    w = 1.0
    p = FgrPacket(
        w=w, members=[(IndexTriple(1, (1,), (2,)), phi)],
        gram=spectral.density_gram(free_big, w, [phi], estimator="lap"),
    )
    val = packet_form(p, np.array([1.0 + 0j]))
    phihat = np.trapezoid(phi * np.exp(-1j * np.sqrt(w) * grid.x), grid.x)
    exact = abs(phihat) ** 2 / (2.0 * np.pi * np.sqrt(w))
    assert val == pytest.approx(exact, rel=1e-4)


def test_phase_invariance(toy_packets):
    # all members share |mu| - |nu| = -1, so a global phase leaves the form
    rng = np.random.default_rng(3)
    zeta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    base = _form_sum(toy_packets, zeta)
    for theta in (0.3, 1.2, 2.9):
        rot = _form_sum(toy_packets, np.exp(1j * theta) * zeta)
        assert rot == pytest.approx(base, rel=1e-10)


def test_rayleigh_report_positive(pt_packets, pt_catalog):
    rep = rayleigh_report(pt_packets, pt_catalog.minimal, n_modes=2,
                          n_samples=200, seed=1)
    assert rep.samples > 0
    assert rep.min_quotient <= rep.max_quotient
    # forced PT model: the sampled quotient stays positive ((H9') verdict)
    assert rep.verdict
    assert rep.min_quotient > 10 * fgr.POSITIVITY_ALARM


def test_monomial_l2():
    triples = [IndexTriple(1, (1, 0), (2, 0))]
    zeta = np.array([0.5 + 0.5j, 0.3])
    # |zeta0^3|^2
    assert monomial_l2(triples, zeta) == pytest.approx(abs(zeta[0] ** 3) ** 2)


def test_cancellations_trivial_and_random(pt_model, toy_packets):
    rng = np.random.default_rng(4)
    # single mu = nu term: the phase sum vanishes identically
    z0 = HamExpansion([scalar_term(0.8, 0, (1, 1), (1, 1))])
    samples = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(20)]
    rep = cancellation_checks(z0, toy_packets, samples)
    assert rep.ok, rep
    # empty packets: all residuals vanish
    rep0 = cancellation_checks(z0, [], samples)
    assert rep0.phase_residual < 1e-12
    assert rep0.pv_residual == 0.0 and rep0.delta_residual == 0.0


def test_cancellations_reality_precondition(toy_packets):
    rng = np.random.default_rng(6)
    samples = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(20)]
    # complex c on a mu = nu term: not real, and (a) fails by |mu| Im c |zeta^mu|^2
    c = 0.8 + 0.3j
    rep = cancellation_checks(HamExpansion([scalar_term(c, 0, (1, 1), (1, 1))]),
                              toy_packets, samples)
    assert rep.reality_residual == pytest.approx(2 * 0.3 / abs(c), rel=1e-12)
    assert rep.phase_residual > 1e-3
    assert not rep.ok
    # a gauge-invariant term without its conjugate mirror, then with it
    term = scalar_term(0.5 - 0.7j, 0, (2, 0), (1, 1))
    lone = cancellation_checks(HamExpansion([term]), toy_packets, samples)
    assert lone.reality_residual == pytest.approx(1.0, rel=1e-12)
    assert not lone.ok
    pair = cancellation_checks(HamExpansion([term, term.mirror()]), toy_packets, samples)
    assert pair.reality_residual == 0.0
    assert pair.ok, pair


def test_cancellations_pipeline(pt_reduced, pt_packets):
    rng = np.random.default_rng(5)
    samples = [0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
               for _ in range(30)]
    rep = cancellation_checks(pt_reduced.z0, pt_packets, samples)
    assert rep.phase_residual < 1e-12
    assert rep.pv_residual < 1e-10
    assert rep.delta_residual < 1e-10


def test_lyapunov_balance_zero_trajectory(toy_packets):
    times = np.linspace(0.0, 5.0, 51)
    zetas = np.zeros((51, 2), dtype=complex)
    res = lyapunov_balance(times, zetas, toy_packets)
    assert np.all(res.residual == 0.0)
    assert res.residual_integral == 0.0
    assert np.all(res.drift == 0.0)


def test_lyapunov_balance_linear_flow(toy_packets):
    # |zeta_j| constant under the linear flow: the derivative part vanishes up
    # to differencing error and the flux is the only contribution
    times = np.linspace(0.0, 5.0, 201)
    lam = np.array([0.0, 0.7])
    z0 = np.array([0.05, 0.03 + 0.01j])
    zetas = np.exp(-1j * np.outer(times, lam)) * z0
    res = lyapunov_balance(times, zetas, [])
    assert np.max(np.abs(res.residual)) < 1e-12


def test_lyapunov_balance_rejects_nonuniform(toy_packets):
    times = np.array([0.0, 0.1, 0.3])
    zetas = np.zeros((3, 2), dtype=complex)
    with pytest.raises(ValueError, match="non-uniform"):
        lyapunov_balance(times, zetas, toy_packets)


def test_build_packets_pipeline(pt_packets, pt_catalog, pt_model):
    assert len(pt_packets) == len(pt_catalog.x_values)
    for p in pt_packets:
        assert p.w > pt_model.c
        assert len(p.members) == len(pt_catalog.m_w[p.w])
        # hermitian PSD Gram up to estimator error
        assert np.allclose(p.gram, np.conj(p.gram.T))
        eig = np.linalg.eigvalsh(p.gram)
        assert eig.min() > -1e-8 * max(eig.max(), 1e-300)
    # dual-estimator agreement on the packet Grams (desk-size box, loose)
    for p in pt_packets:
        da = np.linalg.norm(p.gram - p.gram_lap)
        assert da <= 0.25 * max(np.linalg.norm(p.gram), 1e-12)
