"""Fermi-golden-rule machinery: packet assembly, the resonant quadratic form,
the cancellation identities behind the Lyapunov balance, and the balance
residual along trajectories.

Each packet collects the minimal-set couplings sharing one continuum energy w
and caches the hermitian Gram matrices <delta(H - w) conj(Phi_a), Phi_b> and
<P.V. (H - w)^{-1} conj(Phi_a), Phi_b>, so trajectory-long evaluation reduces
to small quadratic forms in the mode monomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .birkhoff import ReducedForm
from .errors import NlsnfError
from .hamalg import HamExpansion, exponent_table, monomials
from .spectral import OperatorModel, density_gram, pv_gram

POSITIVITY_ALARM = 1e-8


@dataclass
class FgrPacket:
    w: float
    members: list                    # list of (IndexTriple, coupling vector)
    gram: np.ndarray                 # delta-form Gram, hermitian PSD
    gram_lap: np.ndarray | None = None
    gram_pv: np.ndarray | None = None
    clipped_mass: float = 0.0        # negative estimator noise removed from gram
    mu: np.ndarray = field(init=False, repr=False)   # (members, n) exponent tables
    nu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.mu, self.nu = exponent_table([t for t, _ in self.members],
                                          len(self.members[0][0].mu))

    def lap_gap(self) -> float:
        """max |gram - gram_lap| / max |gram|: how far the LAP Gram strays."""
        scale = max(float(np.max(np.abs(self.gram))), 1e-300)
        return float(np.max(np.abs(self.gram - self.gram_lap))) / scale


def build_packets(
    model: OperatorModel,
    reduced: ReducedForm,
    estimator: str = "histogram",
) -> list[FgrPacket]:
    """One packet per w in X, Gram matrices precomputed.

    The delta-form backend defaults to the histogram estimator (the accurate
    one on desk-size boxes); the extrapolated limiting-absorption Gram is kept
    alongside for agreement monitoring.  Both Grams are clipped to the
    positive cone: delta(H - w) is positive semidefinite exactly, so negative
    eigenvalues are estimator noise (the removed mass is recorded).
    """
    packets = []
    for w in reduced.catalog.x_values:
        triples = reduced.catalog.m_w[w]
        members = []
        for trip in triples:
            phi = reduced.z1_m.get(trip)
            if phi is None:
                raise NlsnfError(f"missing coupling for {trip}")
            members.append((trip, phi))
        vecs = [p for _, p in members]
        gram, clipped = _psd_clip(density_gram(model, w, vecs, estimator=estimator))
        gram_lap, _ = _psd_clip(density_gram(model, w, vecs, estimator="lap"))
        packets.append(FgrPacket(w=w, members=members, gram=gram,
                                 gram_lap=gram_lap, gram_pv=pv_gram(model, w, vecs),
                                 clipped_mass=clipped))
    return packets


def _psd_clip(gram: np.ndarray) -> tuple[np.ndarray, float]:
    vals, vecs = np.linalg.eigh(gram)
    clipped = float(np.sum(-vals[vals < 0]))  # +0.0, not -0.0, when nothing is clipped
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ np.conj(vecs.T), clipped


def packet_form(packet: FgrPacket, zeta):
    """<delta(H - w) conj(Phi_w), Phi_w> as a quadratic form in the monomials.

    A stack of states zeta of shape (S, n) gives the S forms.
    """
    c = monomials(np.asarray(zeta)[..., None, :], packet.mu, packet.nu)
    return ((np.conj(c) @ packet.gram) * c).sum(axis=-1).real


def monomial_l2(triples, zeta):
    """sum over M of |zeta^{mu + nu}|^2, the comparison side of the FGR form.

    A stack of states zeta of shape (S, n) gives the S sums.
    """
    zeta = np.asarray(zeta)
    mu, nu = exponent_table(triples, zeta.shape[-1])
    return np.sum(np.abs(monomials(zeta[..., None, :], mu, nu)) ** 2, axis=-1)


@dataclass
class RayleighReport:
    min_quotient: float
    max_quotient: float
    samples: int
    radii: tuple
    verdict: bool
    quotients: np.ndarray = field(repr=False, default=None)


def rayleigh_report(
    packets,
    triples,
    n_modes: int,
    n_samples: int = 1000,
    radii=(0.5, 1.0, 2.0),
    seed: int = 0,
) -> RayleighReport:
    """Sampled bounds of (sum_w delta-form) / (sum_M |zeta^{mu+nu}|^2).

    The hypothesis verdict is positive when the sampled minimum clears ten
    times the positivity alarm level.
    """
    rng = np.random.default_rng(seed)
    units = []
    for _ in range(n_samples):
        v = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        units.append(v / np.linalg.norm(v))
    # sample-major, radius-minor
    zetas = (np.array(units)[:, None, :] * np.asarray(radii)[None, :, None]).reshape(-1, n_modes)
    denom = monomial_l2(triples, zetas)
    num = sum((packet_form(p, zetas) for p in packets), np.zeros(len(zetas)))
    keep = denom >= 1e-300
    quotients = num[keep] / denom[keep]
    return RayleighReport(
        min_quotient=float(quotients.min()),
        max_quotient=float(quotients.max()),
        samples=len(quotients),
        radii=tuple(radii),
        verdict=bool(quotients.min() > 10.0 * POSITIVITY_ALARM),
        quotients=quotients,
    )


# ---------------------------------------------------------------------------
# cancellation identities


@dataclass
class CancellationReport:
    phase_residual: float      # Im sum_j conj(zeta_j) dZ0/dconj(zeta_j)
    pv_residual: float         # Im of the weighted principal-value double sum
    delta_residual: float      # weighted delta double sum vs -sum_w <delta Phi_w, Phi_w>
    reality_residual: float    # max |c(m, mu, nu) - conj c(-m, nu, mu)| / max |c| over Z0
    ok: bool


def _reality_residual(z0: HamExpansion) -> float:
    """Distance of the scalar part of a merged Z0 from a real Hamiltonian.

    The largest |c(m, mu, nu) - conj c(-m, nu, mu)| over the scalar terms (a
    missing mirror counts as coefficient 0), relative to the largest
    coefficient; 0 for an empty Z0.
    """
    coeffs = {(t.m, t.mu, t.nu): t.coeff for t in z0.terms if t.kind == "scalar"}
    scale = max((abs(c) for c in coeffs.values()), default=0.0)
    if scale == 0.0:
        return 0.0
    return max(abs(c - np.conj(coeffs.get((-m, nu, mu), 0.0)))
               for (m, mu, nu), c in coeffs.items()) / scale


def cancellation_checks(
    z0: HamExpansion,
    packets,
    zeta_samples,
    tol_phase: float = 1e-12,
    tol_sums: float = 1e-10,
) -> CancellationReport:
    """The three algebraic identities behind the Lyapunov balance.

    (a) the Z0 phase sum is real; (b) the weighted P.V. double sum is real;
    (c) the weighted delta double sum collapses to minus the packet forms.
    (b) and (c) hold for any hermitian Gram data.  (a) sums conj(zeta_j)
    dZ0/dconj(zeta_j) over j, each written by Euler's identity as the sum of
    nu_j c zeta^mu conj(zeta)^nu over Z0's scalar terms.  It requires a real,
    gauge-invariant Z0: a term c zeta^mu conj(zeta)^nu adds |nu| c zeta^mu
    conj(zeta)^nu to the sum, and its mirror makes the pair real exactly when
    |mu| = |nu|; a lone mu = nu term with complex c leaves |mu| Im c
    |zeta^mu|^2.  Reality is checked as `reality_residual`, held to tol_phase
    and counted in `ok`.  With it met, residuals above tolerance indicate a
    structural bug rather than estimator error.
    """
    z0 = z0.merged()
    worst_r = _reality_residual(z0)
    scalars = z0.select(lambda t: t.kind == "scalar").terms
    coeffs = np.array([t.coeff for t in scalars], dtype=complex)
    worst_a = worst_b = worst_c = 0.0
    for zeta in zeta_samples:
        zeta = np.asarray(zeta, dtype=complex)
        # (a)
        mu, nu = exponent_table(scalars, len(zeta))
        terms = nu.T @ (coeffs * monomials(zeta, mu, nu))
        total = np.sum(terms)
        scale = max(1e-300, float(np.max(np.abs(terms))))
        worst_a = max(worst_a, abs(total.imag) / max(scale, 1.0))

        # (b) and (c)
        pv_sum = 0.0 + 0.0j
        delta_sum = 0.0
        delta_direct = 0.0
        dscale = 1e-300
        for p in packets:
            c = monomials(zeta, p.mu, p.nu)
            sizes_mu = p.mu.sum(axis=1)
            sizes_nu = p.nu.sum(axis=1)
            if p.gram_pv is not None:
                # weight |nu_a| + |mu_b| on <P.V. conj(c_b Phi_b), c_a Phi_a>
                wmat = sizes_nu[:, None] + sizes_mu[None, :]
                pv_sum += np.sum(wmat * (np.conj(c)[None, :] * c[:, None]) * p.gram_pv.T)
            wmat_c = (sizes_mu[None, :] - sizes_nu[:, None])
            block = np.real((np.conj(c)[None, :] * c[:, None]) * p.gram.T)
            delta_sum += float(np.sum(wmat_c * block))
            q = float(np.real(np.conj(c) @ p.gram @ c))
            delta_direct += q
            dscale = max(dscale, abs(q), float(np.sum(np.abs(block))))
        worst_b = max(worst_b, abs(pv_sum.imag) / max(abs(pv_sum.real), dscale, 1.0))
        worst_c = max(worst_c, abs(delta_sum + delta_direct) / max(dscale, 1.0))

    return CancellationReport(
        phase_residual=worst_a,
        pv_residual=worst_b,
        delta_residual=worst_c,
        reality_residual=worst_r,
        ok=(worst_r < tol_phase and worst_a < tol_phase
            and worst_b < tol_sums and worst_c < tol_sums),
    )


# ---------------------------------------------------------------------------
# Lyapunov balance along a trajectory


@dataclass
class BalanceResult:
    times: np.ndarray
    residual: np.ndarray           # r(t) = d/dt (1/2) sum |zeta|^2 + pi sum_w Q_w
    residual_integral: float       # int |r| dt
    drift: np.ndarray              # (1/2)|zeta|^2(t) + pi int_0^t sum Q - initial
    fgr_flux: np.ndarray           # pi sum_w Q_w(zeta(t))


def lyapunov_balance(times, zeta_series, packets) -> BalanceResult:
    """Balance residual of the half-action identity on a sampled trajectory.

    Uses centered differences on uniform samples; raises on non-uniform
    spacing.  The residual is the measured source term sum_j Im(D_j conj(zeta_j)).
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 3:
        raise ValueError("need at least three samples")
    dt = np.diff(times)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(dt[0], 1e-12):
        raise ValueError("non-uniform sampling")
    step = dt[0]
    zetas = np.asarray(zeta_series, dtype=complex)
    action = 0.5 * np.sum(np.abs(zetas) ** 2, axis=1)
    flux = np.pi * sum((packet_form(p, zetas) for p in packets), np.zeros(len(zetas)))

    ddt = np.empty_like(action)
    ddt[1:-1] = (action[2:] - action[:-2]) / (2.0 * step)
    ddt[0] = (action[1] - action[0]) / step
    ddt[-1] = (action[-1] - action[-2]) / step
    residual = ddt + flux

    cum_flux = np.concatenate([[0.0], np.cumsum(0.5 * (flux[1:] + flux[:-1]) * step)])
    drift = action + cum_flux - action[0]
    res_int = float(np.trapezoid(np.abs(residual), times))
    return BalanceResult(times=times, residual=residual, residual_integral=res_int,
                         drift=drift, fgr_flux=flux)
