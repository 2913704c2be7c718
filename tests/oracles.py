"""Oracles the tests check the program against; no stage runs them.

The value and the Hamiltonian field of an expansion are taken term by term,
each pairing through `spectral.pairing`.  They share with the library only
the term type, the quartic marker, `monomials` and the operator model, so
they are independent of the array code of `hamalg` (its factor ids and its
pairing table) that they check.  The time-1 flow of a generator and the
reduced mode ODE read that field.  The exact linear propagator checks the
stepper, the free model the spectral transforms, each side of a resolvent
boundary value solved on its own the conjugation rule, and the pairwise
sweep the catalog's minimal triples.
"""

from __future__ import annotations

import math

import numpy as np

from nlsnf import spectral
from nlsnf.hamalg import QUARTIC, HamExpansion, HamTerm, monomials
from nlsnf.spectral import GridSpec, OperatorModel, pairing


def scalar_term(coeff, m, mu, nu) -> HamTerm:
    return HamTerm(coeff, m, mu, nu)


def linear_f_term(m, mu, nu, phi) -> HamTerm:
    return HamTerm(1.0, m, mu, nu, alphas=(phi,))


def linear_fbar_term(m, mu, nu, psi) -> HamTerm:
    return HamTerm(1.0, m, mu, nu, betas=(psi,))


def expansion_from_records(records, vectors) -> HamExpansion:
    """The inverse of `hamalg.expansion_to_records`."""
    terms = []
    for rec in records:
        tail = rec.get("tail")
        terms.append(HamTerm(
            complex(*rec["coeff"]), rec["m"], tuple(rec["mu"]), tuple(rec["nu"]),
            alphas=tuple(vectors[k] for k in rec.get("alphas", ())),
            betas=tuple(vectors[k] for k in rec.get("betas", ())),
            a=rec.get("a", 0), b=rec.get("b", 0),
            tail=QUARTIC if tail == "quartic" else None if tail is None else vectors[tail]))
    return HamExpansion(terms)


# ---------------------------------------------------------------------------
# value and field, term by term


def _pairings(term: HamTerm, f, h: float) -> tuple[list, list, complex]:
    """<Phi, f> per alpha, <Psi, conj f> per beta, and the tail's value:
    <f^a conj(f)^b, tail>, (1/4) int f^2 conj(f)^2 for the quartic marker,
    1 for none."""
    fb = np.conj(f)
    alphas = [pairing(phi, f, h) for phi in term.alphas]
    betas = [pairing(psi, fb, h) for psi in term.betas]
    if term.tail is None:
        tail = 1.0
    elif term.tail is QUARTIC:
        tail = 0.25 * pairing(f ** 2, fb ** 2, h)
    else:
        tail = pairing(f ** term.a * fb ** term.b, term.tail, h)
    return alphas, betas, tail


def radiation_factor(term: HamTerm, f, h: float) -> complex:
    """The f-part of one term at f: the product of its pairings."""
    alphas, betas, tail = _pairings(term, np.asarray(f, dtype=complex), h)
    return math.prod(alphas) * math.prod(betas) * tail


def evaluate(ham: HamExpansion, t: float, z, f, h: float) -> complex:
    """H(t, z, f) = sum of coeff e^{imt} z^mu conj(z)^nu * radiation_factor."""
    z = np.asarray(z, dtype=complex)
    return complex(sum(term.coeff * np.exp(1j * term.m * t) * monomials(z, term.mu, term.nu)
                       * radiation_factor(term, f, h) for term in ham.terms))


def field(ham: HamExpansion, t: float, z, f, model: OperatorModel):
    """The Hamiltonian field at (t, z, f): (dz, df) with dz[j] = dH/dconj(z_j)
    and df = P_c grad_{conj f} H.

    A beta slot releases its Psi times the term's other pairings, a vector
    tail b f^a conj(f)^(b-1) tail times the pairings, and the quartic marker
    (1/2) f^2 conj(f).
    """
    z = np.asarray(z, dtype=complex)
    f = np.asarray(f, dtype=complex)
    fb = np.conj(f)
    h = model.grid.h
    dz = np.zeros(len(z), dtype=complex)
    df = np.zeros(len(f), dtype=complex)
    for term in ham.terms:
        alphas, betas, tail = _pairings(term, f, h)
        phased = term.coeff * np.exp(1j * term.m * t)
        radiation = math.prod(alphas) * math.prod(betas) * tail
        for j, power in enumerate(term.nu):
            if power:
                lowered = list(term.nu)
                lowered[j] -= 1
                dz[j] += phased * power * monomials(z, term.mu, lowered) * radiation
        weight = phased * monomials(z, term.mu, term.nu) * math.prod(alphas)
        for slot, psi in enumerate(term.betas):
            df += (weight * math.prod(betas[:slot] + betas[slot + 1:]) * tail) * psi
        if term.tail is QUARTIC:
            df += weight * 0.5 * f ** 2 * fb
        elif term.tail is not None and term.b:
            df += (weight * math.prod(betas) * term.b) * (f ** term.a * fb ** (term.b - 1)
                                                          * term.tail)
    return dz, model.project_pc(df)


def hf_value(model: OperatorModel, z, f) -> float:
    """Quadratic part sum lambda_j |z_j|^2 + <H f, conj f> (tau dropped)."""
    z = np.asarray(z, dtype=complex)
    quad = float(np.real(pairing(model.apply_h(np.asarray(f, dtype=complex)), np.conj(f),
                                 model.grid.h)))
    return float(np.sum(model.lam * np.abs(z) ** 2)) + quad


def generator_flow(chi: HamExpansion, t: float, z, f, model: OperatorModel,
                   steps: int = 64) -> tuple[np.ndarray, np.ndarray, float]:
    """Time-1 flow of the Hamiltonian field of chi from (z, f), fixed t slice.

    RK4 on zdot_j = -i dchi/dzbar_j, fdot = -i grad_{conj f} chi, and the
    action shift psidot = dchi/dt.  The harmonic factor is frozen at the
    given t (the flow parameter does not advance t), but the shift psi feeds
    the -tau part of the quadratic Hamiltonian, so composition identities
    need it.  Returns (z', f', psi).  Requires a real-symmetric chi: the flow
    is tracked on the reality plane conj(z), conj(f).
    """
    z = np.asarray(z, dtype=complex).copy()
    f = np.asarray(f, dtype=complex).copy()
    dchidt = HamExpansion([term.scaled(1j * term.m) for term in chi.terms if term.m])
    h = model.grid.h
    psi = 0.0

    def rhs(zc, fc):
        dz, df = field(chi, t, zc, fc, model)
        return -1j * dz, -1j * df, evaluate(dchidt, t, zc, fc, h).real

    ds = 1.0 / steps
    for _ in range(steps):
        k1z, k1f, k1p = rhs(z, f)
        k2z, k2f, k2p = rhs(z + 0.5 * ds * k1z, f + 0.5 * ds * k1f)
        k3z, k3f, k3p = rhs(z + 0.5 * ds * k2z, f + 0.5 * ds * k2f)
        k4z, k4f, k4p = rhs(z + ds * k3z, f + ds * k3f)
        z = z + (ds / 6.0) * (k1z + 2 * k2z + 2 * k3z + k4z)
        f = f + (ds / 6.0) * (k1f + 2 * k2f + 2 * k3f + k4f)
        psi = psi + (ds / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return z, f, psi


# ---------------------------------------------------------------------------
# the reduced mode system


def reduced_ode_rhs(z, f, reduced, model: OperatorModel, t: float = 0.0) -> np.ndarray:
    """dz_j/dt of the normal-form mode system (remainder gradient excluded).

    i zdot_j = lambda_j z_j + dZ/dconj(z_j), where Z is Z0 plus the retained
    couplings e^{imt} z^mu conj(z)^nu <f, Phi> (M) and <conj f, Psi> (M'),
    read from Z's field.  f = None stands for no radiation.
    """
    f = np.zeros(model.grid.m_pts, dtype=complex) if f is None else f
    z1 = ([linear_f_term(tr.m, tr.mu, tr.nu, phi) for tr, phi in reduced.z1_m.items()]
          + [linear_fbar_term(tr.m, tr.mu, tr.nu, psi) for tr, psi in reduced.z1_mprime.items()])
    dz, _ = field(reduced.z0 + z1, t, z, f, model)
    return -1j * (model.lam * np.asarray(z, dtype=complex) + dz)


def integrate_reduced(z0, t_grid, reduced, model: OperatorModel, f=None) -> np.ndarray:
    """RK4 integration of the reduced system on the given time grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.empty((len(t_grid), len(z0)), dtype=complex)
    z = np.asarray(z0, dtype=complex).copy()
    out[0] = z
    for i in range(1, len(t_grid)):
        t0, t1 = t_grid[i - 1], t_grid[i]
        dt = t1 - t0
        k1 = reduced_ode_rhs(z, f, reduced, model, t0)
        k2 = reduced_ode_rhs(z + 0.5 * dt * k1, f, reduced, model, t0 + 0.5 * dt)
        k3 = reduced_ode_rhs(z + 0.5 * dt * k2, f, reduced, model, t0 + 0.5 * dt)
        k4 = reduced_ode_rhs(z + dt * k3, f, reduced, model, t1)
        z = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i] = z
    return out


# ---------------------------------------------------------------------------
# the linear flow, the free model and golden-rule packets


def linear_reference(model: OperatorModel, u0, t: float) -> np.ndarray:
    """Exact e^{-i H t} u0 through the dense eigenbasis (oracle for gamma = 0)."""
    coeffs = model.mode_coeffs(np.asarray(u0, dtype=complex))
    return model.from_mode_coeffs(np.exp(-1j * model.mode_energies * t) * coeffs)


def free_operator(grid: GridSpec, c: float = 0.0) -> OperatorModel:
    """V = 0 model with threshold c and no bound states (which build_operator
    refuses).

    Its basis is the l2-normalized real Fourier modes, one column per k:
    cos(k x) for k >= 0 and for the Nyquist mode, sin(|k| x) for the other
    k < 0, with energies k^2 + c.  The columns are listed by ascending
    energy, in FFT order among equal energies (a stable sort), as
    `OperatorModel` requires.  They diagonalize `kinetic_matrix`, so every
    transform takes the dense eigenbasis path.
    """
    m = grid.m_pts
    order = np.argsort(grid.k ** 2, kind="stable")
    k = grid.k[order]
    sine = k < 0
    sine[order == m // 2] = False   # the Nyquist mode: its sine vanishes on the grid
    evecs = np.outer(grid.x, np.abs(k))
    np.cos(evecs, out=evecs, where=~sine)
    np.sin(evecs, out=evecs, where=sine)
    evecs /= np.sqrt(np.einsum("ij,ij->j", evecs, evecs))
    return OperatorModel(
        grid=grid, v=np.zeros(m), c=c,
        lam=np.empty(0), phi=np.empty((0, m)),
        mode_energies=k ** 2 + c, _evecs=evecs,
    )


def resolvent_limit_direct(model: OperatorModel, w: float, b, side: str) -> np.ndarray:
    """R(w +/- i0) b for w above c, each side extrapolated from its own
    solves R(w +/- i eps) b, with no conjugation and no memo."""
    eps = spectral.lap_eps_schedule(model, w)
    sign = 1.0 if side == "+" else -1.0
    coeffs = model.mode_coeffs(np.asarray(b, dtype=complex))
    sols = model.from_mode_coeffs(coeffs / (model.mode_energies - (w + sign * 1j * eps[:, None])))
    return spectral._extrapolate(spectral._lap_nodes(model, w), sols)[0]


def minimal_of_pairwise(triples: list) -> list:
    """The catalog's minimal triples by comparing every pair: t is dropped
    when another triple of the same m bounds it from below componentwise in
    (mu, nu).  The sweep `resonance._minimal_of` replaced, kept as its oracle.
    """
    out = []
    for t in triples:
        dominated = False
        for s in triples:
            if s is t or s.m != t.m:
                continue
            if (all(a <= b for a, b in zip(s.mu, t.mu))
                    and all(a <= b for a, b in zip(s.nu, t.nu))
                    and (s.mu, s.nu) != (t.mu, t.nu)):
                dominated = True
                break
        if not dominated:
            out.append(t)
    return out


def assemble_phi_w(packet, zeta) -> np.ndarray:
    """Phi_w(zeta) = sum over the packet of zeta^mu conj(zeta)^nu Phi."""
    return monomials(zeta, packet.mu, packet.nu) @ np.stack([p for _, p in packet.members])
