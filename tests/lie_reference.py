"""Reference Lie derivative: one raw output at a time, as plain Python tuples.

This is the term-by-term implementation that `hamalg.lie_derivative`
replaced with array enumeration.  It stays here as an independent oracle:
the tests require both to agree bit for bit, on the merged terms and on the
DropLedger.  Its merge, `_merge`, is also the oracle of
`HamExpansion.merged()`.  It shares with the library only the term type,
its structural rules, the pairing and the generator-class check.
"""

from __future__ import annotations

from operator import add

import numpy as np

from nlsnf.errors import LedgerViolation
from nlsnf.hamalg import (
    MERGE_TOL,
    QUARTIC,
    DropLedger,
    HamExpansion,
    HamTerm,
    _content_digest,
    _structure_error,
    generator_info,
)
from nlsnf.spectral import pairing


def _digester(held):
    """Content digest of a factor vector; cached by id() for the vectors of
    `held`, which live through the merge, and computed afresh for any other
    (a vector an output creates may be freed, and its id reused)."""
    cache = {id(v): None for t in held
             for v in t.alphas + t.betas + (() if t.tail is None or t.tail is QUARTIC
                                            else (t.tail,))}

    def digest(v):
        key = id(v)
        if key not in cache:
            return _content_digest(v)
        d = cache[key]
        if d is None:
            d = cache[key] = _content_digest(v)
        return d

    return digest


def _merge(raw, digest, degree_cap=None, dropped=None) -> list[HamTerm]:
    """Merge raw outputs (coeff, m, mu, nu, alphas, betas, a, b, tail).

    Scalar, linear and quartic-marker outputs merge on (m, mu, nu), the other
    composites on the indices plus the digests of every factor vector; sums
    within MERGE_TOL of zero vanish.  Survivors come out scalars, linear_f,
    linear_fbar, quartic markers, composites, each in first-seen order; with
    a degree_cap, those with 2 size > degree_cap go to `dropped` instead.
    """
    scalars: dict = {}
    lin_f: dict = {}
    lin_fb: dict = {}
    quartics: dict = {}
    composites: dict = {}
    for coeff, m, mu, nu, alphas, betas, a, b, tail in raw:
        key = (m, mu, nu)
        n_lin = len(alphas) + len(betas)
        if n_lin + a + b == 0:
            scalars[key] = scalars.get(key, 0.0) + coeff
        elif n_lin + a + b == 1:
            bucket = lin_f if alphas else lin_fb
            bucket[key] = bucket.get(key, 0.0) + coeff * (alphas or betas)[0]
        elif tail is QUARTIC:
            quartics[key] = quartics.get(key, 0.0) + coeff
        else:
            sig = (key, a, b,
                   tuple(sorted(map(digest, alphas))),
                   tuple(sorted(map(digest, betas))),
                   b"" if tail is None else digest(tail))
            held = composites.get(sig)
            if held is None:
                size = max(sum(mu) + len(alphas) + a, sum(nu) + len(betas) + b)
                kept = degree_cap is None or 2 * size <= degree_cap
                composites[sig] = [coeff, size,
                                   (m, mu, nu, alphas, betas, a, b, tail) if kept else None]
            else:
                held[0] += coeff

    survivors = []
    for (m, mu, nu), c in scalars.items():
        if abs(c) > MERGE_TOL:
            survivors.append((max(sum(mu), sum(nu)), c, (m, mu, nu, (), (), 0, 0, None)))
    for (m, mu, nu), v in lin_f.items():
        if np.max(np.abs(v)) > MERGE_TOL:
            survivors.append((max(sum(mu) + 1, sum(nu)), 1.0, (m, mu, nu, (v,), (), 0, 0, None)))
    for (m, mu, nu), v in lin_fb.items():
        if np.max(np.abs(v)) > MERGE_TOL:
            survivors.append((max(sum(mu), sum(nu) + 1), 1.0, (m, mu, nu, (), (v,), 0, 0, None)))
    for (m, mu, nu), c in quartics.items():
        if abs(c) > MERGE_TOL:
            survivors.append((max(sum(mu), sum(nu)) + 2, c, (m, mu, nu, (), (), 2, 2, QUARTIC)))
    for c, size, parts in composites.values():
        if abs(c) > MERGE_TOL:
            survivors.append((size, c, parts))

    out: list[HamTerm] = []
    for size, c, parts in survivors:
        if degree_cap is not None and 2 * size > degree_cap:
            dropped.add(size, c)
        else:
            out.append(HamTerm._checked(c, *parts))
    return out


def _lie_output(coeff, m, mu, nu, alphas, betas, a, b, tail) -> tuple:
    """A raw Lie output, with an a + b = 1 tail folded into the linear factors."""
    if a + b == 1:
        if a:
            alphas = alphas + (tail,)
        else:
            betas = betas + (tail,)
        a = b = 0
        tail = None
    return coeff, m, mu, nu, alphas, betas, a, b, tail


def _lie_single(g: HamTerm, ct: HamTerm, h: float, pc) -> list[tuple]:
    """{g, chi_term} as raw outputs: z-part plus the two f-pairings."""
    out: list[tuple] = []
    m_new = g.m + ct.m
    base = g.coeff * ct.coeff
    mu_n = tuple(map(add, g.mu, ct.mu))
    nu_n = tuple(map(add, g.nu, ct.nu))

    # i sum_j (dg/dzbar_j dchi/dz_j - dg/dz_j dchi/dzbar_j), j = 0..n;
    # chi has at most one linear factor and no tail
    for j in range(len(mu_n)):
        w = g.nu[j] * ct.mu[j] - g.mu[j] * ct.nu[j]
        if w == 0:
            continue
        out.append(_lie_output(1j * w * base, m_new,
                               mu_n[:j] + (mu_n[j] - 1,) + mu_n[j + 1:],
                               nu_n[:j] + (nu_n[j] - 1,) + nu_n[j + 1:],
                               g.alphas + ct.alphas, g.betas + ct.betas, g.a, g.b, g.tail))

    # + i <grad_fbar g, grad_f chi>: chi contributes its Phi coupling
    if ct.alphas:
        out.extend(_pair_slots(g, ct.alphas[0], +1j * base, m_new, mu_n, nu_n, h, pc,
                               fbar=True))
    # - i <grad_fbar chi, grad_f g>: chi contributes its Psi coupling
    if ct.betas:
        out.extend(_pair_slots(g, ct.betas[0], -1j * base, m_new, mu_n, nu_n, h, pc,
                               fbar=False))
    return out


def _pair_slots(g, vec, scale, m_new, mu_n, nu_n, h, pc, fbar: bool) -> list[tuple]:
    """Pair the gradient of g on one side against vec, as raw outputs.

    fbar=True takes grad_fbar g (each conj(f) slot, the b conj(f)-powers of
    the tail), fbar=False the mirror-image grad_f g.
    """
    slots = g.betas if fbar else g.alphas

    def output(coeff, kept, a, b, tail):
        alphas, betas = (g.alphas, kept) if fbar else (kept, g.betas)
        return _lie_output(coeff, m_new, mu_n, nu_n, alphas, betas, a, b, tail)

    out = [output(scale * pairing(p, vec, h), slots[:idx] + slots[idx + 1:],
                  g.a, g.b, g.tail)
           for idx, p in enumerate(slots)]
    power = g.b if fbar else g.a
    if g.tail is QUARTIC:
        # grad_fbar (1/4)|f|^4 = (1/2) f^2 conj(f), and its mirror for grad_f
        out.append(output(scale * 0.5, slots, *((2, 1) if fbar else (1, 2)), pc(vec)))
    elif power > 0:
        a, b = (g.a, g.b - 1) if fbar else (g.a - 1, g.b)
        tail = g.tail * vec
        # a tail folded into a linear factor is stored projected
        out.append(output(scale * power, slots, a, b, pc(tail) if a + b == 1 else tail))
    return out


def lie_derivative(chi: HamExpansion, g, model, degree_cap=None, dropped=None) -> HamExpansion:
    """lie_chi(g) = {g, chi}, checked and merged one raw output at a time."""
    info = generator_info(chi)
    h = model.grid.h
    pc = model.project_pc
    terms = g.terms if isinstance(g, HamExpansion) else [g]
    if dropped is None:
        dropped = DropLedger()

    def outputs():
        for t in terms:
            balanced = t.is_balanced
            size_in = t.size
            m_bound = info.m0 + abs(t.m)
            for ct in chi.terms:
                for raw in _lie_single(t, ct, h, pc):
                    coeff, m, mu, nu, alphas, betas, a, b, tail = raw
                    error = _structure_error(mu, nu, alphas, betas, a, b, tail)
                    if error:
                        raise ValueError(error)
                    if not (alphas or betas or a or b) and abs(coeff) <= MERGE_TOL:
                        continue
                    if balanced:
                        lhs = sum(mu) + len(alphas) + a
                        if lhs != sum(nu) + len(betas) + b:
                            raise LedgerViolation(
                                f"lie output unbalanced: m={m}, mu={mu}, nu={nu}")
                        if lhs - 1 != size_in - 1 + info.big_m0:
                            raise LedgerViolation(
                                f"ledger law broken: L' = {lhs - 1}, expected "
                                f"{size_in - 1} + {info.big_m0}")
                    if abs(m) > m_bound:
                        raise LedgerViolation(
                            f"harmonic bound broken: m={m}, mu={mu}, nu={nu}")
                    if a + b >= 4 and tail is not QUARTIC:
                        raise LedgerViolation("f-power count must stay below 4")
                    dropped.generated += 1
                    yield raw

    return HamExpansion(_merge(outputs(), _digester(chi.terms + terms), degree_cap, dropped))
