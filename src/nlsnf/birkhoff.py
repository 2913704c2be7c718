"""Homological solver and the iterative normal-form reduction.

Round r extracts from the remainder the scalar part of ledger size r + 1 and
the linear-coupling part of size r + 1 (degree 2r + 1 in fields), splits off
the resonant normal-form piece, solves {chi, H_F} = K for the rest, and pushes
the whole Hamiltonian through the truncated Lie transform.  After the last
round the resonant linear part is reduced to the minimal index sets.

Resolvent arguments of nonresonant terms always lie below the continuum
threshold; they may hit a discrete eigenvalue only when the attached coupling
is orthogonal to the eigenvector (couplings are stored projected onto the
continuum subspace, so the reduced resolvent applies).  In-continuum arguments
are refused unless the R^+ boundary-value flag is set explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError, NlsnfError, SingularResolventError
from .hamalg import (
    HamExpansion,
    HamTerm,
    bracket_hf,
    check_reality,
    lie_series,
    DropLedger,
)
from .resonance import TOL_RES, IndexTriple, ResonanceCatalog
from .spectral import OperatorModel, resolvent_apply, resolvent_limit


# classification labels
Z0, Z1, NONRESONANT = "Z0", "Z1", "nonresonant"


def classify_term(term: HamTerm, lam, c: float, r: int,
                  tol_res: float = TOL_RES) -> str:
    """Resonant / nonresonant / remainder-class label of a single term.

    Scalar terms: Z0 iff m = 0 and lambda.(mu - nu) = 0 (with |mu| = |nu|);
    linear terms: Z1 iff the frequency combination falls beyond the continuum
    threshold on the matching side.  Terms of size other than r + 1 are
    remainder classes R0/R1/R(a+b)/R6.  Round r refuses a term of size r + 1
    within tol_res of a threshold, and a resonant scalar with m != 0.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(term.mu)
    nu = np.asarray(term.nu)
    omega = float(lam @ (mu - nu)) - term.m
    scale = max(1.0, abs(c))
    kind = term.kind
    in_round = term.size == r + 1

    if kind == "scalar":
        if abs(omega) < tol_res * scale:
            if term.m == 0 and sum(term.mu) == sum(term.nu):
                return Z0
            if in_round:
                raise ClassificationError(
                    f"scalar term resonant with m = {term.m} != 0 or |mu| != |nu|: "
                    f"an (H8)-type degeneracy: {term}")
        return NONRESONANT if in_round else "R0"
    if kind in ("linear_f", "linear_fbar"):
        side = -1.0 if kind == "linear_f" else 1.0
        if abs(omega - side * c) < tol_res * scale:
            if in_round:
                raise ClassificationError(f"(H7)-type threshold hit for {term}")
            return "R1"
        if side * omega > c and abs(term.m) <= sum(term.mu if side < 0 else term.nu):
            return Z1
        return NONRESONANT if in_round else "R1"
    # composite remainder classes, labeled by the f-power count of the tail
    if term.tail is not None and term.a + term.b == 4:
        return "R6"
    return f"R{term.a + term.b}"


def solve_homological(
    k_exp: HamExpansion,
    model: OperatorModel,
    r_plus: bool = False,
    tol_res: float = TOL_RES,
) -> HamExpansion:
    """chi with {chi, H_F} = K for nonresonant scalar/linear K.

    K comes merged (`normal_form_round` passes a selection of the merged
    remainder), so each monomial is solved once.  chi coefficients are
    i k / (lambda.(mu - nu) - m); couplings pick up +i R(lambda.(nu - mu) + m)
    Phi and -i R(lambda.(mu - nu) - m) Psi.  The solve verifies
    {chi, H_F} = K term by term through the bracket table.
    """
    lam = model.lam
    chi_terms = []
    for term in k_exp.terms:
        mu = np.asarray(term.mu)
        nu = np.asarray(term.nu)
        omega = float(lam @ (mu - nu)) - term.m
        if term.kind == "scalar":
            if abs(omega) < tol_res:
                raise SingularResolventError(
                    f"zero divisor lambda.(mu - nu) - m for scalar triple "
                    f"(m={term.m}, mu={term.mu}, nu={term.nu}): (H7)/(H8) failure")
            chi_terms.append(term.scaled(1j / omega))
        elif term.kind in ("linear_f", "linear_fbar"):
            arg = -omega if term.kind == "linear_f" else omega
            vec = term.vector
            if arg > model.c - tol_res:
                if not r_plus:
                    raise SingularResolventError(
                        f"resolvent argument {arg:.6g} inside the continuum for "
                        f"(m={term.m}, mu={term.mu}, nu={term.nu}); set the R^+ flag")
                rvec = resolvent_limit(model, arg, vec, side="+")
            else:
                rvec = resolvent_apply(model, arg, vec)
            sign = 1j if term.kind == "linear_f" else -1j
            chi_terms.append(term.with_vector(sign * rvec))
        else:
            raise NlsnfError("homological data must be scalar or linear")
    chi = HamExpansion(chi_terms).merged()
    _verify_homological(chi, k_exp, model, skip_continuum=r_plus, tol_res=tol_res)
    return chi


def _verify_homological(chi, k_exp, model, skip_continuum=False, rtol=1e-8,
                        tol_res: float = TOL_RES):
    """Check {chi, H_F} = K for a merged chi through the bracket table, term
    by term."""
    residual = [bracket_hf(t, model.lam, model).scaled(-1.0) for t in chi.terms]
    combined = (HamExpansion(residual) + k_exp.scaled(-1.0)).merged()
    kscale = max(
        [abs(s.coeff) for s in k_exp.terms if s.kind == "scalar"]
        + [float(np.max(np.abs(s.vector))) for s in k_exp.terms
           if s.kind in ("linear_f", "linear_fbar")]
        + [1e-300])
    for t in combined.terms:
        if skip_continuum and t.kind in ("linear_f", "linear_fbar"):
            omega = float(np.asarray(model.lam) @ (np.asarray(t.mu) - np.asarray(t.nu))) - t.m
            arg = -omega if t.kind == "linear_f" else omega
            if arg > model.c - tol_res:
                continue  # boundary values only solve in the eps -> 0 limit
        size = abs(t.coeff)
        if t.kind in ("linear_f", "linear_fbar"):
            size = float(np.max(np.abs(t.vector)))
        if size > rtol * max(kscale, 1.0):
            raise NlsnfError(f"homological verification failed on {t} (residual {size:.2e})")


@dataclass
class RoundLedger:
    r: int
    extracted: int
    resonant: int
    solved: int
    chi_terms: int
    class_counts: dict
    dropped: DropLedger
    reality_ok: bool
    # per Lie chain ("z", "k", "rest"): the term count of each capped power,
    # the chain's own drop count and its raw Lie outputs merged
    chains: dict


@dataclass
class NormalFormResult:
    model: OperatorModel
    z_part: HamExpansion          # Z^{(r)}: accumulated resonant normal form
    remainder: HamExpansion       # R^{(r)}
    generators: list              # chi_2 ... chi_{r_max}
    ledgers: list
    r_final: int
    n0: int
    degree_cap: int

    def z0(self) -> HamExpansion:
        return self.z_part.select(lambda t: t.kind == "scalar")

    def z1(self) -> HamExpansion:
        return self.z_part.select(lambda t: t.kind in ("linear_f", "linear_fbar"))


def _lie_weight(l: int) -> float:
    """Weight of lie^l(g) in g o F - g."""
    return 1.0 / math.factorial(l)


def _taylor_weight(l: int) -> float:
    """Weight of lie^l(K) in H_F o F - H_F - lie(H_F), since lie(H_F) = -K."""
    return -1.0 / math.factorial(l + 1)


def _weighted_sum(prefix: list, powers: list, weight) -> HamExpansion:
    """prefix + sum_l weight(l) powers[l - 1], merged."""
    terms = list(prefix)
    for l, power in enumerate(powers, 1):
        terms.extend(power.scaled(weight(l)).terms)
    return HamExpansion(terms).merged()


def normal_form_round(
    z_part: HamExpansion,
    remainder: HamExpansion,
    model: OperatorModel,
    r: int,
    n0: int,
    degree_cap: int,
    tol_res: float = TOL_RES,
) -> tuple[HamExpansion, HamExpansion, HamExpansion, RoundLedger]:
    """One induction step H^{(r)} -> H^{(r+1)}, from a merged remainder.

    Returns (new Z, new remainder, chi_{r+1}, ledger).  The blocks follow the
    standard splitting: the Lie tails of Z and K, the Taylor block of H_F
    (whose first Lie derivative cancels K by the homological equation), and
    the full transforms of the non-extracted remainder classes.
    """
    lam = model.lam

    def in_ktilde(t: HamTerm) -> bool:
        return (t.is_balanced and t.kind in ("scalar", "linear_f", "linear_fbar")
                and t.size == r + 1)

    ktilde = remainder.select(in_ktilde)
    rest = remainder.select(lambda t: not in_ktilde(t))

    z_new_terms, k_terms = [], []
    for t in ktilde.terms:
        label = classify_term(t, lam, model.c, r, tol_res)
        if label in (Z0, Z1):
            z_new_terms.append(t)
        elif label == NONRESONANT:
            k_terms.append(t)
        else:
            raise NlsnfError(f"extraction produced a remainder-class term {t}")
    # selections of the merged remainder, so already merged
    z_round = HamExpansion(z_new_terms)
    k_exp = HamExpansion(k_terms)

    chi = solve_homological(k_exp, model, tol_res=tol_res) if len(k_exp) else HamExpansion([])
    # the Lie tails of Z^{(r)} and K, the Taylor block of H_F from the same
    # powers of K, and the full transform of everything not extracted
    dropped = DropLedger()
    chains: dict = {}
    new_remainder_terms: list[HamTerm] = []
    for name, ham, prefix, weights in (("z", z_part, [], (_lie_weight,)),
                                       ("k", k_exp, [], (_lie_weight, _taylor_weight)),
                                       ("rest", rest, rest.terms, (_lie_weight,))):
        powers, d = lie_series(chi, ham, model, n0, degree_cap)
        chains[name] = {"powers": [len(p) for p in powers], "dropped": d.count,
                        "generated": d.generated}
        for weight in weights:
            dropped.merge(d)
            new_remainder_terms.extend(_weighted_sum(prefix, powers, weight).terms)
    new_remainder = HamExpansion(new_remainder_terms).merged()
    new_z = (z_part + z_round.terms).merged()

    counts: dict = {}
    for t in new_remainder.terms:
        label = classify_term(t, lam, model.c, r + 1, tol_res)
        counts[label] = counts.get(label, 0) + 1
    ok, _ = check_reality(new_z + new_remainder.terms, model.grid)
    ledger = RoundLedger(
        r=r, extracted=len(ktilde), resonant=len(z_round), solved=len(k_exp),
        chi_terms=len(chi), class_counts=counts, dropped=dropped, reality_ok=ok,
        chains=chains,
    )
    return new_z, new_remainder, chi, ledger


def normal_form(
    model: OperatorModel,
    e_p: HamExpansion,
    r_max: int,
    n0: int | None = None,
    degree_cap: int | None = None,
    big_n: int | None = None,
    tol_res: float = TOL_RES,
) -> NormalFormResult:
    """Iterate rounds r = 1 .. r_max - 1 starting from H^{(1)} = H_F + E_P.

    Defaults follow the budget: r_max = N + 1, n0 = N + 2 and
    degree_cap = 2N + 4 in ledger-size units.  tol_res is the resonance
    tolerance of the classification and the homological solve.
    """
    if big_n is None:
        big_n = r_max - 1
    if n0 is None:
        n0 = big_n + 2
    if degree_cap is None:
        degree_cap = 2 * big_n + 4
    z_part = HamExpansion([])
    remainder = e_p.merged()
    generators, ledgers = [], []
    for r in range(1, r_max):
        z_part, remainder, chi, ledger = normal_form_round(
            z_part, remainder, model, r, n0, degree_cap, tol_res)
        generators.append(chi)
        ledgers.append(ledger)
    return NormalFormResult(
        model=model, z_part=z_part, remainder=remainder,
        generators=generators, ledgers=ledgers,
        r_final=r_max, n0=n0, degree_cap=degree_cap,
    )


@dataclass
class ReducedForm:
    """Final data after the minimal-set reduction."""

    z0: HamExpansion
    z1_m: dict        # IndexTriple in M -> coupling vector Phi
    z1_mprime: dict   # IndexTriple in M' -> coupling vector Psi
    remainder: HamExpansion
    catalog: ResonanceCatalog


def reduce_to_minimal(result: NormalFormResult, catalog: ResonanceCatalog) -> ReducedForm:
    """Keep only couplings indexed by M and M'; move the rest into R.

    Raises when a resonant coupling's index lies outside bigM and bigM', or
    when a Z1 coupling lacks its conjugate mirror (check_reality).
    Z and the remainder of `result` come merged from normal_form.
    """
    big_m = set((t.m, t.mu, t.nu) for t in catalog.big_m)
    big_mp = set((t.m, t.mu, t.nu) for t in catalog.big_m_prime)
    min_m = set((t.m, t.mu, t.nu) for t in catalog.minimal)
    min_mp = set((t.m, t.mu, t.nu) for t in catalog.minimal_prime)

    z1_m: dict = {}
    z1_mp: dict = {}
    displaced = []
    for t in result.z1().terms:
        key = (t.m, t.mu, t.nu)
        if t.kind == "linear_f":
            if key not in big_m:
                raise NlsnfError(f"Z1 coupling {key} outside bigM")
            if key in min_m:
                z1_m[IndexTriple(*key)] = t.vector
            else:
                displaced.append(t)
        else:
            if key not in big_mp:
                raise NlsnfError(f"Z1 coupling {key} outside bigM'")
            if key in min_mp:
                z1_mp[IndexTriple(*key)] = t.vector
            else:
                displaced.append(t)

    # every Z1 coupling has its conjugate mirror; as minimal_prime is the
    # mirror of minimal, this pairs z1_m with z1_mprime
    ok, why = check_reality(result.z1(), result.model.grid)
    if not ok:
        raise NlsnfError(f"Z1 breaks the reality pairing: {why}")

    remainder = (result.remainder + displaced).merged() if displaced else result.remainder
    return ReducedForm(z0=result.z0(), z1_m=z1_m, z1_mprime=z1_mp,
                       remainder=remainder, catalog=catalog)
