import dataclasses
import io
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lie_reference
import oracles
from nlsnf import hamalg, spectral
from nlsnf.errors import GeneratorClassError, LedgerViolation
from nlsnf.hamalg import (
    QUARTIC,
    HamExpansion,
    HamTerm,
    bracket_hf,
    check_reality,
    expand_potential_energy,
    generator_info,
    lie_derivative,
    lie_series,
)
from oracles import scalar_term


# --- independent oracle: dict-based bracket for pure-z monomials -------------
# {F, G}_z = i sum_j (dF/dzbar_j dG/dz_j - dF/dz_j dG/dzbar_j)

def poly_bracket_oracle(f_terms, g_terms, n):
    """f_terms, g_terms: dict (m, mu, nu) -> coeff.  Returns the same format."""
    out = {}
    for (mf, muf, nuf), cf in f_terms.items():
        for (mg, mug, nug), cg in g_terms.items():
            for j in range(n):
                w = nuf[j] * mug[j] - muf[j] * nug[j]
                if w == 0:
                    continue
                mu = tuple(np.add(muf, mug) - np.eye(n, dtype=int)[j])
                nu = tuple(np.add(nuf, nug) - np.eye(n, dtype=int)[j])
                key = (mf + mg, mu, nu)
                out[key] = out.get(key, 0.0) + 1j * w * cf * cg
    return {k: v for k, v in out.items() if abs(v) > 1e-15}


def expansion_to_dict(exp):
    out = {}
    for t in exp.merged().terms:
        assert t.kind == "scalar"
        out[(t.m, t.mu, t.nu)] = out.get((t.m, t.mu, t.nu), 0.0) + t.coeff
    return out


@pytest.fixture(scope="module")
def small_model():
    grid = spectral.GridSpec(l_box=30.0, m_pts=256)
    v = spectral.poschl_teller(grid.x, a=1.5, kappa2=0.35)
    return spectral.build_operator(grid, v)


def test_term_validation():
    with pytest.raises(ValueError):
        HamTerm(1.0, 0, (1,), (0, 0))          # length mismatch
    with pytest.raises(ValueError):
        HamTerm(1.0, 0, (-1,), (0,))           # negative exponent
    with pytest.raises(ValueError):
        HamTerm(1.0, 0, (0,), (0,), a=1, b=0)  # bare f-power without tail slot
    with pytest.raises(ValueError):
        HamTerm(1.0, 0, (0,), (0,), a=3, b=2, tail=np.ones(4))  # a+b > 4
    t = HamTerm(2.0, 1, (1, 0), (0, 2))
    assert t.kind == "scalar"
    assert t.is_balanced is False
    q = HamTerm(1.0, 0, (0,), (0,), a=2, b=2, tail=QUARTIC)
    assert q.ledger == 1


def test_ledger_bookkeeping():
    # E_P-type composite: z_j <f conj(f)^2, tail>, sides 1+0+1 and 0+0+2
    t = HamTerm(1.0, 0, (1,), (0,), a=1, b=2, tail=np.ones(4))
    assert t.ledger_sides() == (2, 2)
    assert t.ledger == 1
    u = HamTerm(1.0, 0, (1,), (0,))
    with pytest.raises(LedgerViolation):
        _ = u.ledger


def test_bracket_hf_scalar_example():
    # lambda = (0, 0.7), m = 1, mu = (0,1), nu = (0,0): factor i(0.7 - 1) = -0.3i
    t = scalar_term(1.0, 1, (0, 1), (0, 0))
    out = bracket_hf(t, np.array([0.0, 0.7]))
    assert out.coeff == pytest.approx(-0.3j)
    assert (out.m, out.mu, out.nu) == (1, (0, 1), (0, 0))


def test_bracket_hf_kernel():
    # lambda.(mu - nu) = m kills the bracket
    t = scalar_term(2.0, 0, (1, 1), (1, 1))
    out = bracket_hf(t, np.array([0.0, 0.7]))
    assert out.coeff == 0.0


def test_bracket_hf_linear_f(small_model):
    # m = 0, mu = nu = 0: coupling goes to i H Phi
    phi = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 2).astype(complex))
    t = oracles.linear_f_term(0, (0, 0), (0, 0), phi)
    out = bracket_hf(t, small_model.lam, small_model)
    assert_allclose(out.vector, 1j * small_model.apply_h(phi), atol=1e-12)


def test_bracket_hf_twice_is_square(small_model):
    lam = np.array([0.0, 0.7])
    t = scalar_term(1.3 - 0.2j, 1, (2, 0), (0, 1))
    omega = float(lam @ (np.array(t.mu) - np.array(t.nu))) - t.m
    twice = bracket_hf(bracket_hf(t, lam), lam)
    assert twice.coeff == pytest.approx(-(omega ** 2) * t.coeff)


def test_lie_derivative_scalar_vs_oracle(small_model):
    # chi = i z^2 zbar^2 type generator (M0 = 1), term = z_0: compare against
    # the brute-force polynomial bracket
    n = 2
    chi_terms = {
        (0, (2, 0), (1, 1)): 0.5j,
        (0, (1, 1), (2, 0)): 0.5j,
        (1, (1, 1), (0, 2)): 0.25 - 0.1j,
        (-1, (0, 2), (1, 1)): 0.25 + 0.1j,
    }
    chi = HamExpansion([scalar_term(c, m, mu, nu) for (m, mu, nu), c in chi_terms.items()])
    g = scalar_term(1.0, 0, (1, 0), (0, 0))
    out = lie_derivative(chi, g, small_model)
    got = expansion_to_dict(out)
    want = poly_bracket_oracle({(0, (1, 0), (0, 0)): 1.0}, chi_terms, n)
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-12)


def test_lie_derivative_no_overlap_vanishes(small_model):
    # chi with only <Psi, conj f> parts against a pure-z term with no shared
    # z-support: the bracket has no z-overlap and no f-pairing
    psi = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 3).astype(complex))
    chi = HamExpansion([oracles.linear_fbar_term(0, (2, 0), (1, 0), psi)])
    g = scalar_term(1.0, 0, (0, 1), (0, 1))
    out = lie_derivative(chi, g, small_model)
    assert len(out.merged()) == 0


def test_lie_derivative_quartic_marker(small_model):
    # marker against <Psi, conj f> generator: composite with a' + b' = 3,
    # tail (1/2) Psi, prefactor -i
    psi = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 3).astype(complex))
    chi = HamExpansion([oracles.linear_fbar_term(0, (2, 0), (1, 0), psi)])
    g = HamTerm(1.0, 0, (0, 0), (0, 0), a=2, b=2, tail=QUARTIC)
    out = lie_derivative(chi, g, small_model)
    assert len(out) == 1
    t = out.terms[0]
    assert (t.a, t.b) == (1, 2)
    # the marker's balance count gives L = 1 (sides 0+0+2), so L' = L + M0 = 2
    assert t.ledger == 1 + 1
    assert t.mu == (2, 0) and t.nu == (1, 0)
    assert_allclose(t.coeff * t.tail, -0.5j * psi, atol=1e-12)
    # hand expansion: {g, chi} = -i <grad_fbar chi, grad_f g>
    #               = -i z^2 zbar <psi, (1/2) f conj(f)^2 * 2>... checked by value
    rng = np.random.default_rng(1)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f = small_model.project_pc(
        (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        * np.exp(-small_model.grid.x ** 2 / 8))
    h = small_model.grid.h
    fb = np.conj(f)
    hand = -1j * z[0] ** 2 * np.conj(z[0]) * 0.5 * spectral.pairing(f * fb ** 2, psi, h)
    assert oracles.evaluate(out, 0.0, z, f, h) == pytest.approx(hand, rel=1e-12)


def test_lie_derivative_projects_a_folded_tail(small_model):
    # <f conj(f), tail> against <Psi, conj f>: pairing Psi with the f of the
    # tail leaves <conj(f), tail * Psi>, a linear factor, stored projected
    psi = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 3).astype(complex))
    chi = HamExpansion([oracles.linear_fbar_term(0, (2, 0), (1, 0), psi)])
    tail = np.exp(-small_model.grid.x ** 2 / 4) * (1 - 0.2j)
    g = HamTerm(1.0, 0, (1, 0), (1, 0), a=1, b=1, tail=tail)
    folded = [t.vector for t in lie_derivative(chi, g, small_model).terms
              if t.kind == "linear_fbar"]
    assert folded
    h = small_model.grid.h
    for vec in folded:
        assert np.linalg.norm(small_model.bound_weights(vec)) < 1e-12 * spectral.l2_norm(vec, h)
    # the unprojected product has bound-state weight, so the check has teeth
    assert (np.linalg.norm(small_model.bound_weights(tail * psi))
            > 1e-2 * spectral.l2_norm(tail * psi, h))


def test_lie_series_trivial(small_model):
    phi = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 2).astype(complex))
    chi = HamExpansion([oracles.linear_f_term(0, (1, 0), (0, 2), phi),
                        oracles.linear_fbar_term(0, (0, 2), (1, 0), np.conj(phi))])
    ham = HamExpansion([scalar_term(1.0, 0, (1, 1), (1, 1))])
    powers, dropped = lie_series(chi, ham, small_model, n0=0, degree_cap=10)
    assert powers == [] and dropped.count == 0
    powers, dropped = lie_series(HamExpansion([]), ham, small_model, n0=3, degree_cap=10)
    assert powers == [] and dropped.count == 0


def test_lie_series_degree_structure(small_model):
    # for H = single scalar, the powers beyond lie(H) have degree
    # >= deg(H) + 2 M0 in the ledger count
    chi = HamExpansion([
        scalar_term(0.3j, 0, (2, 0), (1, 1)), scalar_term(0.3j, 0, (1, 1), (2, 0)),
    ])
    ham = HamExpansion([scalar_term(1.0, 0, (1, 0), (1, 0))])
    powers, _ = lie_series(chi, ham, small_model, n0=3, degree_cap=20)
    assert expansion_to_dict(powers[0]) == \
        expansion_to_dict(lie_derivative(chi, ham, small_model))
    assert len(powers) > 1
    for power in powers[1:]:
        for t in power.terms:
            assert t.size >= 1 + 2 * generator_info(chi).big_m0


# --- capped Lie series against an uncapped reference -------------------------


def _reference_series(chi, ham, model, n0, cap):
    """lie_series from uncapped calls of the term-by-term reference Lie
    derivative, filtered on 2 size > cap."""
    powers, count, by_size, mass = [], 0, {}, 0.0
    current = ham
    for _ in range(n0):
        keep = []
        for t in lie_reference.lie_derivative(chi, current, model).terms:
            if 2 * t.size > cap:
                count += 1
                mass += abs(t.coeff)
                by_size[t.size] = by_size.get(t.size, 0) + 1
            else:
                keep.append(t)
        if not keep:
            break
        current = HamExpansion(keep)
        powers.append(current)
    return powers, count, by_size, mass


def _exact(exp):
    """Every record and vector byte of an expansion."""
    records, vectors = hamalg.expansion_to_records(exp)
    return json.dumps(records), {key: v.tobytes() for key, v in vectors.items()}


def _oracle_chi(model):
    # M0 = 1: scalar, <Phi, f> and <Psi, conj f> terms at harmonics 0 and +-1
    x = model.grid.x
    phi = model.project_pc((np.exp(-x ** 2 / 2) * (1 + 0.3j)).astype(complex))
    psi = model.project_pc(np.exp(-(x - 1) ** 2 / 3).astype(complex))
    return HamExpansion([
        scalar_term(0.3j, 0, (2, 0), (1, 1)), scalar_term(0.3j, 0, (1, 1), (2, 0)),
        scalar_term(0.1 - 0.2j, 1, (1, 1), (0, 2)),
        oracles.linear_f_term(1, (1, 0), (0, 2), phi),
        oracles.linear_fbar_term(-1, (0, 2), (1, 0), np.conj(phi)),
        oracles.linear_f_term(0, (0, 1), (1, 1), psi),
    ])


def _oracle_input(name, model, chi):
    x = model.grid.x
    if name == "quartic":
        # quartic markers: P_c vec tails, then tail * vec, then folded a + b = 1
        return HamExpansion([HamTerm(1.0, 0, (0, 0), (0, 0), a=2, b=2, tail=QUARTIC),
                             HamTerm(0.5, 1, (0, 0), (0, 0), a=2, b=2, tail=QUARTIC)])
    tail = np.exp(-x ** 2 / 4) * (1 - 0.2j)
    if name == "folded":
        # a = b = 1 tails: one f-pairing folds the rest into a linear factor
        return HamExpansion([HamTerm(1.0, 0, (1, 0), (1, 0), a=1, b=1, tail=tail),
                             HamTerm(0.7j, -1, (0, 1), (1, 0), a=1, b=1, tail=tail)])
    energy = expand_potential_energy(model, gamma0=1.0, gamma1=0.5)
    if name == "energy":
        # scalar, linear, quartic and composite terms, all of size 2
        return energy
    # sizes 2 and 3, so one cap keeps some outputs of a power and drops others
    return energy + lie_derivative(chi, energy, model).terms


@pytest.mark.parametrize("name, cap", [("quartic", 8), ("quartic", 10), ("folded", 6),
                                       ("folded", 8), ("energy", 6), ("energy", 8),
                                       ("mixed", 6), ("mixed", 8)])
def test_capped_lie_series_matches_the_uncapped_reference(small_model, name, cap):
    chi = _oracle_chi(small_model)
    ham = _oracle_input(name, small_model, chi)
    powers, dropped = lie_series(chi, ham, small_model, n0=3, degree_cap=cap)
    want, count, by_size, mass = _reference_series(chi, ham, small_model, 3, cap)
    assert [_exact(p) for p in powers] == [_exact(p) for p in want]
    assert (dropped.count, dropped.by_size, dropped.coeff_mass) == (count, by_size, mass)
    assert powers
    if (name, cap) in (("quartic", 10), ("folded", 6)):
        assert any(t.kind in ("linear_f", "linear_fbar") for p in powers for t in p.terms)
    if name == "mixed" and cap == 6:
        first = {t.size for t in lie_derivative(chi, ham, small_model).terms}
        assert first == {3, 4} and dropped.by_size.get(4, 0) > 0


# --- the array Lie derivative against the term-by-term reference -------------


def _lie_outcome(lie, chi, ham, model, cap):
    """Every record and vector byte of lie(chi, ham) and its DropLedger, or
    the type and message of the error it raised."""
    dropped = hamalg.DropLedger()
    try:
        out = lie(chi, ham, model, cap, dropped)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return _exact(out), (dropped.count, list(dropped.by_size.items()),
                         dropped.coeff_mass.hex(), dropped.generated)


def _assert_matches_reference(chi, ham, model, cap):
    want = _lie_outcome(lie_reference.lie_derivative, chi, ham, model, cap)
    assert _lie_outcome(lie_derivative, chi, ham, model, cap) == want
    return want


def _lie_strategies(st, model):
    """Generator-class chi (M0 = 1, two modes) and input terms of every shape:
    scalar, linear, two-slot composite, quartic marker, and tails whose a + b
    drops to 1 and folds.  A pool of three vectors makes content collisions,
    and coefficients with -0.0 parts exercise the signs of merged zeros."""
    rng = np.random.default_rng(5)
    x = model.grid.x
    pool = [model.project_pc((rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x)))
                             * np.exp(-x ** 2 / 8)) for _ in range(3)]
    vec = st.sampled_from(pool)
    coeff = st.builds(complex, st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]),
                                         st.floats(-2.0, 2.0)),
                      st.one_of(st.sampled_from([0.0, -0.0, 0.25]), st.floats(-2.0, 2.0)))
    m = st.integers(-1, 1)
    pair = st.sampled_from([(2, 0), (1, 1), (0, 2)])
    single = st.sampled_from([(1, 0), (0, 1)])
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))

    @st.composite
    def chi_term(draw):
        kind = draw(st.sampled_from(["scalar", "linear_f", "linear_fbar"]))
        if kind == "scalar":
            return HamTerm(draw(coeff), draw(m), draw(pair), draw(pair))
        if kind == "linear_f":
            return HamTerm(draw(coeff), draw(m), draw(single), draw(pair), alphas=(draw(vec),))
        return HamTerm(draw(coeff), draw(m), draw(pair), draw(single), betas=(draw(vec),))

    @st.composite
    def input_term(draw):
        c, mm, mu, nu = draw(coeff), draw(m), draw(exps), draw(exps)
        kind = draw(st.sampled_from(["scalar", "linear", "two-slot", "quartic", "tail"]))
        if kind == "scalar":
            return HamTerm(c, mm, mu, nu)
        if kind == "linear":
            side = draw(st.booleans())
            return HamTerm(c, mm, mu, nu, alphas=(draw(vec),) if side else (),
                           betas=() if side else (draw(vec),))
        if kind == "two-slot":
            n_alpha = draw(st.integers(0, 2))
            return HamTerm(c, mm, mu, nu, alphas=tuple(draw(vec) for _ in range(n_alpha)),
                           betas=tuple(draw(vec) for _ in range(2 - n_alpha)))
        if kind == "quartic":
            # as in the energy: with z-exponents, a linear chi term would give
            # a quartic marker a linear factor, which the checks refuse
            return HamTerm(c, mm, (0, 0), (0, 0), a=2, b=2, tail=QUARTIC)
        # (2, 2) with a vector tail trips the f-power check
        a, b = draw(st.sampled_from([(2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)]))
        n_alpha, n_beta = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        return HamTerm(c, mm, mu, nu, alphas=tuple(draw(vec) for _ in range(n_alpha)),
                       betas=tuple(draw(vec) for _ in range(n_beta)), a=a, b=b, tail=draw(vec))

    return st.lists(chi_term(), min_size=1, max_size=4), st.lists(input_term(), min_size=1,
                                                                   max_size=5)


@pytest.mark.parametrize("block_pairs", [None, 1, 2, 3], ids=["default", "1", "2", "3"])
def test_lie_derivative_matches_the_term_by_term_reference(small_model, monkeypatch,
                                                           block_pairs):
    # blocks of 1-3 (input, chi term) pairs make most examples span several
    # blocks of charge classes; the default holds each example in one
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    chis, inputs = _lie_strategies(st, small_model)
    if block_pairs is not None:
        monkeypatch.setattr(hamalg, "_BLOCK_PAIRS", block_pairs)

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(chi=chis, ham=inputs, cap=st.one_of(st.none(), st.integers(2, 10)))
    def check(chi, ham, cap):
        _assert_matches_reference(HamExpansion(chi), HamExpansion(ham), small_model, cap)

    check()


def test_lie_derivative_drops_outputs_that_cancel(small_model):
    # two inputs whose outputs, all over the cap, cancel to below MERGE_TOL
    chi = _oracle_chi(small_model)
    tail = np.exp(-small_model.grid.x ** 2 / 4) * (1 - 0.2j)
    g = HamTerm(1.0, 0, (1, 0), (1, 0), a=1, b=1, tail=tail)
    alone = _assert_matches_reference(chi, HamExpansion([g]), small_model, 4)
    assert alone[1][0] > 0
    ham = HamExpansion([g, g.scaled(-(1.0 + 2.0 ** -52))])
    for cap in (4, None):
        records, (count, by_size, mass, generated) = _assert_matches_reference(
            chi, ham, small_model, cap)
        assert records == ("[]", {}) and count == 0 and generated == 2 * alone[1][3]


@pytest.mark.parametrize("tail, error", [
    (QUARTIC, ("ValueError", "quartic marker requires a = b = 2 and no linear factors")),
    ("vector", ("LedgerViolation", "f-power count must stay below 4"))])
def test_lie_derivative_refuses_what_the_reference_refuses(small_model, tail, error):
    # a z-derivative keeps the input's tail and adds chi's linear factor
    chi = _oracle_chi(small_model)
    if tail == "vector":
        tail = np.exp(-small_model.grid.x ** 2 / 4).astype(complex)
    ham = HamExpansion([HamTerm(1.0, 0, (1, 0), (1, 0), a=2, b=2, tail=tail)])
    assert _assert_matches_reference(chi, ham, small_model, None) == error


def test_lie_derivative_refuses_the_earliest_output_of_a_later_block(small_model, monkeypatch):
    # the quartic marker with z-exponents comes first in generation order, but
    # its charge m = 2 puts its pair in the block after the (2, 2) vector
    # tail's (m = 1): the error is still the marker's, as in one merge
    chi = HamExpansion([_oracle_chi(small_model).terms[3]])
    tail = np.exp(-small_model.grid.x ** 2 / 4).astype(complex)
    marker = HamTerm(1.0, 1, (1, 0), (1, 0), a=2, b=2, tail=QUARTIC)
    vector = HamTerm(1.0, 0, (1, 0), (1, 0), a=2, b=2, tail=tail)
    monkeypatch.setattr(hamalg, "_BLOCK_PAIRS", 1)
    blocks = []
    charge_blocks = hamalg._charge_blocks

    def recorded(g, c):
        got = charge_blocks(g, c)
        blocks.append([b.tolist() for b in got])
        return got

    monkeypatch.setattr(hamalg, "_charge_blocks", recorded)
    ham = HamExpansion([marker, vector])
    error = _assert_matches_reference(chi, ham, small_model, None)
    assert blocks == [[[1], [0]]]
    assert error == ("ValueError", "quartic marker requires a = b = 2 and no linear factors")
    assert _assert_matches_reference(chi, HamExpansion([vector]), small_model, None) == (
        "LedgerViolation", "f-power count must stay below 4")


def _charge(m, mu, nu):
    return (int(m), *(np.asarray(mu) - np.asarray(nu)).tolist())


def _lie_output_charges(chi, ham, model, families: set) -> bool:
    """Whether every raw output of _lie_outputs carries its input's charge
    (m, mu - nu) plus its chi term's; adds the families the outputs came
    from to `families`.  Checks that fail leave the blocks yielded before."""
    factors = hamalg._Factors(model)
    n, n_chi = len(chi.terms[0].mu), len(chi)
    outputs = hamalg._lie_outputs(chi.terms, ham.terms, generator_info(chi), factors,
                                  model.grid.h)
    ok = True
    try:
        for out in outputs:
            # "order" is (i * n_chi + k) * span + the family position
            slots = out["alpha"].shape[1] - 1
            pair, pos = np.divmod(out["order"], n + 2 * (slots + 1))
            for row, (i, k, p) in enumerate(zip(*np.divmod(pair, n_chi), pos)):
                g, c = ham.terms[i], chi.terms[k]
                want = np.add(_charge(g.m, g.mu, g.nu), _charge(c.m, c.mu, c.nu)).tolist()
                ok &= _charge(out["m"][row], out["mu"][row], out["nu"][row]) == tuple(want)
                side, at = divmod(int(p) - n, slots + 1)
                families.add("z-part" if p < n else (side, "slot") if at < slots else
                             (side, "quartic") if g.tail is QUARTIC else
                             (side, "fold") if out["a"][row] + out["b"][row] == 0 else
                             (side, "tail"))
    except (ValueError, LedgerViolation):
        pass
    return ok


def test_lie_outputs_carry_the_sum_of_their_pair_charges(small_model):
    # the selection rule the blocks rest on: the bracket adds (m, mu - nu)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    chis, inputs = _lie_strategies(st, small_model)

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(chi=chis, ham=inputs)
    def check(chi, ham):
        assert _lie_output_charges(HamExpansion(chi), HamExpansion(ham), small_model, set())

    check()
    # the oracle inputs give every family: the z-part, both slot pairings, the
    # quartic marker and the tails, folded or not, on both sides
    chi = _oracle_chi(small_model)
    families: set = set()
    for name in ("quartic", "folded", "mixed"):
        assert _lie_output_charges(chi, _oracle_input(name, small_model, chi), small_model,
                                   families)
    assert families == {"z-part", *((side, family) for side in (0, 1) for family in
                                    ("slot", "quartic", "fold", "tail"))}


@pytest.mark.parametrize("field, message", [("big_m0", "ledger law broken"),
                                            ("m0", "harmonic bound broken")])
def test_lie_derivative_checks_the_closure_laws(small_model, monkeypatch, field, message):
    # understating the generator's order or harmonic reach must trip the check
    chi = _oracle_chi(small_model)
    ham = expand_potential_energy(small_model, gamma0=1.0, gamma1=0.5)
    assert len(lie_derivative(chi, ham, small_model))
    info = generator_info(chi)
    understated = dataclasses.replace(info, **{field: getattr(info, field) - 1})
    monkeypatch.setattr(hamalg, "generator_info", lambda chi: understated)
    with pytest.raises(LedgerViolation, match=message):
        lie_derivative(chi, ham, small_model)


def test_ledger_law_enforced(small_model):
    # every lie output from balanced input satisfies L' = L + M0; build a
    # balanced input and a generator, then scan sizes
    phi = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 2).astype(complex))
    chi = HamExpansion([
        oracles.linear_f_term(1, (1, 0), (0, 2), phi),
        oracles.linear_fbar_term(-1, (0, 2), (1, 0), np.conj(phi)),
    ])
    g = HamTerm(1.0, 0, (1, 0), (1, 0), a=1, b=1, tail=np.exp(-small_model.grid.x ** 2))
    out = lie_derivative(chi, g, small_model)
    info = generator_info(chi)
    for t in out.terms:
        assert t.ledger == g.ledger + info.big_m0
        assert abs(t.m) <= info.m0 + abs(g.m)


def test_generator_class_rejects_bad_shape(small_model):
    bad = HamExpansion([scalar_term(1.0, 0, (1, 0), (0, 1)),  # |mu| = |nu| but M0 = 0
                        ])
    with pytest.raises(GeneratorClassError):
        generator_info(bad)
    g = scalar_term(1.0, 0, (1, 0), (0, 0))
    with pytest.raises(GeneratorClassError):
        lie_derivative(HamExpansion([g]), g, small_model)


def test_check_reality(small_model):
    grid = small_model.grid
    phi = small_model.project_pc((np.exp(-grid.x ** 2 / 2) * (1 + 0.2j)).astype(complex))
    lone = HamExpansion([oracles.linear_f_term(1, (1, 0), (0, 2), phi)])
    ok, why = check_reality(lone, grid)
    assert not ok and "mirror" in why
    paired = lone + [oracles.linear_fbar_term(-1, (0, 2), (1, 0), np.conj(phi))]
    ok, why = check_reality(paired, grid)
    assert ok, why


def _composite(model):
    """A composite with a slot factor and an (a, b) = (1, 2) tail, and a
    conjugate-mirror pair of scalars to keep it company."""
    x = model.grid.x
    phi = model.project_pc((np.exp(-x ** 2 / 2) * (1 + 0.2j)).astype(complex))
    tail = np.exp(-(x - 0.5) ** 2 / 3) * (1 - 0.4j)
    comp = HamTerm(0.7 + 0.2j, 1, (1, 0), (0, 1), alphas=(phi,), a=1, b=2, tail=tail)
    pair = [scalar_term(0.3 - 0.1j, 0, (2, 0), (1, 1)),
            scalar_term(0.3 + 0.1j, 0, (1, 1), (2, 0))]
    return comp, pair


def test_check_reality_flags_a_composite_without_its_mirror(small_model):
    comp, pair = _composite(small_model)
    ok, why = check_reality(HamExpansion(pair + [comp]), small_model.grid)
    assert not ok
    assert why == "composite bucket (1, (1, 0), (0, 1), 1, 2, 1, 0) has no conjugate mirror"


def test_check_reality_flags_a_composite_whose_mirror_tail_is_off(small_model):
    comp, pair = _composite(small_model)
    mirror = comp.mirror()
    off = HamTerm(mirror.coeff, mirror.m, mirror.mu, mirror.nu, mirror.alphas, mirror.betas,
                  mirror.a, mirror.b, mirror.tail * (1.0 + 1e-6))
    ok, why = check_reality(HamExpansion(pair + [comp, off]), small_model.grid)
    assert not ok
    assert why == "composite bucket (1, (1, 0), (0, 1), 1, 2, 1, 0) has no conjugate mirror"


def test_check_reality_passes_a_composite_mirror_pair(small_model):
    # (a, b) = (1, 2) against its mirror (2, 1); a second term in each bucket,
    # listed in the other order, checks that buckets are compared as sums
    comp, pair = _composite(small_model)
    other = HamTerm(-0.4j, 1, (1, 0), (0, 1), alphas=(comp.tail,), a=1, b=2,
                    tail=comp.alphas[0])
    assert other.mirror().a == 2 and other.mirror().b == 1
    ham = HamExpansion(pair + [comp, other, other.mirror(), comp.mirror()])
    ok, why = check_reality(ham, small_model.grid)
    assert ok, why


REALITY_KINDS = ("scalar", "linear_f", "linear_fbar", QUARTIC, "composite")


def _term_of_kind(model, kind) -> HamTerm:
    """A term of `kind` at m = 1 that is not its own mirror."""
    phi = model.project_pc((np.exp(-model.grid.x ** 2 / 2) * (1 + 0.2j)).astype(complex))
    if kind == "scalar":
        return scalar_term(0.3 - 0.1j, 1, (2, 0), (1, 1))
    if kind == "linear_f":
        return oracles.linear_f_term(1, (1, 0), (0, 2), phi)
    if kind == "linear_fbar":
        return oracles.linear_fbar_term(1, (0, 2), (1, 0), phi)
    if kind == QUARTIC:
        return HamTerm(0.5 + 0.2j, 1, (1, 0), (1, 0), a=2, b=2, tail=QUARTIC)
    return _composite(model)[0]


@pytest.mark.parametrize("kind", REALITY_KINDS)
def test_check_reality_flags_a_lone_term(small_model, kind):
    ok, why = check_reality(HamExpansion([_term_of_kind(small_model, kind)]), small_model.grid)
    assert not ok and "mirror" in why


@pytest.mark.parametrize("kind", REALITY_KINDS)
def test_check_reality_flags_a_mirror_off_by_a_relative_1e6(small_model, kind):
    term = _term_of_kind(small_model, kind)
    ham = HamExpansion([term, term.mirror().scaled(1.0 + 1e-6)])
    ok, why = check_reality(ham, small_model.grid)
    assert not ok and "mirror" in why


@pytest.mark.parametrize("kind", REALITY_KINDS)
def test_check_reality_passes_an_exact_pair_once_or_twice(small_model, kind):
    # a pair listed twice, unmerged, sums as a merged one would
    term = _term_of_kind(small_model, kind)
    pair = [term, term.mirror()]
    for ham in (HamExpansion(pair), HamExpansion(pair + pair)):
        ok, why = check_reality(ham, small_model.grid)
        assert ok, why


def _edge_bump(model, vec) -> np.ndarray:
    """vec plus a 1e-6 max|vec| bump at x = 0.9 L, where a probe enveloped by
    exp(-x^2 / (2 (0.2 L)^2)) reads about 4e-5 of its centre."""
    x, l_box = model.grid.x, model.grid.l_box
    return vec + 1e-6 * np.max(np.abs(vec)) * np.exp(-(x - 0.9 * l_box) ** 2)


def test_check_reality_flags_a_bump_at_the_box_edge_of_a_composite_mirror(small_model):
    comp, pair = _composite(small_model)
    mirror = comp.mirror()
    bumped = HamTerm(mirror.coeff, mirror.m, mirror.mu, mirror.nu, mirror.alphas,
                     mirror.betas, mirror.a, mirror.b, _edge_bump(small_model, mirror.tail))
    ok, why = check_reality(HamExpansion(pair + [comp, bumped]), small_model.grid)
    assert not ok
    assert why == "composite bucket (1, (1, 0), (0, 1), 1, 2, 1, 0) has no conjugate mirror"


def test_check_reality_flags_a_bump_at_the_box_edge_of_a_linear_mirror(small_model):
    term = _term_of_kind(small_model, "linear_f")
    mirror = term.mirror()
    bumped = mirror.with_vector(_edge_bump(small_model, mirror.vector))
    ok, why = check_reality(HamExpansion([term, bumped]), small_model.grid)
    assert not ok and "mirror" in why


def test_f_factors_match_the_term_by_term_radiation_factor(small_model):
    # _f_factors, the only array evaluator of the program (check_reality's),
    # row by row against the product of one term's pairings, at whole-box
    # probe states as check_reality draws them
    from nlsnf.birkhoff import normal_form_round

    model = small_model
    h = model.grid.h
    ep = expand_potential_energy(model, gamma0=1.0, gamma1=0.6)
    _, _, chi, _ = normal_form_round(HamExpansion([]), ep, model, r=1, n0=1, degree_cap=4)
    lie = lie_derivative(chi, ep, model)
    terms = ep.terms + chi.terms + lie.terms
    assert {"scalar", "linear_f", "linear_fbar"} <= {t.kind for t in terms}
    assert any(t.tail is QUARTIC for t in terms)
    assert any(len(t.alphas) + len(t.betas) == 2 for t in terms)
    assert any(t.a and t.b and t.tail is not QUARTIC for t in terms)
    rng = np.random.default_rng(41)
    probes = [rng.standard_normal(model.grid.m_pts) + 1j * rng.standard_normal(model.grid.m_pts)
              for _ in range(3)]
    for ham in (ep, chi, lie):
        factors = hamalg._Factors(None)
        got = hamalg._f_factors(hamalg._term_columns(ham.terms, factors), factors, probes, h)
        want = np.array([[oracles.radiation_factor(t, f, h) for f in probes] for t in ham])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_expand_potential_reality(small_model):
    ep = expand_potential_energy(small_model, gamma0=0.7, gamma1=1.3)
    ok, why = check_reality(ep, small_model.grid)
    assert ok, why


def test_expand_potential_trivial():
    grid = spectral.GridSpec(l_box=30.0, m_pts=256)
    v = spectral.poschl_teller(grid.x, a=1.5, kappa2=0.35)
    model = spectral.build_operator(grid, v)
    assert len(expand_potential_energy(model, 0.0, 0.0)) == 0


def test_expand_potential_single_mode_coefficient():
    # n = 0 sector: the z^2 zbar^2 coefficient at m = 0 is gamma0 int phi0^4 / 2
    # (the flow-consistent normalization), confirmed against the direct
    # quadrature of gamma |z phi0|^4 / 2
    grid = spectral.GridSpec(l_box=30.0, m_pts=512)
    model = spectral.build_operator(grid, spectral.sech2_well(grid.x, depth=2.0))
    assert len(model.lam) == 1
    ep = expand_potential_energy(model, gamma0=1.0, gamma1=0.0)
    h = grid.h
    target = float(h * np.sum(model.phi[0] ** 4)) / 2.0
    coeff = [t.coeff for t in ep.terms
             if t.kind == "scalar" and t.m == 0 and t.mu == (2,) and t.nu == (2,)]
    assert len(coeff) == 1
    assert coeff[0] == pytest.approx(target, rel=1e-12)
    # and the whole f = 0 sector agrees with |z|^4 quadrature
    z = np.array([0.3 - 0.4j])
    direct = abs(z[0]) ** 4 * float(h * np.sum(model.phi[0] ** 4)) / 2.0
    val = oracles.evaluate(ep, 0.0, z, np.zeros(grid.m_pts, dtype=complex), h)
    assert val == pytest.approx(direct, rel=1e-12)


def test_expand_potential_evaluation_consistency(small_model):
    rng = np.random.default_rng(7)
    grid = small_model.grid
    h = grid.h
    ep = expand_potential_energy(small_model, gamma0=0.8, gamma1=-0.5)
    for trial in range(3):
        t = 2.0 * rng.random()
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f = small_model.project_pc(
            (rng.standard_normal(grid.m_pts) + 1j * rng.standard_normal(grid.m_pts))
            * np.exp(-grid.x ** 2 / 10))
        u = z[0] * small_model.phi[0] + z[1] * small_model.phi[1] + f
        gamma = 0.8 - 0.5 * np.cos(t)
        direct = gamma * float(h * np.sum(np.abs(u) ** 4)) / 2.0
        val = oracles.evaluate(ep, t, z, f, h)
        assert abs(val.imag) < 1e-10 * abs(val.real)
        assert val.real == pytest.approx(direct, rel=1e-10)


def test_gradient_zbar_quadratic(small_model):
    # H = |z0|^4: d/dzbar_0 = 2 z0^2 zbar0
    ham = HamExpansion([scalar_term(1.0, 0, (2,), (2,))])
    z = np.array([0.7 + 0.3j])
    (val,), _ = oracles.field(ham, 0.0, z, np.zeros(small_model.grid.m_pts), small_model)
    assert val == pytest.approx(2.0 * z[0] ** 2 * np.conj(z[0]))


def test_gradients_match_finite_differences(small_model):
    # E_P, and lie(chi, E_P) with its two-slot composites and slot-plus-tail rows
    from nlsnf.birkhoff import normal_form_round

    rng = np.random.default_rng(3)
    grid = small_model.grid
    h = grid.h
    ep = expand_potential_energy(small_model, gamma0=1.0, gamma1=0.4)
    _, _, chi, _ = normal_form_round(HamExpansion([]), ep, small_model, r=1, n0=1, degree_cap=4)
    lie = lie_derivative(chi, ep, small_model)
    assert any(len(t.betas) == 2 for t in lie) and any(t.betas and t.b for t in lie)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f = small_model.project_pc(
        (rng.standard_normal(grid.m_pts) + 1j * rng.standard_normal(grid.m_pts))
        * np.exp(-grid.x ** 2 / 12))
    t = 0.37
    dd = 1e-6
    v = small_model.project_pc(np.exp(-(grid.x - 1.0) ** 2 / 4).astype(complex))

    for ham in (ep, lie):
        dz, df = oracles.field(ham, t, z, f, small_model)

        # Wirtinger d/dzbar_0 = (d/dx + i d/dy)/2 on H(z, zbar)
        def ev(zz):
            return oracles.evaluate(ham, t, zz, f, h)

        for j in range(2):
            dx = np.zeros(2, dtype=complex)
            dx[j] = dd
            d_re = (ev(z + dx) - ev(z - dx)) / (2 * dd)
            d_im = (ev(z + 1j * dx) - ev(z - 1j * dx)) / (2 * dd)
            fd = 0.5 * (d_re + 1j * d_im)
            assert dz[j] == pytest.approx(fd, rel=1e-6)

        # directional derivative in f: d/ds H(f + s v) = <grad_f H, v> + <grad_fbar H, conj v>
        def evf(ff):
            return oracles.evaluate(ham, t, z, ff, h)

        d_re = (evf(f + dd * v) - evf(f - dd * v)) / (2 * dd)
        d_im = (evf(f + 1j * dd * v) - evf(f - 1j * dd * v)) / (2 * dd)
        # combine to isolate the conj-f gradient: <grad_fbar H, conj v>
        fbar_dir = 0.5 * (d_re + 1j * d_im)
        got = spectral.pairing(df, np.conj(v), h)
        assert got == pytest.approx(fbar_dir, rel=1e-6)


def test_field_gives_the_lie_derivative_as_a_bracket(small_model):
    # for real-symmetric g and chi, d/dz = conj d/dzbar and grad_f = conj grad_fbar, so
    # {g, chi} = i sum_j (g_j conj(chi_j) - conj(g_j) chi_j)
    #            + i <grad_fbar g, conj grad_fbar chi> - i <grad_fbar chi, conj grad_fbar g>
    # with g_j = dg/dzbar_j: the field against lie_derivative, term by term
    from nlsnf.birkhoff import normal_form_round

    model = small_model
    grid = model.grid
    h = grid.h
    ep = expand_potential_energy(model, gamma0=1.0, gamma1=0.6)
    _, _, chi, _ = normal_form_round(HamExpansion([]), ep, model, r=1, n0=1, degree_cap=4)
    rng = np.random.default_rng(23)
    for g in (ep, lie_derivative(chi, ep, model)):
        lie = lie_derivative(chi, g, model)
        for _ in range(3):
            z = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            f = model.project_pc((rng.standard_normal(grid.m_pts)
                                  + 1j * rng.standard_normal(grid.m_pts)) * np.exp(-grid.x ** 2 / 8))
            f *= 0.5 / spectral.l2_norm(f, h)
            t = rng.uniform(0.0, 2.0 * np.pi)
            gz, gf = oracles.field(g, t, z, f, model)
            cz, cf = oracles.field(chi, t, z, f, model)
            bracket = (1j * np.sum(gz * np.conj(cz) - np.conj(gz) * cz)
                       + 1j * spectral.pairing(gf, np.conj(cf), h)
                       - 1j * spectral.pairing(cf, np.conj(gf), h))
            assert bracket == pytest.approx(oracles.evaluate(lie, t, z, f, h), rel=1e-10)


def test_hf_gradients(small_model):
    # quadratic Hamiltonian: grad_zbar_j = lambda_j z_j, grad_fbar = H f
    rng = np.random.default_rng(5)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f = small_model.project_pc(
        (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        * np.exp(-small_model.grid.x ** 2 / 9))
    hh = 1e-6
    h = small_model.grid.h

    def hf(zz, ff):
        return oracles.hf_value(small_model, zz, ff)

    for j in range(2):
        dx = np.zeros(2, dtype=complex)
        dx[j] = hh
        fd = 0.5 * ((hf(z + dx, f) - hf(z - dx, f)) / (2 * hh)
                    + 1j * (hf(z + 1j * dx, f) - hf(z - 1j * dx, f)) / (2 * hh))
        assert fd == pytest.approx(small_model.lam[j] * z[j], rel=1e-6, abs=1e-9)
    v = small_model.project_pc(np.exp(-(small_model.grid.x + 2) ** 2 / 5).astype(complex))
    fd = 0.5 * ((hf(z, f + hh * v) - hf(z, f - hh * v)) / (2 * hh)
                + 1j * (hf(z, f + 1j * hh * v) - hf(z, f - 1j * hh * v)) / (2 * hh))
    want = spectral.pairing(small_model.apply_h(f), np.conj(v), h)
    assert fd == pytest.approx(want, rel=1e-6)


def test_bracket_antisymmetry_evaluation(small_model):
    # {F, G} = -{G, F} for two generator-class expansions, at random states
    grid = small_model.grid
    phi1 = small_model.project_pc(np.exp(-grid.x ** 2 / 2).astype(complex))
    phi2 = small_model.project_pc((grid.x * np.exp(-grid.x ** 2 / 3)).astype(complex))
    f_exp = HamExpansion([
        oracles.linear_f_term(0, (1, 0), (0, 2), phi1),
        oracles.linear_fbar_term(0, (0, 2), (1, 0), np.conj(phi1)),
        scalar_term(0.4j, 1, (1, 1), (2, 0)), scalar_term(-0.4j, -1, (2, 0), (1, 1)),
    ])
    g_exp = HamExpansion([
        oracles.linear_f_term(1, (0, 1), (2, 0), phi2),
        oracles.linear_fbar_term(-1, (2, 0), (0, 1), np.conj(phi2)),
    ])
    rng = np.random.default_rng(17)
    h = grid.h
    fg = lie_derivative(g_exp, f_exp, small_model)   # {F, G}
    gf = lie_derivative(f_exp, g_exp, small_model)   # {G, F}
    for _ in range(4):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f = small_model.project_pc(
            (rng.standard_normal(256) + 1j * rng.standard_normal(256))
            * np.exp(-grid.x ** 2 / 11))
        a = oracles.evaluate(fg, 0.9, z, f, h)
        b = oracles.evaluate(gf, 0.9, z, f, h)
        assert a == pytest.approx(-b, rel=1e-10)


def test_reality_preserved_by_lie(small_model):
    grid = small_model.grid
    phi = small_model.project_pc((np.exp(-grid.x ** 2 / 2) * (1 + 0.3j)).astype(complex))
    chi = HamExpansion([
        oracles.linear_f_term(1, (1, 0), (0, 2), phi),
        oracles.linear_fbar_term(-1, (0, 2), (1, 0), np.conj(phi)),
    ])
    ep = expand_potential_energy(small_model, gamma0=1.0, gamma1=0.5)
    out = lie_derivative(chi, ep, small_model)
    ok, why = check_reality(out, grid)
    assert ok, why


def test_lie_derivative_is_the_derivative_along_the_flow(small_model):
    # lie_chi(E_P) = d/ds E_P(flow of s chi) at s = 0, by a central difference.
    # E_P has linear terms, tails with a > 0 and b > 0 and the quartic marker,
    # and chi couples to both sides, so every branch of the slot pairing runs.
    from nlsnf.birkhoff import normal_form_round

    model = small_model
    grid = model.grid
    h = grid.h
    ep = expand_potential_energy(model, gamma0=1.0, gamma1=0.6)
    _, _, chi, _ = normal_form_round(HamExpansion([]), ep, model, r=1, n0=1, degree_cap=4)
    assert {"linear_f", "linear_fbar"} <= {t.kind for t in chi}
    lie = lie_derivative(chi, ep, model)
    rng = np.random.default_rng(5)
    s = 1e-3
    for _ in range(3):
        z = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        f = model.project_pc((rng.standard_normal(grid.m_pts) + 1j * rng.standard_normal(grid.m_pts))
                             * np.exp(-grid.x ** 2 / 8))
        f *= 0.5 / spectral.l2_norm(f, h)
        t = rng.uniform(0.0, 2.0 * np.pi)
        plus, minus = (oracles.evaluate(ep, t, *oracles.generator_flow(
                           chi.scaled(sign * s), t, z, f, model, steps=8)[:2], h)
                       for sign in (1.0, -1.0))
        # the central difference is exact to O(s^2), about 3e-7 relative here
        assert (plus - minus) / (2.0 * s) == pytest.approx(oracles.evaluate(lie, t, z, f, h),
                                                           rel=1e-5)


def test_serialization_roundtrip(small_model):
    ep = expand_potential_energy(small_model, gamma0=1.0, gamma1=0.3)
    records, vectors = hamalg.expansion_to_records(ep)
    back = oracles.expansion_from_records(records, vectors)
    rng = np.random.default_rng(2)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 7).astype(complex))
    h = small_model.grid.h
    assert oracles.evaluate(back, 0.3, z, f, h) == pytest.approx(
        oracles.evaluate(ep, 0.3, z, f, h), rel=1e-14)


# --- property tests ----------------------------------------------------------
# Each test imports hypothesis itself, so that only these tests are skipped
# where it is not installed.


def _gaussian_int_monomial(z, mu, nu):
    """Exact z^mu conj(z)^nu over Gaussian integers z = [(re, im), ...]."""
    re, im = 1, 0
    for (a, b), e, f in zip(z, mu, nu):
        for x, y in [(a, b)] * e + [(a, -b)] * f:
            re, im = re * x - im * y, re * y + im * x
    return complex(re, im)


def _term_strategy(st):
    """Random HamTerms of every kind on two modes and 8-point vectors.

    Small index ranges and a few vector seeds make merge collisions common;
    every vector is a new array, so equal contents come as distinct copies.
    Coefficient parts include -0.0 and values below MERGE_TOL.
    """
    part = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 3e-15, -8e-15]))

    @st.composite
    def term(draw):
        exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
        mu, nu, m = draw(exps), draw(exps), draw(st.integers(-1, 1))
        coeff = complex(draw(part), draw(part))

        def vec():
            rng = np.random.default_rng(draw(st.integers(0, 3)))
            return rng.standard_normal(8) + 1j * rng.standard_normal(8)

        kind = draw(st.sampled_from(["scalar", "linear_f", "linear_fbar", "quartic",
                                     "two-slot", "tail"]))
        if kind == "scalar":
            return HamTerm(coeff, m, mu, nu)
        if kind == "linear_f":
            return HamTerm(coeff, m, mu, nu, alphas=(vec(),))
        if kind == "linear_fbar":
            return HamTerm(coeff, m, mu, nu, betas=(vec(),))
        if kind == "quartic":
            return HamTerm(coeff, m, mu, nu, a=2, b=2, tail=QUARTIC)
        if kind == "two-slot":
            n_alpha = draw(st.integers(0, 2))
            return HamTerm(coeff, m, mu, nu, alphas=tuple(vec() for _ in range(n_alpha)),
                           betas=tuple(vec() for _ in range(2 - n_alpha)))
        a, b = draw(st.sampled_from([(2, 0), (1, 1), (0, 2), (2, 1), (1, 2)]))
        alphas = tuple(vec() for _ in range(draw(st.integers(0, 1))))
        betas = tuple(vec() for _ in range(draw(st.integers(0, 1))))
        return HamTerm(coeff, m, mu, nu, alphas=alphas, betas=betas, a=a, b=b, tail=vec())

    return term()


def _same_term(s: HamTerm, t: HamTerm) -> bool:
    def same_vecs(ps, qs):
        return len(ps) == len(qs) and all(np.array_equal(p, q) for p, q in zip(ps, qs))

    if s.tail is None or s.tail is QUARTIC:
        same_tail = s.tail is t.tail
    else:
        same_tail = t.tail is not None and t.tail is not QUARTIC and np.array_equal(s.tail, t.tail)
    return ((s.coeff, s.m, s.mu, s.nu, s.a, s.b) == (t.coeff, t.m, t.mu, t.nu, t.a, t.b)
            and same_vecs(s.alphas, t.alphas) and same_vecs(s.betas, t.betas) and same_tail)


def test_monomials_match_exact_integer_products():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(data=st.data(), n=st.integers(1, 3), k=st.integers(1, 4))
    def check(data, n, k):
        ints = st.integers(-3, 3)
        z = data.draw(st.lists(st.tuples(ints, ints), min_size=n, max_size=n))
        row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        mu = data.draw(st.lists(row, min_size=k, max_size=k))
        nu = data.draw(st.lists(row, min_size=k, max_size=k))
        zc = np.array([complex(a, b) for a, b in z])
        table = hamalg.monomials(zc, np.array(mu), np.array(nu))
        assert table.shape == (k,)
        for i in range(k):
            want = _gaussian_int_monomial(z, mu[i], nu[i])
            assert hamalg.monomials(zc, np.array(mu[i]), np.array(nu[i])) == want
            assert hamalg.monomials(zc, tuple(mu[i]), tuple(nu[i])) == want
            assert table[i] == want

    check()


def test_monomials_zero_amplitudes_and_exponents():
    z = np.array([0.0, 0.5 - 0.25j])
    assert hamalg.monomials(z, (0, 0), (0, 0)) == 1.0        # 0^0 = 1
    assert hamalg.monomials(z, (0, 2), (0, 1)) == z[1] ** 2 * np.conj(z[1])
    assert hamalg.monomials(z, (1, 0), (0, 0)) == 0.0
    assert_allclose(hamalg.monomials(z, np.array([[0, 0], [0, 1], [1, 1]]),
                                     np.zeros((3, 2), dtype=int)), [1.0, z[1], 0.0])
    assert hamalg.monomials(z, np.zeros((0, 2), dtype=int),
                            np.zeros((0, 2), dtype=int)).shape == (0,)


def test_monomials_match_the_power_products_on_stacks():
    # monomials multiplies mode by mode; it agrees to rounding with the
    # products over the mode axis, for one exponent pair, a table and a
    # stack of states against a table
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        z = rng.standard_normal((9, 1, n)) + 1j * rng.standard_normal((9, 1, n))
        mu, nu = rng.integers(0, 5, (6, n)), rng.integers(0, 5, (6, n))
        for zs, m, v in ((z[0, 0], mu[0], nu[0]), (z[0, 0], mu, nu), (z, mu, nu)):
            want = (zs ** m).prod(axis=-1) * (np.conj(zs) ** v).prod(axis=-1)
            got = hamalg.monomials(zs, m, v)
            assert np.shape(got) == np.shape(want)
            assert_allclose(got, want, rtol=1e-14, atol=0)


def test_monomials_modulus_is_that_of_the_total_exponent():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    amp = st.floats(-1.5, 1.5)
    row = st.tuples(st.integers(0, 4), st.integers(0, 4))

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(z=st.tuples(amp, amp, amp, amp), mu=row, nu=row)
    def check(z, mu, nu):
        zc = np.array([complex(z[0], z[1]), complex(z[2], z[3])])
        lhs = abs(hamalg.monomials(zc, mu, nu)) ** 2
        rhs = float(np.prod(np.abs(zc) ** (np.array(mu) + np.array(nu)))) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    check()


def test_mirror_is_an_involution():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(t=_term_strategy(hyp.strategies))
    def check(t):
        assert _same_term(t.mirror().mirror(), t)

    check()


def test_merged_is_idempotent():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def merged_twice(terms):
        once = HamExpansion(terms).merged()
        twice = once.merged()
        assert len(twice) == len(once)
        assert all(_same_term(s, t) for s, t in zip(once, twice))
        return once

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(terms=st.lists(_term_strategy(st), max_size=12))
    def check(terms):
        merged_twice(terms)

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(t=_term_strategy(st))
    def check_copy(t):
        # a term next to a copy of itself whose factor vectors are new arrays
        # with the same content: merging goes by content, so one term remains
        copy = HamTerm(t.coeff, t.m, t.mu, t.nu, tuple(v.copy() for v in t.alphas),
                       tuple(v.copy() for v in t.betas), t.a, t.b,
                       t.tail if t.tail is None or t.tail is QUARTIC else t.tail.copy())
        once = merged_twice([t, copy])
        summed = HamExpansion([t.scaled(2.0)]).merged()
        assert len(once) == len(summed)
        assert all(_same_term(s, u) for s, u in zip(once, summed))

    check()
    check_copy()


def test_merged_matches_the_term_by_term_reference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(terms=st.lists(_term_strategy(st), max_size=12), data=st.data())
    def check(terms, data):
        # negated copies make sums cancel, linear ones included
        if terms:
            terms = terms + [t.scaled(-1.0) for t in
                             data.draw(st.lists(st.sampled_from(terms), max_size=4))]
        raw = [(t.coeff, t.m, t.mu, t.nu, t.alphas, t.betas, t.a, t.b, t.tail) for t in terms]
        want = lie_reference._merge(raw, lie_reference._digester(terms))
        assert _exact(HamExpansion(terms).merged()) == _exact(HamExpansion(want))

    check()


def test_expansion_records_round_trip():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    # through JSON text and an npz archive, as save_expansion writes them
    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(terms=st.lists(_term_strategy(st), max_size=8))
    def check(terms):
        records, vectors = hamalg.expansion_to_records(HamExpansion(terms))
        buf = io.BytesIO()
        np.savez(buf, **vectors)
        buf.seek(0)
        with np.load(buf) as npz:
            back = oracles.expansion_from_records(json.loads(json.dumps(records)), dict(npz))
        assert len(back) == len(terms)
        assert all(_same_term(s, t) for s, t in zip(back, terms))

    check()
