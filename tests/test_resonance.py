import itertools

import numpy as np
import pytest

import oracles
from nlsnf import resonance
from nlsnf.errors import ConfigError, HypothesisViolation
from nlsnf.resonance import (
    build_index_sets,
    check_hypotheses,
    resonance_budget,
)


def test_budget_poschl_teller():
    b = resonance_budget(np.array([0.0, 0.7]), 0.7875)
    assert b.n_j == [1]
    assert b.floor_c == 0
    assert b.big_n == 1


def test_budget_small_lambda():
    b = resonance_budget(np.array([0.0, 0.3]), 0.7)
    assert b.n_j == [2]
    assert b.big_n == 2


def test_budget_boundary_case_errors():
    with pytest.raises(HypothesisViolation):
        resonance_budget(np.array([0.0, 0.35]), 0.7)  # 2 * 0.35 = c exactly


def test_budget_floor_dominates():
    # single mode, c > 1: N = [c]
    b = resonance_budget(np.array([0.0]), 2.3)
    assert b.n_j == []
    assert b.big_n == 2


def test_hypotheses_clean_pt():
    lam = np.array([0.0, 0.7])
    c = 0.7875
    b = resonance_budget(lam, c)
    rep = check_hypotheses(lam, c, b)
    assert rep.h5_ok and rep.h7_ok and rep.h8_ok
    assert rep.all_ok


def test_h5_violation():
    lam = np.array([0.0])
    b = resonance_budget(lam, 1.0 + 1e-12)
    rep = check_hypotheses(lam, 1.0 + 1e-12, b)
    assert not rep.h5_ok


def test_h8_violation_witness():
    # lambda_1 = 2.0, c = 2.25: mu_1 = 1, m = -2 solves mu.lambda + m = 0
    lam = np.array([0.0, 2.0])
    b = resonance_budget(lam, 2.25)
    rep = check_hypotheses(lam, 2.25, b)
    assert not rep.h8_ok
    hits = [(w["mu"], w["m"]) for w in rep.witnesses["h8"]]
    assert ((1,), -2) in hits


def test_h7_h8_enumeration_vs_direct():
    # direct scan at small ranges reproduces the verdicts
    lam = np.array([0.0, 0.7])
    c = 0.7875
    b = resonance_budget(lam, c)
    rep = check_hypotheses(lam, c, b)
    n_big = b.big_n
    ok7 = all(
        abs(m1 * 0.7 + m - c) > 1e-9
        for m0 in range(-(2 * n_big + 1), 2 * n_big + 2)
        for m1 in range(-(2 * n_big + 1) + abs(m0), 2 * n_big + 2 - abs(m0))
        for m in range(-n_big, n_big + 1)
    )
    assert rep.h7_ok == ok7
    ok8 = all(
        not (abs(mu * 0.7 + m) < 1e-9 and (mu, m) != (0, 0))
        for mu in range(-(4 * n_big + 2), 4 * n_big + 3)
        for m in range(-2 * n_big, 2 * n_big + 1)
    )
    assert rep.h8_ok == ok8


# --- catalog -----------------------------------------------------------------


def brute_force_big_m(lam, c, big_n):
    """Independent naive enumerator of bigM."""
    n = len(lam)
    out = []
    for smu in range(0, big_n + 1):
        for mu in itertools.product(range(smu + 1), repeat=n):
            if sum(mu) != smu:
                continue
            for nu in itertools.product(range(smu + 2), repeat=n):
                if sum(nu) != smu + 1:
                    continue
                for m in range(-smu, smu + 1):
                    if float(np.dot(lam, np.array(mu) - np.array(nu))) - m < -c:
                        out.append((m, mu, nu))
    return sorted(out)


def brute_force_minimal(big_m):
    out = []
    for (m, mu, nu) in big_m:
        dominated = False
        for (m2, a, b) in big_m:
            if m2 != m or (a, b) == (mu, nu):
                continue
            if all(x <= y for x, y in zip(a, mu)) and all(x <= y for x, y in zip(b, nu)):
                dominated = True
        if not dominated:
            out.append((m, mu, nu))
    return sorted(out)


@pytest.fixture(scope="module")
def pt_sets():
    lam = np.array([0.0, 0.7])
    c = 0.7875
    b = resonance_budget(lam, c)
    rep = check_hypotheses(lam, c, b)
    cat = build_index_sets(lam, c, b, rep)
    return lam, c, b, cat


def test_big_m_membership_examples(pt_sets):
    lam, c, b, cat = pt_sets
    keys = [(t.m, t.mu, t.nu) for t in cat.big_m]
    assert (1, (0, 1), (0, 2)) in keys       # -0.7 - 1 = -1.7 < -0.7875
    assert (0, (0, 0), (0, 1)) not in keys   # -0.7 >= -0.7875


def test_brute_force_equivalence(pt_sets):
    lam, c, b, cat = pt_sets
    got = sorted((t.m, t.mu, t.nu) for t in cat.big_m)
    assert got == brute_force_big_m(lam, c, b.big_n)
    got_min = sorted((t.m, t.mu, t.nu) for t in cat.minimal)
    assert got_min == brute_force_minimal(brute_force_big_m(lam, c, b.big_n))


def test_brute_force_equivalence_other_spectra():
    for lam, c in [(np.array([0.0, 0.3]), 0.7),
                   (np.array([0.0, 0.33, 0.54]), 0.95)]:
        b = resonance_budget(lam, c)
        rep = check_hypotheses(lam, c, b)
        if not rep.all_ok:
            continue
        cat = build_index_sets(lam, c, b, rep)
        got = sorted((t.m, t.mu, t.nu) for t in cat.big_m)
        assert got == brute_force_big_m(lam, c, b.big_n)
        got_min = sorted((t.m, t.mu, t.nu) for t in cat.minimal)
        assert got_min == brute_force_minimal(got)


def test_bijection_m_to_mprime(pt_sets):
    _, _, _, cat = pt_sets
    assert len(cat.minimal) == len(cat.minimal_prime)
    image = {(t.m, t.mu, t.nu) for t in cat.minimal_prime}
    for t in cat.minimal:
        assert (-t.m, t.nu, t.mu) in image
    # and on the big sets
    image_big = {(t.m, t.mu, t.nu) for t in cat.big_m_prime}
    assert {( -t.m, t.nu, t.mu) for t in cat.big_m} == image_big


def test_minimality_no_comparable_pairs(pt_sets):
    _, _, _, cat = pt_sets
    for t in cat.minimal:
        for s in cat.minimal:
            if s is t or s.m != t.m:
                continue
            le = (all(a <= b for a, b in zip(s.mu, t.mu))
                  and all(a <= b for a, b in zip(s.nu, t.nu)))
            assert not le or (s.mu, s.nu) == (t.mu, t.nu)


@pytest.mark.parametrize("block", [resonance._DOMINANCE_BLOCK, 5], ids=["default", "five"])
def test_minimality_sweep_matches_the_pairwise_oracle(block, monkeypatch):
    # M, M', X and the partition {M_w} of the per-m array sweep are those of
    # the pairwise sweep, on random spectra with one and two positive
    # eigenvalues; a block of 5 pairs splits each run of equal m over blocks
    monkeypatch.setattr(resonance, "_DOMINANCE_BLOCK", block)
    rng = np.random.default_rng(42)
    cases = 0
    while cases < 6:
        n = int(rng.integers(1, 3))
        lam = np.concatenate(([0.0], np.sort(rng.uniform(0.3, 1.0, n))))
        c = float(rng.uniform(lam[-1] + 0.05, (4.0 if n == 2 else 8.0) * lam[1]))
        try:
            budget = resonance_budget(lam, c)
            report = check_hypotheses(lam, c, budget)
            got = build_index_sets(lam, c, budget, report)
        except HypothesisViolation:
            continue
        with monkeypatch.context() as mp:
            mp.setattr(resonance, "_minimal_of", oracles.minimal_of_pairwise)
            want = build_index_sets(lam, c, budget, report)
        assert len(got.minimal) < len(got.big_m)
        assert got.minimal == want.minimal and got.minimal_prime == want.minimal_prime
        assert got.x_values == want.x_values and got.m_w == want.m_w
        cases += 1


def test_x_values_above_threshold(pt_sets):
    _, c, _, cat = pt_sets
    assert all(w > c for w in cat.x_values)
    assert cat.min_gap > 0
    assert cat.min_gap == pytest.approx(min(cat.x_values) - c)


def test_m_w_constancy(pt_sets):
    lam, _, _, cat = pt_sets
    for w, members in cat.m_w.items():
        ms = {t.m for t in members}
        freqs = {round(float(lam @ (np.array(t.mu) - np.array(t.nu))), 9) for t in members}
        assert len(ms) == 1 and len(freqs) == 1


def test_pt_expected_catalog(pt_sets):
    # hand enumeration for lambda = (0, 0.7), c = 0.7875, N = 1
    _, _, _, cat = pt_sets
    keys = sorted((t.m, t.mu, t.nu) for t in cat.big_m)
    assert keys == sorted([
        (1, (1, 0), (2, 0)), (1, (1, 0), (1, 1)), (1, (1, 0), (0, 2)),
        (0, (1, 0), (0, 2)), (1, (0, 1), (1, 1)), (1, (0, 1), (0, 2)),
    ])
    # all incomparable, so M = bigM; X = {1.0, 1.4, 1.7, 2.4}
    assert len(cat.minimal) == 6
    assert [round(w, 6) for w in cat.x_values] == [1.0, 1.4, 1.7, 2.4]
    assert len(cat.m_w[1.0]) == 2 and len(cat.m_w[1.7]) == 2


def test_refuses_dirty_h8():
    lam = np.array([0.0, 2.0])
    c = 2.25
    b = resonance_budget(lam, c)
    rep = check_hypotheses(lam, c, b)
    with pytest.raises(HypothesisViolation):
        build_index_sets(lam, c, b, rep)


def test_catalog_report_text(pt_sets):
    lam, c, b, cat = pt_sets
    rep = check_hypotheses(lam, c, b)
    text = resonance.catalog_report(cat, b, rep)
    assert "N = 1" in text
    assert "minimal" in text


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_enumeration_sizes_are_the_loop_counts(k):
    # the closed forms the limit is checked on, against the enumerations
    for r in range(7):
        assert resonance._signed_count(k, r) == sum(
            1 for _ in resonance._signed_multiindices(k, r))
        if k:
            assert resonance._catalog_count(k, r) == sum(
                2 * s + 1 for s in range(r + 1)
                for _ in resonance._nonneg_multiindices(k, s)
                for _ in resonance._nonneg_multiindices(k, s + 1))


def test_enumeration_limit_is_checked_before_each_loop(monkeypatch):
    # N = 1: (H7) and (H8) visit 75 + 65 pairs, the catalog loop 20; each
    # runs at its own count and is refused one below it
    lam, c = np.array([0.0, 0.7]), 0.7875
    budget = resonance_budget(lam, c)
    monkeypatch.setattr(resonance, "MAX_ENUMERATION", 140)
    report = check_hypotheses(lam, c, budget)
    monkeypatch.setattr(resonance, "MAX_ENUMERATION", 139)
    with pytest.raises(ConfigError, match=r"budget N = 1: \(H7\) and \(H8\) would enumerate 140 "):
        check_hypotheses(lam, c, budget)
    monkeypatch.setattr(resonance, "MAX_ENUMERATION", 20)
    assert len(build_index_sets(lam, c, budget, report).minimal) == 6
    monkeypatch.setattr(resonance, "MAX_ENUMERATION", 19)
    with pytest.raises(ConfigError, match="budget N = 1: the catalog would enumerate 20 "):
        build_index_sets(lam, c, budget, report)
