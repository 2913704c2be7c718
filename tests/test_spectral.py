import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from nlsnf import spectral
from nlsnf.errors import (
    BoundaryDecayError,
    ConfigError,
    EmptySpectrumError,
    GridMismatchError,
    NumericalError,
    SingularResolventError,
)


def test_grid_invariants():
    grid = spectral.GridSpec(l_box=40.0, m_pts=2048)
    assert grid.h == pytest.approx(80.0 / 2048)
    assert len(grid.x) == 2048
    with pytest.raises(ValueError):
        spectral.GridSpec(m_pts=100)   # not a power of two
    with pytest.raises(ValueError):
        spectral.GridSpec(m_pts=32)


def test_kinetic_matrix_is_the_fft_symbol_on_the_identity():
    # the dense kinetic matrix against the symbol k^2 applied to each unit
    # vector by FFT (the construction of the benchmark's continuum oracle)
    grid = spectral.GridSpec(l_box=10.0, m_pts=64)
    eye = np.eye(grid.m_pts)
    kin = np.fft.ifft(grid.k[:, None] ** 2 * np.fft.fft(eye, axis=0), axis=0).real
    want = 0.5 * (kin + kin.T)
    got = spectral.kinetic_matrix(grid)
    assert got.shape == want.shape and np.array_equal(got, got.T)
    assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_free_potential_has_no_bound_state(pt_grid):
    with pytest.raises(EmptySpectrumError, match="empty discrete spectrum"):
        spectral.build_operator(pt_grid, np.zeros(pt_grid.m_pts))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_potential_is_refused_before_the_solve(bad):
    # one bad sample at x = 0 (grid point 128), not the empty spectrum or
    # the delocalized ground state that a solve on it reports
    grid = spectral.GridSpec(l_box=30.0, m_pts=256)
    v = spectral.poschl_teller(grid.x)
    v[128] = bad
    with pytest.raises(ConfigError, match=r"at grid point 128 \(x = 0\)"):
        spectral.build_operator(grid, v)


@pytest.mark.parametrize("m_pts", [64, 512, 1000, 2048])
def test_eigh_gufunc_in_place_is_np_linalg_eigh(m_pts):
    # build_operator calls numpy.linalg._umath_linalg.eigh_lo, the gufunc of
    # np.linalg.eigh, with the matrix as the eigenvector output; the bits
    # must be np.linalg.eigh's.  The kinetic + Poschl-Teller matrix on
    # L = 40, built from the FFT symbol k^2 so that M need not be a power of 2
    from numpy.linalg import _umath_linalg

    assert spectral._eigh_lo is _umath_linalg.eigh_lo
    h = 80.0 / m_pts
    col = np.fft.ifft((2.0 * np.pi * np.fft.fftfreq(m_pts, d=h)) ** 2).real
    gap = np.subtract.outer(np.arange(m_pts), np.arange(m_pts)) % m_pts
    mat = 0.5 * (col[gap] + col[gap.T])
    mat[np.diag_indices(m_pts)] += spectral.poschl_teller(-40.0 + h * np.arange(m_pts))
    want_vals, want_vecs = np.linalg.eigh(mat)
    vals, vecs = spectral._eigh_lo(mat, signature="d->dd", out=(np.empty(m_pts), mat))
    assert vecs is mat
    assert vals.tobytes() == want_vals.tobytes()
    assert vecs.tobytes() == want_vecs.tobytes()


def test_build_operator_holds_one_matrix():
    # the eigenvectors overwrite the matrix of -Delta + V: one M x M array of
    # doubles is traced (LAPACK's workspace is not), where a new eigenvector
    # array would make two
    import tracemalloc

    grid = spectral.GridSpec(l_box=40.0, m_pts=1024)
    v = spectral.poschl_teller(grid.x)
    tracemalloc.start()
    try:
        spectral.build_operator(grid, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * grid.m_pts ** 2 * 8, f"build_operator peaked at {peak} bytes"


def test_non_finite_eigenvalues_raise_numerical_error(pt_grid, monkeypatch):
    # where np.linalg.eigh raises LinAlgError, its gufunc returns NaN
    def failed_solve(a, signature, out):
        for arr in out:
            arr[...] = np.nan
        return out

    monkeypatch.setattr(spectral, "_eigh_lo", failed_solve)
    with pytest.raises(NumericalError, match="non-finite eigenvalues"):
        spectral.build_operator(pt_grid, spectral.poschl_teller(pt_grid.x))


def test_poschl_teller_levels(pt_model):
    # closed form: levels -kappa^2 (a - k)^2, a = 1.5, kappa^2 = 0.35
    assert pt_model.c == pytest.approx(0.7875, abs=1e-4)
    assert len(pt_model.lam) == 2
    assert pt_model.lam[0] == 0.0
    assert pt_model.lam[1] == pytest.approx(0.7, abs=1e-4)
    assert np.all(pt_model.lam < pt_model.c)


def test_reflectionless_well_single_level(pt_grid):
    v = spectral.sech2_well(pt_grid.x, depth=2.0)
    model = spectral.build_operator(pt_grid, v)
    assert len(model.lam) == 1
    assert model.c == pytest.approx(1.0, abs=1e-4)


def test_boundary_decay_enforced():
    grid = spectral.GridSpec(l_box=40.0, m_pts=2048)
    v = spectral.gaussian_well(grid.x, depth=1.0, width=20.0)  # too wide
    with pytest.raises(BoundaryDecayError):
        spectral.build_operator(grid, v)


def test_eigenpair_quality(pt_model):
    h = pt_model.grid.h
    gram = h * (pt_model.phi @ pt_model.phi.T)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-10
    for j in range(2):
        res = pt_model.apply_h(pt_model.phi[j]) - pt_model.lam[j] * pt_model.phi[j]
        assert spectral.l2_norm(res, h) < 1e-9
        # sign convention: largest-magnitude component positive
        i = np.argmax(np.abs(pt_model.phi[j]))
        assert pt_model.phi[j][i] > 0


# ---------------------------------------------------------------------------
# bound states without the dense basis, against the dense oracle


def _assert_same_bound_states(dense, grid, v):
    """`bound_states` finds the bound states of the dense model: the same
    count, lambda and c within 1e-12, phi within 1e-10 up to sign."""
    got = spectral.bound_states(grid, v)
    assert not isinstance(got, spectral.OperatorModel)
    assert len(got.lam) == len(dense.lam)
    assert abs(got.c - dense.c) <= 1e-12
    assert got.lam[0] == 0.0
    assert_allclose(got.lam, dense.lam, rtol=0, atol=1e-12)
    for mine, theirs in zip(got.phi, dense.phi):
        assert min(np.max(np.abs(mine - theirs)), np.max(np.abs(mine + theirs))) <= 1e-10
    assert got.iterations > 0 and dense.iterations is None
    assert 0.0 < got.residual <= spectral.TOL_EIG_RESIDUAL
    return got


PRESET_CASES = {
    "poschl_teller": ("poschl_teller", {}),
    "poschl_teller-3": ("poschl_teller", {"a": 2.5, "kappa2": 0.2}),
    "gaussian_well": ("gaussian_well", {"depth": 2.0, "width": 1.5}),
    "sech2_well": ("sech2_well", {}),
    # nine bound states: the block doubles twice
    "gaussian_well-9": ("gaussian_well", {"depth": 8.0, "width": 3.0}),
}


@pytest.mark.parametrize("case", PRESET_CASES)
def test_bound_states_match_the_dense_model_on_the_presets(case):
    name, params = PRESET_CASES[case]
    grid = spectral.GridSpec(l_box=40.0, m_pts=512)
    v = spectral.potential_from_preset(grid, name, **params)
    _assert_same_bound_states(spectral.build_operator(grid, v), grid, v)


def test_bound_states_match_the_dense_desk_model(pt_model):
    _assert_same_bound_states(pt_model, pt_model.grid, pt_model.v)


def test_bound_states_match_the_small_clean_models(small_clean_models):
    for model, _ in small_clean_models:
        _assert_same_bound_states(model, model.grid, model.v)


def test_bound_states_find_three_modes():
    grid = spectral.GridSpec(l_box=30.0, m_pts=256)
    v = spectral.gaussian_well(grid.x, depth=1.6, width=2.0)
    got = _assert_same_bound_states(spectral.build_operator(grid, v), grid, v)
    assert got.n == 2


def test_bound_states_skip_the_box_mode_below_c_as_the_dense_path_does():
    # three energies below c; the third touches the box edge and is skipped
    grid = spectral.GridSpec(l_box=30.0, m_pts=256)
    v = spectral.gaussian_well(grid.x, depth=3.4, width=1.2)
    dense = spectral.build_operator(grid, v)
    assert dense.n == 1 and dense.mode_energies[2] < dense.c
    assert spectral._edge_fraction(np.abs(dense._evecs[:, 2])) >= spectral.EDGE_LOCALIZATION
    _assert_same_bound_states(dense, grid, v)


def test_bound_states_of_a_potential_csv_that_is_not_even(tmp_path):
    grid = spectral.GridSpec(l_box=30.0, m_pts=256)
    xs = np.linspace(-31.0, 31.0, 2001)
    samples = (spectral.gaussian_well(xs - 2.0, depth=1.5, width=1.0)
               + spectral.gaussian_well(xs + 3.0, depth=0.8, width=1.5))
    np.savetxt(tmp_path / "v.csv", np.column_stack([xs, samples]), delimiter=",")
    v = spectral.potential_from_csv(grid, tmp_path / "v.csv")
    assert np.max(np.abs(v[1:] - v[1:][::-1])) > 0.1     # x_j <-> x_{M-j}
    _assert_same_bound_states(spectral.build_operator(grid, v), grid, v)


def _bad_inputs():
    grid = spectral.GridSpec(l_box=30.0, m_pts=256)
    nan = spectral.poschl_teller(grid.x)
    nan[128] = np.nan
    wide = spectral.GridSpec(l_box=40.0, m_pts=256)
    return {
        "non-finite": (grid, nan),
        "boundary-decay": (wide, spectral.gaussian_well(wide.x, depth=1.0, width=20.0)),
        "grid-shape": (grid, spectral.poschl_teller(grid.x)[:-1]),
        "free": (grid, np.zeros(grid.m_pts)),
        # bound, but the ground state reaches the box edge
        "delocalized": (grid, spectral.gaussian_well(grid.x, depth=0.01, width=2.0)),
    }


BAD_INPUT_ERRORS = {"non-finite": ConfigError, "boundary-decay": BoundaryDecayError,
                    "grid-shape": GridMismatchError, "free": EmptySpectrumError,
                    "delocalized": EmptySpectrumError}


@pytest.mark.parametrize("case", BAD_INPUT_ERRORS)
def test_bound_states_refuse_what_the_dense_path_refuses(case):
    grid, v = _bad_inputs()[case]
    with pytest.raises(BAD_INPUT_ERRORS[case]) as dense:
        spectral.build_operator(grid, v)
    with pytest.raises(BAD_INPUT_ERRORS[case], match=re.escape(str(dense.value))):
        spectral.bound_states(grid, v)


def test_bound_states_refuse_a_block_over_a_quarter_of_the_grid():
    # eleven eigenvalues below the threshold on 64 points: the block would
    # grow to 16 + 2 vectors
    grid = spectral.GridSpec(l_box=10.0, m_pts=64)
    with pytest.raises(NumericalError, match="more than M/4 = 16 vectors"):
        spectral.bound_states(grid, spectral.gaussian_well(grid.x, depth=100.0, width=1.0))


def test_bound_states_are_reproducible():
    grid = spectral.GridSpec(l_box=40.0, m_pts=512)
    v = spectral.poschl_teller(grid.x)
    first, second = spectral.bound_states(grid, v), spectral.bound_states(grid, v)
    assert first.c == second.c and first.lam.tobytes() == second.lam.tobytes()
    assert first.phi.tobytes() == second.phi.tobytes()


def test_bound_states_hold_no_m_by_m_matrix():
    # the block is 6 rows and its search space 18; the dense path holds at
    # least the M x M matrix (33.5 MB here).  A first call in a fresh
    # process peaked at 2.3 MB
    import tracemalloc

    grid = spectral.GridSpec(l_box=40.0, m_pts=2048)
    v = spectral.poschl_teller(grid.x)
    tracemalloc.start()
    try:
        spectral.bound_states(grid, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.m_pts ** 2 * 8 / 8, f"bound_states peaked at {peak} bytes"


def test_project_modes_eigenvector(pt_model):
    state = spectral.project_modes(pt_model.phi[0].astype(complex), pt_model)
    assert_allclose(state.z, [1.0, 0.0], atol=1e-12)
    assert spectral.l2_norm(state.f, pt_model.grid.h) < 1e-10


def test_project_modes_zero(pt_model):
    state = spectral.project_modes(np.zeros(pt_model.grid.m_pts, dtype=complex), pt_model)
    assert np.all(state.z == 0)
    assert np.all(state.f == 0)


def test_project_modes_parseval_and_reconstruction(pt_model):
    rng = np.random.default_rng(0)
    h = pt_model.grid.h
    for _ in range(5):
        u = rng.standard_normal(pt_model.grid.m_pts) * np.exp(-pt_model.grid.x ** 2 / 50)
        u = u + 1j * rng.standard_normal(pt_model.grid.m_pts) * np.exp(-pt_model.grid.x ** 2 / 50)
        state = spectral.project_modes(u, pt_model)
        # Parseval through the quadrature pairing
        total = np.sum(np.abs(state.z) ** 2) + spectral.l2_norm(state.f, h) ** 2
        assert total == pytest.approx(spectral.l2_norm(u, h) ** 2, rel=1e-10)
        # P_d f below 1e-10 relative
        assert (np.linalg.norm(pt_model.bound_weights(state.f))
                <= 1e-10 * spectral.l2_norm(state.f, h))
        back = state.z @ pt_model.phi + state.f
        assert spectral.l2_norm(back - u, h) <= 1e-12 * spectral.l2_norm(u, h)


def _probe_vectors(model, k, seed):
    """k smooth localized complex vectors, stacked along the first axis."""
    rng = np.random.default_rng(seed)
    x = model.grid.x
    env = np.exp(-x ** 2 / 50.0)
    return env * (rng.standard_normal((k, len(x))) + 1j * rng.standard_normal((k, len(x))))


def test_mode_transforms_match_complex_reference(pt_model):
    # reference: the real eigenbasis cast to complex, one vector at a time
    evecs = pt_model._evecs.astype(complex)
    sqh = np.sqrt(pt_model.grid.h)
    stack = _probe_vectors(pt_model, 3, seed=21)
    for vec in (stack[0].real, stack[0], stack):
        want = np.stack([sqh * (evecs.T @ v) for v in np.atleast_2d(vec)])
        got = pt_model.mode_coeffs(vec)
        assert got.shape == vec.shape
        assert np.iscomplexobj(got) == np.iscomplexobj(vec)
        assert_allclose(np.atleast_2d(got), want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
        want = np.stack([(evecs @ c) / sqh for c in np.atleast_2d(vec)])
        got = pt_model.from_mode_coeffs(vec)
        assert got.shape == vec.shape
        assert_allclose(np.atleast_2d(got), want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def test_mode_transforms_round_trip(pt_model):
    stack = _probe_vectors(pt_model, 4, seed=22)
    for vec in (stack[1], stack):
        back = pt_model.from_mode_coeffs(pt_model.mode_coeffs(vec))
        assert_allclose(back, vec, rtol=0, atol=1e-12 * np.max(np.abs(vec)))


@pytest.mark.parametrize("m_pts", [256, 512])
def test_free_basis_is_an_eigenbasis(m_pts):
    # orthonormal columns that diagonalize the kinetic matrix, with energies
    # k^2 + c listed ascending, +k before -k as in FFT order; a Nyquist
    # column that is a sine (zero on the grid) fails the orthonormality
    grid = spectral.GridSpec(l_box=40.0, m_pts=m_pts)
    model = oracles.free_operator(grid, c=0.3)
    basis, e = model._evecs, model.mode_energies
    assert np.all(np.diff(e) >= 0.0)
    assert np.array_equal(e, grid.k[np.argsort(grid.k ** 2, kind="stable")] ** 2 + 0.3)
    # the lowest level pair: cos(k_1 x) (FFT index 1), then sin(k_1 x) (index M - 1)
    k1, x = grid.k[1], grid.x
    assert_allclose(basis[:, 1] * np.sqrt(m_pts / 2), np.cos(k1 * x), rtol=0, atol=1e-12)
    assert_allclose(basis[:, 2] * np.sqrt(m_pts / 2), np.sin(k1 * x), rtol=0, atol=1e-12)
    assert np.max(np.abs(basis.T @ basis - np.eye(m_pts))) <= 1e-12
    residual = spectral.kinetic_matrix(grid) @ basis - basis * (e - 0.3)
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(e)


def test_stacked_density_gram_matches_per_packet_grams(pt_model):
    # one stacked transform of three packets gives the Gram of each pair
    phis = _probe_vectors(pt_model, 3, seed=24)
    w = pt_model.c + 1.1
    full = spectral.density_gram(pt_model, w, phis)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        pair = spectral.density_gram(pt_model, w, [phis[a], phis[b]])
        assert_allclose(full[np.ix_([a, b], [a, b])], pair, rtol=0,
                        atol=1e-13 * np.max(np.abs(full)))


def test_stacked_basis_product_rounds_as_two_real_products(pt_model):
    # a stack of two or more complex rows takes one product over [re; im];
    # each row must come out bit for bit as the separate real products give it
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    basis = pt_model._evecs

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(rows=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1),
               transposed=st.booleans())
    def check(rows, seed, transposed):
        b = basis.T if transposed else basis
        vec = _probe_vectors(pt_model, rows, seed)
        got = spectral._real_basis_product(vec, b)
        assert got.shape == vec.shape
        assert got.real.tobytes() == (vec.real @ b).tobytes()
        assert got.imag.tobytes() == (vec.imag @ b).tobytes()

    check()


def test_single_row_basis_product_keeps_two_vector_products(pt_model):
    # one row as a two-row product would round differently, so a 1-D vector
    # and a one-row stack keep the two matrix-vector products
    vec = _probe_vectors(pt_model, 1, seed=27)
    for v in (vec[0], vec):
        for b in (pt_model._evecs, pt_model._evecs.T):
            got = spectral._real_basis_product(v, b)
            assert got.shape == v.shape
            assert got.real.tobytes() == (v.real @ b).tobytes()
            assert got.imag.tobytes() == (v.imag @ b).tobytes()


def _fresh(model):
    """The same operator with empty memos."""
    return dataclasses.replace(model)


def test_stacked_mode_coeffs_equal_the_single_rows(pt_model):
    # a row's coefficients do not depend on what it is stacked with
    stack = _probe_vectors(pt_model, 4, seed=29)
    for rows in (stack, stack.real):
        singles = _fresh(pt_model)
        want = [singles.mode_coeffs(row).tobytes() for row in rows]
        got = _fresh(pt_model).mode_coeffs(rows)
        assert got.shape == rows.shape and got.dtype == singles.mode_coeffs(rows[0]).dtype
        assert [row.tobytes() for row in got] == want


def test_mode_coeffs_share_a_part_with_its_negation(pt_model):
    model = _fresh(pt_model)
    vec = _probe_vectors(pt_model, 1, seed=30)[0]
    coeffs = model.mode_coeffs(vec)
    assert np.array_equal(model.mode_coeffs(np.conj(vec)), np.conj(coeffs))
    assert np.array_equal(model.mode_coeffs(-vec.real), -model.mode_coeffs(vec.real))
    # four parts, two memo entries: the products were shared, and they give
    # what a model that never saw the vector gives
    assert len(model._coeffs._items) == 2
    assert np.array_equal(model.mode_coeffs(np.conj(vec)),
                          _fresh(pt_model).mode_coeffs(np.conj(vec)))


def test_negated_memo_entry_keeps_the_sign_of_a_cancelled_zero():
    # on a Hadamard basis the ones vector has every coefficient but the first
    # exactly zero, a sum that cancels, which a fresh product gives as +0.0
    grid = spectral.GridSpec(l_box=10.0, m_pts=64)
    basis = np.array([[1.0]])
    for _ in range(6):
        basis = np.block([[basis, basis], [basis, -basis]])

    def model():
        return spectral.OperatorModel(
            grid=grid, v=np.zeros(64), c=0.0, lam=np.zeros(1), phi=np.zeros((1, 64)),
            mode_energies=np.arange(64.0), _evecs=basis / 8.0)

    ones = np.ones(64)
    for first, second in ((ones, -ones), (-ones, ones)):
        warm = model()
        warm.mode_coeffs(first)
        got = warm.mode_coeffs(second)
        assert got.tobytes() == model().mode_coeffs(second).tobytes()
        assert not np.signbit(got[1:]).any()


def test_mode_coeffs_memo_hit_returns_the_fresh_bytes(pt_model):
    vec = _probe_vectors(pt_model, 1, seed=31)[0]
    warm = _fresh(pt_model)
    first = warm.mode_coeffs(vec).tobytes()
    fresh = spectral.OperatorModel(
        grid=pt_model.grid, v=pt_model.v, c=pt_model.c, lam=pt_model.lam, phi=pt_model.phi,
        mode_energies=pt_model.mode_energies, _evecs=pt_model._evecs)
    assert warm.mode_coeffs(vec).tobytes() == first == fresh.mode_coeffs(vec).tobytes()


def test_writing_into_mode_coeffs_leaves_later_results(pt_model):
    model = _fresh(pt_model)
    vec = _probe_vectors(pt_model, 2, seed=32)
    for v in (vec, vec[0], vec[0].real):
        want = model.mode_coeffs(v).tobytes()
        model.mode_coeffs(v)[...] = 7.0
        assert model.mode_coeffs(v).tobytes() == want


def test_mode_coeffs_memo_stays_within_its_bound(pt_model, monkeypatch):
    m = pt_model.grid.m_pts
    bound = 5 * 8 * m + 100     # five real parts
    monkeypatch.setattr(spectral, "_MEMO_BYTES", bound)
    model = _fresh(pt_model)
    rows = _probe_vectors(pt_model, 6, seed=33)     # twelve distinct parts
    got = model.mode_coeffs(rows)
    assert model._coeffs.held <= bound and len(model._coeffs._items) == 5
    assert model._coeffs.held == sum(v.nbytes for v, _ in model._coeffs._items.values())
    # the oldest went first: the last rows are held, the first is computed again
    assert model.mode_coeffs(rows[0]).tobytes() == got[0].tobytes()


def test_continuum_forms_read_the_same_bytes_on_a_warm_model(pt_model):
    phis = list(_probe_vectors(pt_model, 3, seed=34))
    w = pt_model.c + 1.3
    calls = {
        "resolvent_limit": lambda m: spectral.resolvent_limit(m, w, phis[0]),
        "resolvent_limit -": lambda m: spectral.resolvent_limit(m, w, np.conj(phis[0]), "-"),
        "spectral_density_form": lambda m: np.array(
            spectral.spectral_density_form(m, w, phis[1])),
        "density_gram lap": lambda m: spectral.density_gram(m, w, phis, estimator="lap"),
        "pv_gram": lambda m: spectral.pv_gram(m, w, phis),
    }
    warm = _fresh(pt_model)
    for call in calls.values():
        call(warm)
    for name, call in calls.items():
        assert call(warm).tobytes() == call(_fresh(pt_model)).tobytes(), name


def test_minus_side_is_the_conjugate_of_the_plus_side(pt_model):
    # R(w - i0) b = conj(R(w + i0) conj(b)) bit for bit, on a model that has
    # solved neither, and within 1e-12 of the '-' side extrapolated from its
    # own solves
    phis = _probe_vectors(pt_model, 2, seed=36)
    for gap, b in ((0.4, phis[0]), (1.7, phis[1]), (2.6, phis[0].real.astype(complex))):
        w = pt_model.c + gap
        got = spectral.resolvent_limit(_fresh(pt_model), w, b, "-")
        plus = spectral.resolvent_limit(_fresh(pt_model), w, np.conj(b), "+")
        assert got.tobytes() == np.conj(plus).tobytes()
        want = oracles.resolvent_limit_direct(_fresh(pt_model), w, b, "-")
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_boundary_value_memo_stays_within_its_bound(pt_model, monkeypatch):
    # three boundary values fit under the bound; a fourth drops the first
    m = pt_model.grid.m_pts
    bound = 3 * 16 * m + 100
    monkeypatch.setattr(spectral, "_MEMO_BYTES", bound)
    model = _fresh(pt_model)
    phis = _probe_vectors(pt_model, 4, seed=37)
    w = pt_model.c + 0.8
    got = [spectral.resolvent_limit(model, w, b) for b in phis]
    held = model._limits
    assert held.held <= bound and held.held == sum(v.nbytes for v, _ in held._items.values())
    # each value owns its bytes, so `held` counts all that the memo keeps alive
    assert all(v.base is None for v, _ in held._items.values())
    assert list(held._items) == [(w, spectral._content_digest(b)) for b in phis[1:]]
    # the dropped first value is solved again, to the same bytes
    assert spectral.resolvent_limit(model, w, phis[0]).tobytes() == got[0].tobytes()
    assert list(held._items) == [(w, spectral._content_digest(b)) for b in phis[[2, 3, 0]]]


def test_writing_into_a_boundary_value_leaves_later_results(pt_model):
    model = _fresh(pt_model)
    b = _probe_vectors(pt_model, 1, seed=38)[0]
    w = pt_model.c + 1.2
    for side, vec in (("+", b), ("-", np.conj(b)), ("+", b)):
        want = spectral.resolvent_limit(model, w, vec, side).tobytes()
        spectral.resolvent_limit(model, w, vec, side)[...] = 7.0
        assert spectral.resolvent_limit(model, w, vec, side).tobytes() == want
    assert len(model._limits._items) == 1


def test_project_modes_on_the_free_model_has_no_amplitudes():
    # no bound states: the amplitudes have an empty last axis, f is the state
    model = oracles.free_operator(spectral.GridSpec(l_box=40.0, m_pts=256), c=0.3)
    stack = _probe_vectors(model, 3, seed=28)
    for u in (stack[0], stack):
        state = spectral.project_modes(u, model)
        assert state.z.shape == u.shape[:-1] + (0,)
        assert np.array_equal(state.f, u)


def _fix_signs_loop(vecs):
    """The column loop that `spectral._fix_signs` replaced, kept as its oracle."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def test_fix_signs_matches_the_column_loop(pt_model):
    rng = np.random.default_rng(26)
    grid = spectral.GridSpec(l_box=40.0, m_pts=512)
    h0 = spectral.kinetic_matrix(grid)
    h0[np.diag_indices_from(h0)] += spectral.poschl_teller(grid.x)
    signs = rng.choice([-1.0, 1.0], size=pt_model.grid.m_pts)
    # equal magnitudes of both signs: the first largest entry decides; a zero
    # column stays +0.0
    ties = np.array([[-1.0, 1.0, 0.5, 0.0], [1.0, -1.0, -0.5, 0.0], [0.25, 0.0, 0.5, 0.0]])
    for vecs in (np.linalg.eigh(h0)[1], pt_model._evecs * signs, ties,
                 rng.standard_normal((64, 40))):
        want = _fix_signs_loop(vecs)
        assert spectral._fix_signs(vecs.copy()).tobytes() == want.tobytes()


def test_fix_signs_ties_fall_back_to_the_first_largest_entry():
    # the largest and smallest entries decide a column unless they tie in
    # magnitude; then the first of them decides, +a first keeps the column
    # and -a first flips it, as the argmax(|v|) rule does
    rng = np.random.default_rng(29)
    a = rng.standard_normal((256, 256))
    basis = np.linalg.eigh(a + a.T)[1]     # a random eigenbasis
    plus_first, minus_first = np.zeros(256), np.zeros(256)
    plus_first[[3, 200]] = minus_first[[200, 3]] = 0.5, -0.5
    ties = basis.copy()
    ties[:, 5], ties[:, 6] = plus_first, minus_first
    for vecs in (basis, ties):
        want = _fix_signs_loop(vecs)
        assert spectral._fix_signs(vecs.copy()).tobytes() == want.tobytes()
    fixed = spectral._fix_signs(ties.copy())
    assert np.array_equal(fixed[:, 5], plus_first)
    assert np.array_equal(fixed[:, 6], -minus_first)


def _hist_shape(u):
    """The fourth-order Gaussian kernel of the histogram, up to its 1/sigma."""
    return np.exp(-u ** 2 / 2.0) / np.sqrt(2.0 * np.pi) * (1.5 - u ** 2 / 2.0)


def _hist_sigma(model, w):
    """The histogram kernel width at w."""
    a = w - model.c
    spacing = 2.0 * np.sqrt(a) * np.pi / model.grid.l_box
    return min(spectral.HIST_SIGMA_FACTOR * spacing, spectral.HIST_SIGMA_EDGE_CAP * a)


def _full_support_gram(model, w, phis):
    """The histogram Gram summed over every continuum mode: the formula that
    `density_gram` evaluates on its window, kept as its oracle."""
    start = len(model.lam)
    e = model.mode_energies[start:]
    cm = model.mode_coeffs(np.stack(phis))[:, start:]
    sigma = _hist_sigma(model, w)
    g = np.conj(cm) * (_hist_shape((e - w) / sigma) / sigma) @ cm.T
    return 0.5 * (g + np.conj(g.T))


def test_histogram_support_is_where_the_kernel_leaves_double_precision():
    u = spectral.HIST_SUPPORT
    peak = _hist_shape(0.0)
    tail = np.abs(_hist_shape(u + np.linspace(0.0, 4.0, 41)))
    assert tail.max() < 2.0 ** -53 * peak
    assert abs(_hist_shape(u - 0.1)) > 2.0 ** -53 * peak   # no wider than needed


@pytest.mark.parametrize("case", ["desk", "free", "far"])
def test_histogram_window_matches_full_support(case, pt_model):
    # the window drops only modes where the kernel is below 2^-53 of its peak
    if case == "free":
        # doubly degenerate levels (+k and -k), listed side by side
        model = oracles.free_operator(spectral.GridSpec(l_box=40.0, m_pts=512), c=0.3)
    else:
        model = pt_model
    x = model.grid.x
    if case == "far":
        # a plain Gaussian whose weight sits near k0^2 = 9 above c, dozens of
        # kernel widths from w; its density at w is below 1e-6 of its squared norm
        phis, gaps = [np.exp(-(x - 20.0) ** 2 / 8.0 + 3j * x)], (0.5, 1.1)
    else:
        phis = [np.exp(-(x - x0) ** 2 / (2.0 * s ** 2)) * (1.0 + 0.4 * np.tanh(x / 2.0))
                * np.exp(1j * k0 * x) for x0, s, k0 in ((0.0, 1.5, 0.0), (2.0, 1.0, 0.6),
                                                        (-3.0, 2.5, -0.4))]
        gaps = (0.3, 1.1, 2.5)
    for gap in gaps:
        w = model.c + gap
        want = _full_support_gram(model, w, phis)
        got = spectral.density_gram(model, w, phis)
        assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
        if case == "far":
            assert 0.0 < want[0, 0].real < 1e-6 * spectral.l2_norm(phis[0], model.grid.h) ** 2
            assert spectral.histogram_density(model, w, phis[0]) == pytest.approx(
                want[0, 0].real, rel=1e-13)


def _compress_window(model, w):
    """The histogram window as a mask over the continuum modes."""
    window = np.abs(model.mode_energies - w) <= spectral.HIST_SUPPORT * _hist_sigma(model, w)
    return window & (np.arange(len(window)) >= len(model.lam))


def _compress_window_gram(model, w, phis):
    """The histogram Gram over a copy of the window's columns, taken by
    `np.compress` on the mask: the window read that the slice replaced, kept
    as its oracle."""
    keep, sigma = _compress_window(model, w), _hist_sigma(model, w)
    columns = np.compress(keep, model._evecs, axis=1)
    cm = np.sqrt(model.grid.h) * spectral._real_basis_product(np.atleast_2d(phis), columns)
    u = (model.mode_energies[keep] - w) / sigma
    kern = np.exp(-u ** 2 / 2.0) / (sigma * np.sqrt(2.0 * np.pi)) * (1.5 - u ** 2 / 2.0)
    g = np.conj(cm) * kern @ cm.T
    return 0.5 * (g + np.conj(g.T))


@pytest.mark.parametrize("case", ["desk", "free"])
def test_histogram_window_view_equals_the_compress_oracle(case, pt_model):
    # the slice of the eigenbasis gives the Gram of the copied columns bit
    # for bit, for one vector and a stack, near c (where the window reaches
    # the bound states) and higher up
    if case == "free":
        model = oracles.free_operator(spectral.GridSpec(l_box=40.0, m_pts=512), c=0.3)
    else:
        model = pt_model
    phis = list(_probe_vectors(model, 3, seed=35))
    for gap in (0.1, 0.3, 1.1, 2.5):
        w = model.c + gap
        for vecs in (phis, phis[:1]):
            want = _compress_window_gram(model, w, vecs)
            assert spectral.density_gram(model, w, vecs).tobytes() == want.tobytes(), gap
        assert spectral.histogram_density(model, w, phis[0]) == float(want[0, 0].real)
    if case == "desk":
        # at gap 0.1 the window reaches the top bound state, which it cuts
        w, top = model.c + 0.1, model.mode_energies[len(model.lam) - 1]
        assert abs(top - w) <= spectral.HIST_SUPPORT * _hist_sigma(model, w)


def test_continuum_transforms_never_copy_the_eigenbasis(pt_model):
    # a complex cast of the M x M eigenbasis takes M^2 * 16 bytes; every
    # transform must stay below a sixteenth of the real basis, M^2 * 8 / 16
    import tracemalloc

    m = pt_model.grid.m_pts
    limit = m * m * 8 // 16
    phis = _probe_vectors(pt_model, 3, seed=25)
    w = pt_model.c + 0.9
    # the histogram reads W columns: a copy of them takes M * W * 8 bytes
    width = np.count_nonzero(_compress_window(pt_model, w))
    assert 20 <= width <= 100
    calls = {
        "mode_coeffs": (lambda: pt_model.mode_coeffs(phis[0]), limit),
        "from_mode_coeffs": (lambda: pt_model.from_mode_coeffs(phis[0]), limit),
        "resolvent_limit": (lambda: spectral.resolvent_limit(_fresh(pt_model), w, phis[0]),
                            limit),
        "density_gram": (lambda: spectral.density_gram(pt_model, w, phis), limit),
        "histogram window": (lambda: spectral.histogram_density(pt_model, w, phis[0]),
                             m * width * 8 // 4),
    }
    for name, (call, bound) in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{name} peaked at {peak} bytes"


def test_resolvent_eigenvector_case(pt_model):
    # (H - 0.2)^{-1} phi_1 = phi_1 / (0.7 - 0.2) = 2 phi_1
    x = spectral.resolvent_apply(pt_model, 0.2, pt_model.phi[1].astype(complex))
    assert_allclose(x, 2.0 * pt_model.phi[1], atol=1e-6)


def test_resolvent_at_eigenvalue_errors(pt_model):
    # off centre, so b has weight on the odd phi_1
    b = np.exp(-(pt_model.grid.x - 1.0) ** 2 / 4).astype(complex)
    with pytest.raises(SingularResolventError):
        spectral.resolvent_apply(pt_model, float(pt_model.lam[1]), b)


def test_resolvent_reduced_mode(pt_model):
    # projected data may pass through an eigenvalue via the reduced resolvent
    b = pt_model.project_pc(np.exp(-pt_model.grid.x ** 2 / 4).astype(complex))
    x = spectral.resolvent_apply(pt_model, float(pt_model.lam[1]), b)
    res = pt_model.apply_h(x) - pt_model.lam[1] * x - b
    res = pt_model.project_pc(res)
    assert spectral.l2_norm(res, pt_model.grid.h) < 1e-9 * spectral.l2_norm(b, pt_model.grid.h)


def test_resolvent_free_kernel_oracle():
    # analytic kernel of (-d2/dx2 - zeta)^{-1}: i e^{i sqrt(zeta)|x-y|} / (2 sqrt(zeta));
    # the kernel has a cusp at x = y, so the quadrature oracle is Richardson-
    # extrapolated over two fine grids to clear its own O(h^2) error
    grid = spectral.GridSpec(l_box=40.0, m_pts=2048)
    model = oracles.free_operator(grid, c=0.0)
    b_of = lambda xs: np.exp(-xs ** 2)
    b = b_of(grid.x).astype(complex)
    probe = grid.x[512:1536:64]
    for zeta in (-1.0 + 0j, 0.25 + 1.0j):
        x = spectral.resolvent_apply(model, zeta, b)
        root = np.lib.scimath.sqrt(zeta)
        if root.imag < 0:
            root = -root

        def quad(n):
            ys = np.linspace(-40.0, 40.0, n + 1)
            hq = ys[1] - ys[0]
            vals = []
            for xp in probe:
                integrand = (1j * np.exp(1j * root * np.abs(xp - ys))
                             / (2.0 * root) * b_of(ys))
                vals.append(hq * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1])))
            return np.array(vals)

        coarse, fine = quad(8192), quad(16384)
        xref = (4.0 * fine - coarse) / 3.0
        err = np.max(np.abs(x[512:1536:64] - xref))
        assert err < 1e-6


def test_resolvent_conjugate_symmetry(pt_model):
    rng = np.random.default_rng(3)
    h = pt_model.grid.h
    b = rng.standard_normal(pt_model.grid.m_pts) * np.exp(-pt_model.grid.x ** 2 / 30)
    b = b.astype(complex)
    zeta = 0.3 + 0.2j
    v1 = h * np.vdot(b, spectral.resolvent_apply(pt_model, zeta, b))
    v2 = h * np.vdot(b, spectral.resolvent_apply(pt_model, np.conj(zeta), b))
    assert v1 == pytest.approx(np.conj(v2), abs=1e-10 * abs(v1))


def test_density_below_continuum(pt_model):
    phi = np.exp(-pt_model.grid.x ** 2 / 2).astype(complex)
    res = spectral.spectral_density_form(pt_model, pt_model.c - 0.1, phi, details=True)
    assert res.value == 0.0
    assert res.below_continuum


def test_density_free_case_analytic(free_big):
    # derived from the free resolvent: rho(w) = |phihat(sqrt w)|^2 / (2 pi sqrt w)
    grid = free_big.grid
    phi = np.exp(-grid.x ** 2 / 2).astype(complex)
    w = 1.0
    val = spectral.spectral_density_form(free_big, w, phi)
    phihat = np.trapezoid(phi * np.exp(-1j * np.sqrt(w) * grid.x), grid.x)
    exact = abs(phihat) ** 2 / (2.0 * np.pi * np.sqrt(w))
    assert val == pytest.approx(exact, rel=1e-4)
    # and the closed Gaussian transform as an extra cross-check
    assert exact == pytest.approx(np.exp(-1.0), rel=1e-8)


def test_density_dual_estimators_agree(pt_model_wide):
    rng = np.random.default_rng(5)
    model = pt_model_wide
    x = model.grid.x
    count = 0
    for _ in range(20):
        if count >= 10:
            break
        w = model.c + 0.3 + 2.5 * rng.random()
        x0 = 3.0 * rng.standard_normal()
        s = 1.0 + 1.5 * rng.random()
        phi = (np.exp(-(x - x0) ** 2 / (2 * s ** 2))
               * (1.0 + 0.4 * np.tanh(x / 2.0))).astype(complex)
        lap = spectral.spectral_density_form(model, w, phi, details=True)
        if lap.small_signal:
            continue
        hist = spectral.histogram_density(model, w, phi)
        assert abs(lap.value - hist) <= 0.05 * max(abs(lap.value), abs(hist))
        count += 1
    assert count == 10


def _scattering_density(model, w, phi, x_max=40.0):
    """Box-free reference (|<psi_+, phi>|^2 + |<psi_-, phi>|^2) / (4 pi k).

    psi_+ and psi_- are the scattering states of -psi'' + V psi = k^2 psi,
    k^2 = w - c, with unit incoming amplitude from the left and from the
    right: the Jost solution ~ exp(+-i k x) on the side the wave leaves by,
    integrated across the Pöschl-Teller well (DOP853), divided by its
    incoming amplitude on the other side.  Beyond |x| = x_max both V and
    the test packets vanish to double precision.
    """
    from scipy.integrate import solve_ivp

    k = np.sqrt(w - model.c)
    x = model.grid.x
    inside = np.abs(x) <= x_max
    xs = x[inside]
    total = 0.0
    for sign in (1, -1):
        start = sign * x_max
        y0 = np.array([1.0, 1j * sign * k]) * np.exp(1j * sign * k * start)
        t_eval = xs[::-sign]
        sol = solve_ivp(
            lambda t, y: [y[1], (spectral.poschl_teller(t) - k * k) * y[0]],
            (start, t_eval[-1]), y0, method="DOP853", rtol=1e-12, atol=1e-14,
            t_eval=t_eval)
        f, df, end = sol.y[0, -1], sol.y[1, -1], t_eval[-1]
        incoming = 0.5 * (f + df / (1j * sign * k)) * np.exp(-1j * sign * k * end)
        psi = sol.y[0][::-sign] / incoming
        total += abs(model.grid.h * np.vdot(psi, phi[inside])) ** 2
    return total / (4.0 * np.pi * k)


def test_density_error_bars_against_scattering_states(pt_model_wide):
    # criterion 6's ten pairs, each estimator against the box-free density
    pytest.importorskip("scipy")
    rng = np.random.default_rng(107)
    model = pt_model_wide
    x = model.grid.x
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
        ref = _scattering_density(model, w, phi)
        hist = spectral.histogram_density(model, w, phi)
        assert abs(hist - ref) <= 1e-3 * ref, (w, hist, ref)
        assert abs(lap.value - ref) <= lap.error_estimate, (w, lap, ref)
        assert not lap.unreliable
        pairs += 1


def test_density_gram_lap_matches_density_form(pt_model):
    # the 1x1 LAP Gram and the scalar LAP density are one computation
    x = pt_model.grid.x
    phi = ((1.0 + 0.5 * x) * np.exp(-x ** 2 / 3)).astype(complex)
    for w_off in (0.4, 0.9, 1.6, 2.5):
        w = pt_model.c + w_off
        g = spectral.density_gram(pt_model, w, [phi], estimator="lap")
        val = spectral.spectral_density_form(pt_model, w, phi)
        assert g.shape == (1, 1)
        assert g[0, 0].real == pytest.approx(val, rel=1e-12, abs=1e-15)


def test_density_positivity(pt_model):
    rng = np.random.default_rng(9)
    x = pt_model.grid.x
    for _ in range(6):
        w = pt_model.c + 0.2 + 2.0 * rng.random()
        phi = (rng.standard_normal(len(x)) * np.exp(-x ** 2 / 40)).astype(complex)
        norm2 = spectral.l2_norm(phi, pt_model.grid.h) ** 2
        val = spectral.spectral_density_form(pt_model, w, phi)
        assert val >= -1e-8 * norm2
        assert spectral.histogram_density(pt_model, w, phi) >= -0.05 * max(val, 1e-12)


def test_density_gram_matches_diagonal(pt_model):
    x = pt_model.grid.x
    phis = [np.exp(-x ** 2 / 2).astype(complex),
            (x * np.exp(-x ** 2 / 3)).astype(complex)]
    w = pt_model.c + 0.9
    g = spectral.density_gram(pt_model, w, phis, estimator="histogram")
    assert g.shape == (2, 2)
    assert np.allclose(g, np.conj(g.T))
    assert g[0, 0].real == pytest.approx(spectral.histogram_density(pt_model, w, phis[0]),
                                         rel=1e-12)
    eig = np.linalg.eigvalsh(g)
    assert eig.min() > -1e-8 * max(eig.max(), 1e-300)


def test_grid_mismatch_raises(pt_model):
    with pytest.raises(GridMismatchError):
        spectral.project_modes(np.zeros(17, dtype=complex), pt_model)


def test_threshold_monitor_runs(pt_model):
    rep = spectral.threshold_blowup_report(pt_model)
    assert len(rep["growth_exponents"]) == 3
    assert isinstance(rep["suspicious"], bool)


def test_export_eigenpairs_csv(pt_model, tmp_path):
    path = tmp_path / "eig.csv"
    spectral.export_eigenpairs_csv(pt_model, path)
    data = np.loadtxt(path, delimiter=",", comments="#")
    assert data.shape == (pt_model.grid.m_pts, 3)
    assert_allclose(data[:, 1], pt_model.phi[0], atol=1e-12)
