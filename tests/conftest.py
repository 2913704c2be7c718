import numpy as np
import pytest

import oracles
from nlsnf import birkhoff, dynamics, fgr, hamalg, resonance, spectral


@pytest.fixture(scope="session")
def pt_grid():
    return spectral.GridSpec(l_box=40.0, m_pts=2048)


@pytest.fixture(scope="session")
def pt_model(pt_grid):
    """Pöschl-Teller with two bound states: lambda = (0, 0.7), c = 0.7875."""
    v = spectral.poschl_teller(pt_grid.x, a=1.5, kappa2=0.35)
    return spectral.build_operator(pt_grid, v)


@pytest.fixture(scope="session")
def pt_model_wide():
    """Same potential on a double box; used by the dual-estimator checks."""
    grid = spectral.GridSpec(l_box=160.0, m_pts=4096)
    v = spectral.poschl_teller(grid.x, a=1.5, kappa2=0.35)
    return spectral.build_operator(grid, v)


@pytest.fixture(scope="session")
def free_big():
    """Large free box, FFT-diagonalized; oracle for continuum formulas."""
    grid = spectral.GridSpec(l_box=400.0, m_pts=4096)
    return oracles.free_operator(grid, c=0.0)


@pytest.fixture(scope="session")
def pt_budget(pt_model):
    return resonance.resonance_budget(pt_model.lam, pt_model.c)


@pytest.fixture(scope="session")
def pt_catalog(pt_model, pt_budget):
    report = resonance.check_hypotheses(pt_model.lam, pt_model.c, pt_budget)
    assert report.all_ok
    return resonance.build_index_sets(pt_model.lam, pt_model.c, pt_budget, report)


# forcing of the default desk configuration: strong time-periodic drive so the
# golden-rule decay is visible on a 200-unit horizon (gamma1 eps^2 stays small)
GAMMA0, GAMMA1 = 1.0, 8.0


@pytest.fixture(scope="session")
def pt_normal_form(pt_model, pt_budget):
    e_p = hamalg.expand_potential_energy(pt_model, gamma0=GAMMA0, gamma1=GAMMA1)
    return birkhoff.normal_form(pt_model, e_p, r_max=pt_budget.big_n + 1,
                                big_n=pt_budget.big_n)


@pytest.fixture(scope="session")
def pt_reduced(pt_normal_form, pt_catalog):
    return birkhoff.reduce_to_minimal(pt_normal_form, pt_catalog)


@pytest.fixture(scope="session")
def pt_packets(pt_model, pt_reduced):
    return fgr.build_packets(pt_model, pt_reduced)


@pytest.fixture(scope="session")
def pt_aux(pt_model, pt_catalog, pt_reduced, pt_packets):
    return dynamics.ReducedAux(
        catalog=pt_catalog,
        reduced=pt_reduced,
        packets=pt_packets,
        zeta_couplings=dynamics.build_zeta_couplings(pt_model, pt_reduced),
        g_couplings=dynamics.build_g_couplings(pt_model, pt_reduced),
    )


@pytest.fixture(scope="session")
def small_clean_models():
    """Five small gaussian-well models with n <= 2 and clean hypotheses."""
    rng = np.random.default_rng(11)
    grid = spectral.GridSpec(l_box=30.0, m_pts=256)
    models = []
    while len(models) < 5:
        depth = 0.4 + 2.6 * rng.random()
        width = 0.8 + 1.4 * rng.random()
        v = spectral.gaussian_well(grid.x, depth=depth, width=width)
        if max(abs(v[0]), abs(v[-1])) > spectral.V_BOUNDARY_DECAY:
            continue
        try:
            model = spectral.build_operator(grid, v)
        except spectral.EmptySpectrumError:
            continue
        except Exception:
            continue
        if model.n > 2:
            continue
        try:
            budget = resonance.resonance_budget(model.lam, model.c)
            report = resonance.check_hypotheses(model.lam, model.c, budget)
        except Exception:
            continue
        if report.all_ok:
            models.append((model, budget))
    return models


def random_radiation(model, rng, scale=1.0):
    """Smooth localized continuum-subspace vector."""
    x = model.grid.x
    width = 0.15 * model.grid.l_box
    prof = (rng.standard_normal(model.grid.m_pts)
            + 1j * rng.standard_normal(model.grid.m_pts))
    prof = np.fft.ifft(np.fft.fft(prof) * np.exp(-model.grid.k ** 2 * 2.0))
    prof *= np.exp(-x ** 2 / (2.0 * width ** 2))
    f = model.project_pc(prof)
    return scale * f / max(spectral.l2_norm(f, model.grid.h), 1e-300)
