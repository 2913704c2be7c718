"""Split-step integration of the forced NLS with mode/radiation monitors.

The stepper is a Strang splitting: exact half-steps of the kinetic phase in
Fourier space around an exact pointwise phase rotation for the potential and
the nonlinearity sampled at the midpoint time.  Mass is conserved to rounding
and the map is exactly time-reversible.  Between output samples the
half-steps of adjacent steps are applied as one full kinetic step, and the
monitors are computed on stacks of samples.

The box wraps radiation after t_wrap = L / (2 v_max); runs beyond that keep
only qualitative meaning unless the absorbing sponge is enabled (off by
default to preserve the Hamiltonian structure).

The stepper calls numpy's pocketfft gufuncs (`numpy.fft._pocketfft_umath`,
present in every numpy >= 2.0) directly, with the factors `np.fft.fft` and
`np.fft.ifft` pass them: 1 forward and 1/M backward, so the bits are those
of `np.fft`.  The `np.fft` Python wrapper adds a fixed cost to each call, a
large share of a transform at M = 512, and the stepper makes two to four
transforms a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft._pocketfft_umath import fft as _fft, ifft as _ifft

from .birkhoff import ReducedForm
from .errors import ConfigError, NumericalError
from .fgr import packet_form
from .hamalg import exponent_table, monomials
from .resonance import ResonanceCatalog, TOL_RES
from .spectral import (
    BoundStates,
    GridSpec,
    OperatorModel,
    ModeState,
    l2_norm,
    pairing,
    project_modes,
    resolvent_limit,
)

SPONGE_STRENGTH = 5.0
SPONGE_START_FRAC = 0.8      # the sponge ramps up over |x| > 0.8 L
WEIGHT_S = 2.0               # S in the weighted L^{2,-S} monitor
STRICHARTZ_PAIRS = ((6.0, 6.0), (8.0, 4.0))  # (r, p): 1-D surrogate table
MONITOR_BATCH = 64           # samples per monitor batch: 512 KB of states at M = 512


@dataclass
class SimConfig:
    gamma0: float = 0.0
    gamma1: float = 0.0
    t_end: float = 200.0
    dt: float = 1e-3
    output_stride: int = 100
    mode_amplitudes: tuple = ()
    radiation: np.ndarray | None = None
    u0: np.ndarray | None = None          # raw initial data overrides the above
    sponge: bool = False
    wrap_policy: str = "warn"             # "warn" | "error" | "ignore"
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 <= self.t_end < math.inf):
            raise ConfigError("dt must be finite and positive, t_end finite and nonnegative")
        if self.wrap_policy not in ("warn", "error", "ignore"):
            raise ConfigError("wrap_policy must be warn, error or ignore")
        if self.output_stride < 1:
            raise ConfigError(f"output_stride must be at least 1, got {self.output_stride}")


@dataclass
class ReducedAux:
    """Catalog-dependent monitor data produced by the analysis pipeline."""

    catalog: ResonanceCatalog
    reduced: ReducedForm
    packets: list
    zeta_couplings: CouplingTable
    g_couplings: CouplingTable


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    z: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    f_l2: np.ndarray
    f_h1: np.ndarray
    f_weighted: np.ndarray
    eps_h1: float
    dt_safe: float
    t_wrap: float
    steps: int                    # Strang steps taken
    zeta: np.ndarray | None = None
    g_weighted: np.ndarray | None = None
    fgr_flux: np.ndarray | None = None
    zsq_integrals: dict = field(default_factory=dict)
    strichartz: dict = field(default_factory=dict)
    snapshots: dict = field(default_factory=dict)
    sponge_used: bool = False

    def mass_drift(self) -> float:
        """max |mass(t) - mass(0)| / mass(0); 0 for zero data."""
        return float(np.max(np.abs(self.mass - self.mass[0])) / max(self.mass[0], 1e-300))

    def beyond_wrap(self) -> bool:
        """True when the last sample lies past t_wrap and no sponge absorbed."""
        return bool(self.times[-1] > self.t_wrap and not self.sponge_used)


def gamma_of_t(t, gamma0: float, gamma1: float):
    return gamma0 + gamma1 * np.cos(t)


def initial_state(model: BoundStates, config: SimConfig) -> np.ndarray:
    if config.u0 is not None:
        u = np.asarray(config.u0, dtype=complex)
        if u.shape != (model.grid.m_pts,):
            raise ConfigError("raw initial data not on the model grid")
        return u.copy()
    u = np.zeros(model.grid.m_pts, dtype=complex)
    amps = np.asarray(config.mode_amplitudes, dtype=complex)
    if len(amps) > len(model.lam):
        raise ConfigError("more mode amplitudes than bound states")
    for j, a in enumerate(amps):
        u += a * model.phi[j]
    if config.radiation is not None:
        u += model.project_pc(np.asarray(config.radiation, dtype=complex))
    return u


# The monitor helpers take one state or a stack of states along the last axis.


def derivative(u, grid: GridSpec) -> np.ndarray:
    """Spectral derivative du/dx on the periodic grid."""
    return np.fft.ifft(1j * grid.k * np.fft.fft(u))


def h1_norm(u, grid: GridSpec) -> float:
    return math.sqrt(l2_norm(u, grid.h) ** 2 + l2_norm(derivative(u, grid), grid.h) ** 2)


def energy_value(model: BoundStates, u, t, gamma0, gamma1):
    """E(u) at time t; states u[s] at times t[s] give one energy each."""
    grid = model.grid
    kin = l2_norm(derivative(u, grid), grid.h) ** 2
    density = u.real ** 2 + u.imag ** 2
    pot = grid.h * np.sum((model.v + model.c) * density, axis=-1)
    # the /2 normalization generates the simulated nonlinearity g|u|^2 u under
    # the Wirtinger gradient
    ep = gamma_of_t(t, gamma0, gamma1) * grid.h * np.sum(density ** 2, axis=-1) / 2.0
    return kin + pot + ep


def dt_safe_bound(grid: GridSpec) -> float:
    # accuracy heuristic, not a stability limit: the splitting is exact in
    # each factor, so we only keep dt below the grid-scale h^2
    return grid.h ** 2


def wrap_time(model: BoundStates, aux: ReducedAux | None) -> float:
    if aux is not None and aux.catalog.x_values:
        kmax = math.sqrt(max(aux.catalog.x_values) - model.c)
    else:
        kmax = math.sqrt(max(model.c, 1.0))
    vmax = 2.0 * kmax
    return model.grid.l_box / (2.0 * vmax)


def _sponge_mask(grid: GridSpec, dt: float):
    """The sponge factor of one step, complex so that `u *= sponge` casts nothing."""
    x0 = SPONGE_START_FRAC * grid.l_box
    ramp = np.clip((np.abs(grid.x) - x0) / (grid.l_box - x0), 0.0, 1.0)
    return np.exp(-dt * SPONGE_STRENGTH * ramp ** 2).astype(complex)


def step(u: np.ndarray, dt: float, t: float, model: BoundStates,
         config: SimConfig, half_kinetic: np.ndarray, sponge=None,
         n: int = 1) -> np.ndarray:
    """n Strang steps from t to t + n dt; half_kinetic = exp(-i k^2 dt / 2).

    Without a sponge, the second half-step of one step and the first of the
    next are applied as one full kinetic factor, so each step costs one FFT
    pair.  The sponge mask sits between the kinetic factors of consecutive
    steps, so a sponge step stays unfused: K/2 N K/2 S, two FFT pairs.  For
    t = k dt, sponge step i evaluates gamma at (k + i) dt + dt / 2, with the
    rounding of n one-step calls at t = k dt, (k + 1) dt, ...

    The buffers are allocated once per call, and every transform writes
    into them through the bound gufuncs `_fft(a, 1)` and `_ifft(a, 1 / M)`,
    the calls `np.fft.fft(a)` and `np.fft.ifft(a)` make.  |u|^2 is formed
    from the (M, 2) real view of u: one multiply squares both parts, one add
    sums the columns, the operations of u.real ** 2 + u.imag ** 2.  A real
    sponge mask would be cast to complex on every step; `_sponge_mask` gives
    it complex.  `u` itself is not written.
    """
    m_pts = len(u)
    inv_m = 1.0 / m_pts
    full_kinetic = half_kinetic * half_kinetic
    static_phase = -dt * (model.v + model.c)
    rotation = np.empty(m_pts, dtype=complex)
    phase, squares = np.empty(m_pts), np.empty((m_pts, 2))
    uh = _fft(u, 1, out=np.empty(m_pts, dtype=complex))
    uh *= half_kinetic
    u = np.empty_like(uh)
    parts = u.view(float).reshape(m_pts, 2)
    for i in range(n):
        _ifft(uh, inv_m, out=u)
        if sponge is None:
            mid = t + (i + 0.5) * dt
        else:
            mid = (t if i == 0 else (round(t / dt) + i) * dt) + 0.5 * dt
        g = config.gamma0 + config.gamma1 * math.cos(mid)
        np.multiply(parts, parts, out=squares)
        np.add(squares[:, 0], squares[:, 1], out=phase)
        phase *= -dt * g
        phase += static_phase
        np.cos(phase, out=rotation.real)
        np.sin(phase, out=rotation.imag)
        u *= rotation
        _fft(u, 1, out=uh)
        last = i == n - 1
        if sponge is None:
            uh *= half_kinetic if last else full_kinetic
        else:
            uh *= half_kinetic
            _ifft(uh, inv_m, out=u)
            u *= sponge
            if not last:
                _fft(u, 1, out=uh)
                uh *= half_kinetic
    return _ifft(uh, inv_m, out=u) if sponge is None else u


def simulate(model: BoundStates, config: SimConfig,
             aux: ReducedAux | None = None) -> TrajectoryRecord:
    """Integrate and record the monitor set at the output stride."""
    grid = model.grid
    dt = config.dt
    if dt > dt_safe_bound(grid) * (1.0 + 1e-12):
        raise ConfigError(
            f"dt = {dt:.3g} above the safe bound {dt_safe_bound(grid):.3g}")
    t_wrap = wrap_time(model, aux)
    if config.t_end > t_wrap and not config.sponge:
        if config.wrap_policy == "error":
            raise ConfigError(
                f"t_end = {config.t_end:.6g} beyond the wrap horizon {t_wrap:.6g}")
        if config.wrap_policy == "warn":
            import warnings

            warnings.warn(
                f"run extends beyond the radiation wrap horizon t_wrap = {t_wrap:.4g}; "
                "monitors are qualitative past that time")

    u = initial_state(model, config)
    eps = h1_norm(u, grid)
    n_steps = int(round(config.t_end / dt))
    stride = int(config.output_stride)
    half_kinetic = np.exp(-0.5j * grid.k ** 2 * dt)
    sponge = _sponge_mask(grid, dt) if config.sponge else None
    weight = (1.0 + grid.x ** 2) ** (-WEIGHT_S / 2.0)

    n_out = n_steps // stride + 1
    nb = len(model.lam)
    times = np.arange(n_out) * stride * dt
    zs = np.empty((n_out, nb), dtype=complex)
    mass = np.empty(n_out)
    energy = np.empty(n_out)
    f_l2 = np.empty(n_out)
    f_h1 = np.empty(n_out)
    f_w = np.empty(n_out)
    g_w = np.empty(n_out) if aux is not None else None
    zetas = np.empty((n_out, nb), dtype=complex) if aux is not None else None

    minimal = aux.catalog.minimal if aux is not None else []
    zsq_mu, zsq_nu = exponent_table(minimal, nb)
    zsq_acc = np.zeros(len(minimal))
    strich_acc = dict.fromkeys(STRICHARTZ_PAIRS, 0.0)
    sample_dt = stride * dt
    batch = min(MONITOR_BATCH, n_out)
    buffer = np.empty((batch, grid.m_pts), dtype=complex)

    def record(lo, hi):
        """Monitors of samples lo .. hi - 1, held in buffer[:hi - lo]."""
        u, t = buffer[:hi - lo], times[lo:hi]
        state = project_modes(u, model)
        zs[lo:hi] = state.z
        mass[lo:hi] = l2_norm(u, grid.h)
        energy[lo:hi] = energy_value(model, u, t, config.gamma0, config.gamma1)
        df = derivative(state.f, grid)
        f_l2[lo:hi] = norm = l2_norm(state.f, grid.h)
        f_h1[lo:hi] = np.sqrt(norm ** 2 + l2_norm(df, grid.h) ** 2)
        f_w[lo:hi] = l2_norm(weight * state.f, grid.h)
        for (r, p) in STRICHARTZ_PAIRS:
            strich_acc[r, p] += sample_dt * np.sum(_w1p_norm(state.f, df, grid.h, p) ** r)
        zsq = np.abs(monomials(state.z[:, None, :], zsq_mu, zsq_nu)) ** 2
        zsq_acc[:] += sample_dt * zsq.sum(axis=0)
        if aux is not None:
            zetas[lo:hi] = zeta_transform(state.z, t, aux.zeta_couplings)
            g_w[lo:hi] = l2_norm(weight * g_transform(state, t, aux.g_couplings), grid.h)

    def sample(i, u):
        """Check output sample i and buffer it; a full buffer is recorded."""
        if not np.isfinite(u).all():
            raise NumericalError(f"non-finite state at t = {times[i]:.6g}")
        buffer[i % batch] = u
        if i % batch == batch - 1 or i == n_out - 1:
            record(i - i % batch, i + 1)

    # a snapshot is taken after the first step that reaches ts - dt / 2
    snap_at: dict = {}
    for ts in sorted(config.snapshot_times):
        snap_at.setdefault(max(1, math.ceil(ts / dt - 0.5)), []).append(ts)
    snapshots = {}
    sample(0, u)
    done = 0
    # steps past the last sample and snapshot would change nothing recorded
    for target in sorted({*range(stride, n_steps + 1, stride), *snap_at}):
        if target > n_steps:
            break
        u = step(u, dt, done * dt, model, config, half_kinetic, sponge, target - done)
        done = target
        for ts in snap_at.get(done, ()):
            snapshots[ts] = free_flow_undo(u, done * dt, grid, model.c)
        if done % stride == 0:
            sample(done // stride, u)

    # the golden-rule flux pi sum_w Q_w(zeta) of every sample at once
    flux = (math.pi * sum((packet_form(p, zetas) for p in aux.packets), np.zeros(n_out))
            if aux is not None else None)
    strich = {f"r={r:g},p={p:g}": val ** (1.0 / r) for (r, p), val in strich_acc.items()}
    strich["r=inf,p=2"] = float(np.max(f_h1))
    return TrajectoryRecord(
        times=times, z=zs, mass=mass, energy=energy,
        f_l2=f_l2, f_h1=f_h1, f_weighted=f_w,
        eps_h1=eps, dt_safe=dt_safe_bound(grid), t_wrap=t_wrap, steps=done,
        zeta=zetas, g_weighted=g_w, fgr_flux=flux,
        zsq_integrals={(tr.m, tr.mu, tr.nu): float(v) for tr, v in zip(minimal, zsq_acc)},
        strichartz=strich, snapshots=snapshots, sponge_used=config.sponge,
    )


def _w1p_norm(f, df, h: float, p: float):
    """||f||_{W^{1,p}} from f and its derivative df."""
    fp = (h * np.sum(np.abs(f) ** p, axis=-1)) ** (1.0 / p)
    dfp = (h * np.sum(np.abs(df) ** p, axis=-1)) ** (1.0 / p)
    return (fp ** p + dfp ** p) ** (1.0 / p)


def free_flow_undo(u, t: float, grid: GridSpec, c: float) -> np.ndarray:
    """Scattering profile e^{+i t (-Delta + c)} u(t) (the c-phase included)."""
    return np.fft.ifft(np.fft.fft(u) * np.exp(1j * (grid.k ** 2 + c) * t))


# ---------------------------------------------------------------------------
# changes of variables


@dataclass
class CouplingTable:
    """Stacked monomial couplings, one row each.

    Row k stands for weight_k e^{i m_k t} z^{mu_k} conj(z)^{nu_k}.  The zeta
    corrections carry scalar weights and the mode j_k they correct; the g
    tails carry grid vectors and no j.
    """

    m: np.ndarray                 # (K,)
    mu: np.ndarray                # (K, n)
    nu: np.ndarray                # (K, n)
    weight: np.ndarray            # (K,) or (K, M)
    j: np.ndarray | None = None   # (K,)

    @classmethod
    def from_rows(cls, rows, n_modes: int, j=None) -> "CouplingTable":
        """Stack (m, mu, nu, weight) rows; `j` lists the corrected modes."""
        m, mu, nu, weight = zip(*rows) if rows else ((), (), (), ())
        return cls(m=np.array(m, dtype=int),
                   mu=np.array(mu, dtype=int).reshape(-1, n_modes),
                   nu=np.array(nu, dtype=int).reshape(-1, n_modes),
                   weight=np.array(weight, dtype=complex),
                   j=None if j is None else np.array(j, dtype=int))

    def phased_monomials(self, z, t) -> np.ndarray:
        """e^{i m_k t} z^{mu_k} conj(z)^{nu_k} of every row.

        States z[s] at times t[s] give an (S, K) array.
        """
        z = np.asarray(z, dtype=complex)
        phase = np.exp(1j * self.m * np.asarray(t, dtype=float)[..., None])
        return phase * monomials(z[..., None, :], self.mu, self.nu)


def build_zeta_couplings(model: OperatorModel, reduced: ReducedForm,
                         tol_res: float = TOL_RES) -> CouplingTable:
    """Precompute the oscillatory-correction monomials of the zeta variables.

    Pairs from M x M' and M' x M' with nonvanishing denominators
    m + m' - lambda.(mu + mu' - nu - nu') contribute; the boundary-value
    pairings <R^+- Psi, Phi> are cached as scalars.  Each correction of zeta_j
    keeps the exponent of conj(z) after the 1/conj(z_j) cancellation.
    """
    lam = np.asarray(model.lam, dtype=float)
    cat = reduced.catalog
    rows, js = [], []

    def rplus(trip) -> np.ndarray:
        # the model remembers R(w + i0) Psi, so each triple is solved once
        arg = float(lam @ (np.array(trip.mu) - np.array(trip.nu))) - trip.m
        return resolvent_limit(model, arg, reduced.z1_mprime[trip], side="+")

    def add(ta, m, mu_tot, nu_tot, coupling, denom):
        for j in range(len(lam)):
            if ta.nu[j] == 0:
                continue
            nu_red = nu_tot.copy()
            nu_red[j] -= 1
            rows.append((m, mu_tot, nu_red, ta.nu[j] * coupling / denom))
            js.append(j)

    h = model.grid.h
    # first family: (m, mu, nu) in M, (m', mu', nu') in M'
    for ta in cat.minimal:
        phi_a = reduced.z1_m[ta]
        for tb in cat.minimal_prime:
            mu_tot = np.array(ta.mu) + np.array(tb.mu)
            nu_tot = np.array(ta.nu) + np.array(tb.nu)
            denom = (ta.m + tb.m) - float(lam @ (mu_tot - nu_tot))
            if abs(denom) < tol_res:
                continue
            add(ta, ta.m + tb.m, mu_tot, nu_tot, pairing(rplus(tb), phi_a, h), denom)
    # second family: (m, mu, nu) in M', (m', mu', nu') in M'
    for ta in cat.minimal_prime:
        psi_a = reduced.z1_mprime[ta]
        for tb in cat.minimal_prime:
            mu_tot = np.array(ta.mu) + np.array(tb.nu)
            nu_tot = np.array(ta.nu) + np.array(tb.mu)
            denom = (ta.m - tb.m) - float(lam @ (mu_tot - nu_tot))
            if abs(denom) < tol_res:
                continue
            # R^-(s) conj(Psi) = conj(R^+(s) Psi) for the real-symmetric H
            add(ta, ta.m - tb.m, mu_tot, nu_tot, pairing(np.conj(rplus(tb)), psi_a, h), denom)
    return CouplingTable.from_rows(rows, len(lam), j=js)


def zeta_transform(z, t, couplings: CouplingTable) -> np.ndarray:
    """zeta_j = z_j minus the precomputed oscillatory corrections.

    States z[s] at times t[s] give one zeta each.
    """
    z = np.asarray(z, dtype=complex)
    corrections = couplings.weight * couplings.phased_monomials(z, t)
    return z - corrections @ np.eye(z.shape[-1])[couplings.j]


def build_g_couplings(model: OperatorModel, reduced: ReducedForm) -> CouplingTable:
    """R^+ tails of the M' couplings entering the g variable."""
    lam = np.asarray(model.lam, dtype=float)
    rows = []
    for trip, psi in reduced.z1_mprime.items():
        arg = float(lam @ (np.array(trip.mu) - np.array(trip.nu))) - trip.m
        if arg <= model.c:
            raise NumericalError(
                f"catalog corruption: M' argument {arg:.6g} below the threshold")
        rows.append((trip.m, trip.mu, trip.nu, resolvent_limit(model, arg, psi, side="+")))
    return CouplingTable.from_rows(rows, len(lam))


def g_transform(state: ModeState, t, g_couplings: CouplingTable) -> np.ndarray:
    """g = f + sum over M' of e^{imt} z^mu conj(z)^nu R^+ Psi.

    A stacked state with times t[s] gives one g each.
    """
    tails = g_couplings.weight.reshape(-1, state.f.shape[-1])   # (K, M), also for K = 0
    return state.f + g_couplings.phased_monomials(state.z, t) @ tails

