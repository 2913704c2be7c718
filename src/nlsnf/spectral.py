"""Discretized Schrödinger operator H = -Delta + V + c on a periodic 1-D box.

The operator is represented spectrally: the kinetic matrix is the circulant
generated by the Fourier symbol k^2, so the dense model and the FFT-based
propagator in `dynamics` describe exactly the same discrete operator.  A dense
symmetric eigendecomposition provides bound states, resolvents and the two
spectral-density estimators (extrapolated limiting absorption and smoothed
eigenvalue histogram).

Bound states on the finite box are identified by boundary localization, not
just by lying below the continuum threshold c: a shallow box can produce
delocalized levels slightly below c which belong, physically, to the
discretized continuum.

A run that reads no continuum mode needs only the bound states:
`bound_states` finds them by block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23
(2001)) on -Delta + V applied through the FFT symbol, with no M x M matrix.
It and `build_operator` share the input checks, the bound-state rule, the
sign convention and the eigenpair validation, so they agree on which state
is bound; the dense path stays the oracle.

The eigendecomposition calls the gufunc behind `np.linalg.eigh`
(`numpy.linalg._umath_linalg.eigh_lo`, present in every numpy >= 2.0)
directly, with the matrix as its eigenvector output: LAPACK's eigenvectors
overwrite the matrix they came from, which saves the M x M array that
`np.linalg.eigh` allocates for them, and the bits are those of
`np.linalg.eigh`.  Where `np.linalg.eigh` raises `LinAlgError` the gufunc
returns NaN, so a non-finite potential is refused before the solve and
non-finite eigenvalues raise `NumericalError`.

H is real-symmetric, so R(w - i0) b = conj(R(w + i0) conj(b)) exactly:
`resolvent_limit` solves only the '+' side, and each model remembers
R(w + i0) b by w and the bytes of b, so a conjugate pair, or the same
boundary value asked for twice, costs one back-transform.  The histogram
estimator reads its window of continuum modes as a slice of the eigenbasis
columns, found by bisection in the ascending `mode_energies`: a view, not a
copy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .errors import (
    BoundaryDecayError,
    ConfigError,
    EmptySpectrumError,
    GridMismatchError,
    NumericalError,
    SingularResolventError,
)

TOL_GROUND = 1e-12
TOL_EIG_RESIDUAL = 1e-9
TOL_RESOLVENT = 1e-9
EDGE_LOCALIZATION = 1e-2  # max boundary amplitude fraction for a bound state
V_BOUNDARY_DECAY = 1e-12

# limiting-absorption estimator: nodes geometric in [LAP_FLOOR*sqrt(a)/L, a/2],
# least-squares polynomial in eps evaluated at eps=0, its degree chosen by the
# error model of `_extrapolate` (a = w - c)
LAP_FLOOR = 5.0
LAP_EMAX_FRAC = 0.5
LAP_NODES = 8
LAP_RATIO = 0.7
LAP_ERROR_SAFETY = 2.0

# histogram estimator: fourth-order Gaussian kernel, width tied to the local
# level spacing but capped away from the continuum edge.  Its tail
# (u^2/2 - 3/2) exp(-u^2/2) falls below 2^-53 of the peak 3/2 past
# |u| = 8.94, so only the modes within HIST_SUPPORT widths of w are read
HIST_SIGMA_FACTOR = 1.3
HIST_SIGMA_EDGE_CAP = 0.35
HIST_SUPPORT = 9.0

# each model remembers its forward transforms, one per real part up to sign,
# its eps schedules and its boundary values R(w + i0) b, each memo up to this
# many bytes, the oldest dropped first
_MEMO_BYTES = 1 << 24

# bound states by block LOBPCG: the first block holds LOBPCG_BLOCK columns
# that must converge and LOBPCG_GUARD that need not (they speed up the top
# one); the block doubles until its top converged Ritz value is >= 0, so
# that every eigenvalue below the threshold is in it.  A residual with Ritz
# value theta is preconditioned by (k^2 + LOBPCG_SHIFT + max(-theta, 0))^-1,
# the kinetic part of -Delta + V - theta made positive: shifts of 0.03-0.1
# took the fewest iterations on the presets and on wells up to 49 deep.  A
# column has converged when its l2 residual is below LOBPCG_TOL_FACTOR eps
# (max k^2 + max |V|): the FFT-applied operator rounds residuals to about
# 0.7 eps max k^2 (measured for M = 256 to 8192)
LOBPCG_BLOCK = 4
LOBPCG_GUARD = 2
LOBPCG_SHIFT = 0.05
LOBPCG_TOL_FACTOR = 16.0
LOBPCG_MAX_ITER = 500
LOBPCG_SEED = 2010


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-l_box, l_box)."""

    l_box: float = 40.0
    m_pts: int = 2048

    def __post_init__(self):
        if self.m_pts < 64 or (self.m_pts & (self.m_pts - 1)) != 0:
            raise ValueError("m_pts must be a power of two, at least 64")
        if self.l_box <= 0:
            raise ValueError("l_box must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.l_box / self.m_pts

    @property
    def x(self) -> np.ndarray:
        return -self.l_box + self.h * np.arange(self.m_pts)

    @property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.m_pts, d=self.h)


def pairing(u, v, h: float) -> complex:
    """Bilinear pairing <u, v> = integral u v dx (no conjugation)."""
    return complex(h * np.dot(u, v))


def l2_norm(u, h: float):
    """sqrt(h) ||u||; a stack of vectors along the last axis gives one norm each."""
    if np.ndim(u) == 1:
        return float(np.sqrt(h) * np.linalg.norm(u))
    return np.sqrt(h) * np.linalg.norm(u, axis=-1)


# ---------------------------------------------------------------------------
# potentials


def poschl_teller(x, a: float = 1.5, kappa2: float = 0.35) -> np.ndarray:
    """V(x) = -a(a+1) kappa^2 sech^2(kappa x); bound levels -kappa^2 (a-k)^2."""
    kappa = math.sqrt(kappa2)
    return -a * (a + 1.0) * kappa2 / np.cosh(kappa * x) ** 2


def gaussian_well(x, depth: float, width: float) -> np.ndarray:
    return -depth * np.exp(-(x ** 2) / (2.0 * width ** 2))


def sech2_well(x, depth: float = 2.0) -> np.ndarray:
    return -depth / np.cosh(x) ** 2


_PRESETS = {
    "poschl_teller": poschl_teller,
    "gaussian_well": gaussian_well,
    "sech2_well": sech2_well,
}


def potential_from_preset(grid: GridSpec, name: str, **params) -> np.ndarray:
    if name not in _PRESETS:
        raise ValueError(f"unknown potential preset {name!r}")
    return _PRESETS[name](grid.x, **params)


def potential_from_csv(grid: GridSpec, path) -> np.ndarray:
    """Load (x, V) samples and interpolate onto the grid."""
    data = np.loadtxt(path, delimiter=",", comments="#")
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("potential CSV must have two columns (x, V)")
    xs, vs = data[:, 0], data[:, 1]
    bad = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(vs)))
    if len(bad):
        raise ValueError(f"potential CSV sample {bad[0] + 1} is not finite: "
                         f"(x, V) = ({xs[bad[0]]}, {vs[bad[0]]})")
    if xs[0] > grid.x[0] or xs[-1] < grid.x[-1]:
        raise ValueError("potential samples do not cover the box")
    return np.interp(grid.x, xs, vs)


# ---------------------------------------------------------------------------
# operator model


def _content_digest(v: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(v).tobytes(), digest_size=12).digest()


class _Memo:
    """Values by key, in insertion order; once they hold more than
    _MEMO_BYTES, the oldest are dropped."""

    def __init__(self):
        self._items: dict = {}
        self.held = 0   # bytes of the values kept

    def get(self, key):
        hit = self._items.get(key)
        return None if hit is None else hit[0]

    def put(self, key, value, size: int):
        if key in self._items or size > _MEMO_BYTES:
            return
        self._items[key] = (value, size)
        self.held += size
        while self.held > _MEMO_BYTES:
            self.held -= self._items.pop(next(iter(self._items)))[1]


@dataclass
class ModeState:
    """Discrete amplitudes z and radiation part f (P_c f = f)."""

    z: np.ndarray
    f: np.ndarray


@dataclass
class BoundStates:
    """The discrete part of H: threshold c, bound energies and eigenvectors."""

    grid: GridSpec
    v: np.ndarray
    c: float
    lam: np.ndarray               # bound eigenvalues, lam[0] = 0
    phi: np.ndarray               # (n+1, M) bound eigenvectors, quadrature-normalized
    # LOBPCG iterations (None for the dense eigensolve) and the largest
    # eigenpair residual of the bound states, as `_validate_eigenpairs` found them
    iterations: int | None = field(default=None, kw_only=True)
    residual: float | None = field(default=None, kw_only=True)

    @property
    def n(self) -> int:
        return len(self.lam) - 1

    def apply_h(self, vec: np.ndarray) -> np.ndarray:
        """(-d2/dx2 + V + c) vec through the FFT symbol k^2."""
        self._check_grid(vec)
        return np.fft.ifft(self.grid.k ** 2 * np.fft.fft(vec)) + (self.v + self.c) * vec

    def project_pc(self, vec: np.ndarray) -> np.ndarray:
        """Remove the bound-state components (projection onto the continuum)."""
        self._check_grid(vec)
        return self.remove_bound(np.asarray(vec, dtype=complex).copy(), self.bound_weights(vec))

    def bound_weights(self, vec: np.ndarray) -> np.ndarray:
        """The quadrature pairings h <phi_j, vec> of one vector, j = 0..n."""
        h = self.grid.h
        return np.array([h * np.dot(self.phi[j], vec) for j in range(len(self.lam))],
                        dtype=complex)

    def remove_bound(self, out: np.ndarray, weights: np.ndarray, where=True) -> np.ndarray:
        """out - sum_j weights[..., j] phi_j, in place, one bound state at a
        time, on the entries `where` selects; each row of a stack takes its
        own row of weights, and comes out bit for bit as it would alone."""
        for j in range(len(self.lam)):
            np.subtract(out, weights[..., j, None] * self.phi[j], out=out, where=where)
        return out

    def _check_grid(self, vec):
        if np.shape(vec)[-1] != self.grid.m_pts:
            raise GridMismatchError(
                f"vector of length {np.shape(vec)[-1]} on grid with {self.grid.m_pts} points"
            )


@dataclass
class OperatorModel(BoundStates):
    """H in its box eigenbasis.  `mode_energies` ascend, as `build_operator`
    gives them, so the modes in any energy interval are one run of columns."""

    mode_energies: np.ndarray     # box eigenvalues of H, ascending, one per column of _evecs
    _evecs: np.ndarray = field(repr=False)   # columns, l2-normalized
    # x @ _evecs of real parts x, by the digest of x up to sign
    _coeffs: _Memo = field(default_factory=_Memo, init=False, repr=False, compare=False)
    # _lap_nodes by w
    _schedules: _Memo = field(default_factory=_Memo, init=False, repr=False, compare=False)
    # R(w + i0) b, read-only, by (w, digest of b)
    _limits: _Memo = field(default_factory=_Memo, init=False, repr=False, compare=False)

    # -- mode transforms (quadrature-normalized eigenbasis) ------------------
    # A vector or a stack of vectors along the last axis.

    def mode_coeffs(self, vec: np.ndarray) -> np.ndarray:
        """Coefficients <e_j, vec> in the full box eigenbasis.

        The real and imaginary parts of each row are transformed one at a time
        through `_part_coeffs`, so a row comes out bit for bit as it would
        alone, whatever it is stacked with.
        """
        self._check_grid(vec)
        vec = np.asarray(vec)
        rows = vec.reshape(-1, vec.shape[-1])
        if np.iscomplexobj(vec):
            out = np.empty(rows.shape, dtype=complex)
            for row, o in zip(rows, out):
                o.real = self._part_coeffs(row.real)
                o.imag = self._part_coeffs(row.imag)
        else:
            out = np.empty(rows.shape)
            for row, o in zip(rows, out):
                o[...] = self._part_coeffs(row)
        return math.sqrt(self.grid.h) * out.reshape(vec.shape)

    def _part_coeffs(self, x: np.ndarray) -> np.ndarray:
        """x @ _evecs for one real vector, by one matrix-vector product.

        The product is remembered under the digest of x or of -x, whichever
        has its first nonzero entry positive: T(-x) = -T(x) exactly under
        round-to-nearest, so a conjugate or a negated part costs no product.
        Only the sign of an exact zero differs: a negated entry has its zeros
        set to +0.0, as a fresh product whose sum cancels gives them.
        """
        x = np.asarray(x, dtype=float)
        flip = bool(x[np.argmax(x != 0)] < 0)
        key = _content_digest(np.negative(x) if flip else x)
        known = self._coeffs.get(key)
        if known is not None:
            return np.negative(known) + 0.0 if flip else known
        got = x @ self._evecs
        known = np.negative(got) + 0.0 if flip else got
        known.setflags(write=False)
        self._coeffs.put(key, known, known.nbytes)
        return got

    def from_mode_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        return _real_basis_product(coeffs, self._evecs.T) / math.sqrt(self.grid.h)


def _real_basis_product(vec, basis: np.ndarray) -> np.ndarray:
    """vec @ basis for a real matrix basis, acting on the last axis of vec.

    A complex vec is split into its real and imaginary parts, so the M x M
    basis is never copied to complex (numpy would cast it on every call).  A
    stack of two or more rows takes one product over the rows [re; im], which
    reads the basis once; a single row keeps its two matrix-vector products,
    which a two-row product would round differently.
    """
    vec = np.asarray(vec)
    if not np.iscomplexobj(vec):
        return vec @ basis
    out = np.empty(vec.shape[:-1] + basis.shape[1:], dtype=complex)
    n = math.prod(vec.shape[:-1])
    if n < 2:
        out.real = vec.real @ basis
        out.imag = vec.imag @ basis
        return out
    rows = vec.reshape(n, -1)
    both = np.concatenate((rows.real, rows.imag)) @ basis
    flat = out.reshape(n, -1)
    flat.real, flat.imag = both[:n], both[n:]
    return out


def kinetic_matrix(grid: GridSpec) -> np.ndarray:
    """Dense symmetric circulant for -d2/dx2 with the FFT symbol k^2.

    Entry (i, j) is the symmetrized column 0.5 (col[i - j] + col[j - i]),
    indices mod M; row i is that column rolled by i, read from one window
    of the column written twice.
    """
    m = grid.m_pts
    col = np.fft.ifft(grid.k ** 2).real
    col = 0.5 * (col + col[-np.arange(m) % m])
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((col, col)), m)
    return windows[m:0:-1].copy()


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Column convention, in place: the largest-magnitude component is positive.

    A column's largest and smallest entries decide its sign.  Where they tie
    in magnitude, the first entry of largest magnitude decides, as
    argmax(|v|) picks it.
    """
    top, bottom = vecs.max(axis=0), -vecs.min(axis=0)
    flip = bottom > top
    ties = np.flatnonzero(bottom == top)
    if len(ties):
        tied = vecs[:, ties]
        flip[ties] = tied[np.argmax(np.abs(tied), axis=0), np.arange(len(ties))] < 0
    vecs *= np.where(flip, -1.0, 1.0)   # a masked negative is 5x slower
    return vecs


def _edge_fraction(vec_abs: np.ndarray) -> float:
    m = len(vec_abs)
    w = max(m // 40, 4)
    edge = max(vec_abs[:w].max(), vec_abs[-w:].max())
    return float(edge / vec_abs.max())


def _checked_potential(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """V as floats; GridMismatchError unless sampled on the grid, ConfigError
    unless finite, BoundaryDecayError unless it has decayed at the box edge."""
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.m_pts,):
        raise GridMismatchError("potential not sampled on the grid")
    bad = np.flatnonzero(~np.isfinite(v))
    if len(bad):
        j = bad[0]
        raise ConfigError(f"V = {v[j]} at grid point {j} (x = {grid.x[j]:.6g}); "
                          "the potential must be finite")
    if max(abs(v[0]), abs(v[-1])) > V_BOUNDARY_DECAY:
        raise BoundaryDecayError(
            f"|V| = {max(abs(v[0]), abs(v[-1])):.3e} at the box boundary "
            f"(required < {V_BOUNDARY_DECAY:.0e}); enlarge the box"
        )
    return v


def _bound_part(grid: GridSpec, evals: np.ndarray, vecs: np.ndarray):
    """(c, energies, lam, phi) from the lowest eigenpairs of -Delta + V.

    evals ascend, one per l2-normalized column of vecs, whose signs are
    fixed in place.  c puts the ground state at 0.  The bound states are the
    boundary-localized columns below the first energy at or above c - 1e-8,
    so evals must reach that far.  Raises NumericalError for non-finite
    eigenvalues and EmptySpectrumError when there is no bound state or the
    ground state is not boundary-localized.
    """
    if not np.isfinite(evals).all():
        raise NumericalError("the eigensolver returned non-finite eigenvalues")
    if evals[0] >= -TOL_GROUND:
        raise EmptySpectrumError("empty discrete spectrum: -Delta + V has no bound state")

    c = -float(evals[0])
    energies = evals + c
    energies[0] = 0.0  # exact by construction
    _fix_signs(vecs)

    bound = []
    for j in range(len(energies)):
        if energies[j] >= c - 1e-8:
            break
        if _edge_fraction(np.abs(vecs[:, j])) < EDGE_LOCALIZATION:
            bound.append(j)
    if not bound or bound[0] != 0:
        raise EmptySpectrumError("ground state is not boundary-localized; enlarge the box")

    sqh = math.sqrt(grid.h)
    phi = np.stack([vecs[:, j] / sqh for j in bound])
    return c, energies, energies[np.array(bound)], phi


def build_operator(grid: GridSpec, v: np.ndarray) -> OperatorModel:
    """Diagonalize -Delta + V, tune c so the ground state sits exactly at 0.

    Bound states are the boundary-localized eigenvectors below c.  Raises
    ConfigError when V is not finite, EmptySpectrumError when -Delta + V >= 0
    (no discrete spectrum) and BoundaryDecayError when V fails to decay at
    the box edge.  The eigenvectors overwrite the matrix of -Delta + V, which
    becomes the model's eigenbasis.
    """
    v = _checked_potential(grid, v)
    h0 = kinetic_matrix(grid)
    h0[np.diag_indices_from(h0)] += v
    # np.linalg.eigh's gufunc under its floating-point state, which turns a
    # failed solve's NaN into LinAlgError; here `_bound_part` raises.  The
    # eigenvectors overwrite h0
    with np.errstate(all="ignore"):
        evals, evecs = _eigh_lo(h0, signature="d->dd", out=(np.empty(grid.m_pts), h0))
    c, energies, lam, phi = _bound_part(grid, evals, evecs)
    model = OperatorModel(
        grid=grid, v=v, c=c, lam=lam, phi=phi,
        mode_energies=energies, _evecs=evecs,
    )
    model.residual = _validate_eigenpairs(model)
    return model


def bound_states(grid: GridSpec, v: np.ndarray) -> BoundStates:
    """The bound states of `build_operator`, with no M x M matrix.

    Block LOBPCG on -Delta + V, applied through the FFT symbol k^2 as
    `apply_h` applies H, from a seeded random block, so that a run is
    reproducible and no parity class is missed.  The block grows until its
    top converged Ritz value is >= 0; then it holds every eigenvalue below
    the threshold, and `_bound_part` picks the bound states by the rule of
    `build_operator`, which raises the same errors.  NumericalError when the
    solver does not converge or the bound states need a block of more than
    M/4 vectors.
    """
    v = _checked_potential(grid, v)
    m = grid.m_pts
    k2 = (2.0 * np.pi * np.fft.rfftfreq(m, d=grid.h)) ** 2

    def apply_a(rows):
        return np.fft.irfft(k2 * np.fft.rfft(rows), m) + v * rows

    def precondition(rows, theta):
        shift = LOBPCG_SHIFT + np.maximum(-theta, 0.0)
        return np.fft.irfft(np.fft.rfft(rows) / (k2 + shift[:, None]), m)

    tol = LOBPCG_TOL_FACTOR * np.finfo(float).eps * (k2.max() + np.abs(v).max())
    rng = np.random.default_rng(LOBPCG_SEED)
    need = LOBPCG_BLOCK
    x = rng.standard_normal((need + LOBPCG_GUARD, m))
    iterations = 0
    while True:
        if len(x) > m // 4:
            raise NumericalError(f"the bound states need a block of more than M/4 = {m // 4} "
                                 "vectors")
        theta, x, its = _lobpcg(apply_a, precondition, x, need, tol)
        iterations += its
        if theta[need - 1] >= 0.0:
            break
        x = np.concatenate((x, rng.standard_normal((need, m))))
        need *= 2
    c, _, lam, phi = _bound_part(grid, theta[:need], x[:need].T)
    model = BoundStates(grid=grid, v=v, c=c, lam=lam, phi=phi, iterations=iterations)
    model.residual = _validate_eigenpairs(model)
    return model


def _lobpcg(apply_a, precondition, x: np.ndarray, need: int, tol: float):
    """The lowest Ritz pairs of a symmetric A by block LOBPCG from the rows x.

    Vectors are rows; `precondition(rows, theta)` takes residuals and their
    Ritz values.  Each iteration is a Rayleigh-Ritz step on [X; W; P]:
    X the Ritz vectors, W the preconditioned residuals of the rows not yet
    converged and P their last search directions, each block orthonormal and
    orthogonal to the blocks before it (Hetmaniuk and Lehoucq, J. Comput.
    Phys. 218 (2006)).  Only the first `need` rows must converge; the rest
    are guards, always refined.  Returns (Ritz values, ascending; Ritz
    vectors, orthonormal rows; iterations) once the first `need` residuals
    ||A x - theta x|| are at most tol.
    """
    x = _orthonormal_rows(x)
    size = len(x)
    p = None
    for iterations in range(LOBPCG_MAX_ITER + 1):
        ax = apply_a(x)
        gram = x @ ax.T
        theta, coef = np.linalg.eigh(0.5 * (gram + gram.T))
        x, ax = coef.T @ x, coef.T @ ax
        r = ax - theta[:, None] * x
        res = np.linalg.norm(r, axis=1)
        if res[:need].max() <= tol:
            return theta, x, iterations
        active = res > tol
        active[need:] = True
        blocks = [x, _orthonormal_rows(precondition(r[active], theta[active]), x)]
        if p is not None:
            blocks.append(_orthonormal_rows(p, np.concatenate(blocks)))
        s = np.concatenate(blocks)
        gram = s @ np.concatenate((ax, apply_a(s[size:]))).T
        coef = np.linalg.eigh(0.5 * (gram + gram.T))[1][:, :size]
        x = coef.T @ s
        p = coef[size:, active].T @ s[size:]
    raise NumericalError(f"the bound-state solver did not converge in {LOBPCG_MAX_ITER} "
                         f"iterations: residual {res[:need].max():.2e} > {tol:.2e}")


def _orthonormal_rows(y: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal rows spanning the rows of y, orthogonal to the orthonormal
    rows of `basis`: two passes of projection and SVQB (Stathopoulos and Wu,
    SIAM J. Sci. Comput. 23 (2002)), which drop the directions whose squared
    norm is below 1e-14 of the largest."""
    for _ in range(2):
        if basis is not None:
            y = y - (y @ basis.T) @ basis
        d, u = np.linalg.eigh(y @ y.T)
        keep = d > 1e-14 * d.max(initial=0.0)
        y = (u[:, keep] / np.sqrt(d[keep])).T @ y
    return y


def _validate_eigenpairs(model: BoundStates) -> float:
    """The largest eigenpair residual; NumericalError when the bound states
    fail quadrature orthonormality or a residual exceeds TOL_EIG_RESIDUAL."""
    h = model.grid.h
    nb = len(model.lam)
    gram = h * (model.phi @ model.phi.T)
    if np.max(np.abs(gram - np.eye(nb))) > 1e-10:
        raise NumericalError("bound eigenvectors fail quadrature orthonormality")
    worst = 0.0
    for j in range(nb):
        res = l2_norm(model.apply_h(model.phi[j]) - model.lam[j] * model.phi[j], h)
        if res > TOL_EIG_RESIDUAL:
            raise NumericalError(f"eigenpair residual {res:.2e} for mode {j}")
        worst = max(worst, res)
    return worst


# ---------------------------------------------------------------------------
# coordinates


def project_modes(u: np.ndarray, model: BoundStates) -> ModeState:
    """Split u = z . phi + f with f in the continuum subspace.

    A stack of states along the last axis gives stacked z and f.
    """
    model._check_grid(u)
    u = np.asarray(u, dtype=complex)
    z = model.grid.h * _real_basis_product(u, model.phi.T)
    f = u - _real_basis_product(z, model.phi)
    return ModeState(z=z, f=f)


# ---------------------------------------------------------------------------
# resolvents


def resolvent_apply(model: OperatorModel, zeta: complex, b: np.ndarray) -> np.ndarray:
    """Solve (H - zeta) x = b through the eigenbasis.

    Real zeta must lie below the continuum threshold.  Within 1e-8 of a
    discrete eigenvalue it is refused unless b's weight on that eigenvector is
    at most 1e-10 of its norm; then the component is dropped, which is the
    resolvent of H restricted to the eigenvector's orthogonal complement.
    """
    model._check_grid(b)
    zeta = complex(zeta)
    e = model.mode_energies
    coeffs = model.mode_coeffs(np.asarray(b, dtype=complex))
    bnorm = float(np.linalg.norm(coeffs))
    if bnorm == 0.0:
        return np.zeros(model.grid.m_pts, dtype=complex)

    if zeta.imag == 0.0:
        s = zeta.real
        if s > model.c - 1e-12:
            raise SingularResolventError(
                f"real resolvent argument {s:.6g} inside the continuum [c, inf); "
                "use a +/- i*eps side or resolvent_limit"
            )
        kill = np.zeros(len(e), dtype=bool)
        for j, lj in enumerate(model.lam):
            if abs(lj - s) < 1e-8:
                if abs(coeffs[j]) > 1e-10 * bnorm:
                    raise SingularResolventError(
                        f"resolvent argument {s:.6g} hits the eigenvalue lambda_{j} = {lj:.6g}"
                    )
                kill[j] = True
        denom = e - s
        out_coeffs = np.where(kill, 0.0, coeffs / np.where(kill, 1.0, denom))
    else:
        out_coeffs = coeffs / (e - zeta)

    x = model.from_mode_coeffs(out_coeffs)
    resid = model.apply_h(x) - zeta * x - np.asarray(b, dtype=complex)
    if zeta.imag == 0.0 and np.any(np.abs(model.lam - zeta.real) < 1e-8):
        # reduced solve: the residual equals the dropped component, by design
        resid = model.project_pc(resid)
    rnorm = l2_norm(resid, model.grid.h) / l2_norm(b, model.grid.h)
    if rnorm > TOL_RESOLVENT:
        raise NumericalError(f"resolvent residual {rnorm:.2e} exceeds {TOL_RESOLVENT:.0e}")
    return x


def lap_eps_schedule(model: OperatorModel, w: float) -> np.ndarray:
    """Geometric eps nodes decaying from (w-c)/2, cut at the box floor.

    The floor keeps the Lorentzian width above the discrete level spacing of
    the box; on large boxes the node count (not the floor) ends the schedule.
    """
    a = w - model.c
    if a <= 0:
        raise ValueError("schedule requested below the continuum threshold")
    efloor = LAP_FLOOR * math.sqrt(a) / model.grid.l_box
    nodes = []
    e = LAP_EMAX_FRAC * a
    while len(nodes) < LAP_NODES and (e >= efloor or len(nodes) < 3):
        nodes.append(e)
        e *= LAP_RATIO
    return np.array(nodes)


def _box_noise(model: OperatorModel, w: float, eps: np.ndarray) -> np.ndarray:
    """Relative level-discreteness error of the Lorentzian average at each node.

    Poisson summation over box levels of spacing 2 pi sqrt(a)/L leaves the
    aliasing term exp(-L eps/sqrt(a)); it is counted once for each of the two
    interleaved level families (even and odd states, or +k and -k).
    """
    return 2.0 * np.exp(-model.grid.l_box * np.asarray(eps, dtype=float)
                        / math.sqrt(w - model.c))


def _lap_nodes(model: OperatorModel, w: float):
    """(eps, weights, gains) at w, computed once per model and w.

    eps is `lap_eps_schedule(model, w)`.  Row d of the stacked weights gives
    the value at eps = 0 of the degree-d least-squares fit in eps/max(eps);
    gains[d] = sum_i |weights[d, i]| noise_i carries the relative box error
    noise of `_box_noise` through that fit.
    """
    nodes = model._schedules.get(w)
    if nodes is None:
        eps = lap_eps_schedule(model, w)
        t = eps / eps.max()
        weights = np.stack([np.linalg.pinv(np.vander(t, deg + 1, increasing=True))[0]
                            for deg in range(len(eps))])
        noise = _box_noise(model, w, eps)
        gains = np.array([float(np.abs(wt) @ noise) for wt in weights])
        nodes = (eps, weights, gains)
        model._schedules.put(w, nodes, eps.nbytes + weights.nbytes + gains.nbytes)
    return nodes


def _extrapolate(nodes, vals: np.ndarray):
    """Polynomial extrapolation of stacked node data to eps = 0, with its error.

    nodes is (eps, weights, gains) of `_lap_nodes`.
    vals[i] is sampled at eps[i] and carries the relative box error noise[i].
    Least-squares polynomials of every degree d in eps give limits v_d.  The
    box error reaches v_d amplified by its fit weights, A_d = sum_i |w_di|
    noise_i (in units of the data at the smallest node); its truncation error
    is judged by its largest disagreement with the higher-degree limits, T_d =
    max_{d' > d} |v_d' - v_d|.  A low degree is biased (eps/a is not small on
    the nodes) and a high one amplifies the box error, so the degree with the
    least T_d + A_d is taken.  The error returned is LAP_ERROR_SAFETY times
    that sum, as a max-abs bound over the components (infinite for a single
    node).  Returns (value, error).
    """
    eps, weights, gains = nodes
    n = len(eps)
    flat = np.asarray(vals).reshape(n, -1)
    scale = float(np.max(np.abs(flat[np.argmin(eps)]), initial=0.0))
    # one product per degree: a matrix product over all degrees rounds
    # differently from these
    limits = np.stack([wt @ flat for wt in weights])
    best, best_err = 0, math.inf
    for deg in range(n - 1):
        trunc = float(np.max(np.abs(limits[deg + 1:] - limits[deg]), initial=0.0))
        if trunc + gains[deg] * scale < best_err:
            best, best_err = deg, float(trunc + gains[deg] * scale)
    # a copy, so that a kept limit does not hold the stack of all degrees
    return limits[best].reshape(np.shape(vals)[1:]).copy(), LAP_ERROR_SAFETY * best_err


def resolvent_limit(
    model: OperatorModel,
    w: float,
    b: np.ndarray,
    side: str = "+",
) -> np.ndarray:
    """Boundary value R(w +/- i0) b on the continuous spectrum, extrapolated.

    Polynomial extrapolation of R(w + i eps) b over the eps schedule, one
    degree for all components (`_extrapolate`).  For the real-symmetric H
    the '-' side is conj(R(w + i0) conj(b)), the numbers its own
    extrapolation gives up to the sign of exact zeros, so only the '+' side
    is solved, once per model, w and b (`_plus_limit`).  The result is the
    caller's to write into.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    b = np.asarray(b, dtype=complex)
    if w <= model.c:
        return resolvent_apply(model, w, b)
    if side == "-":
        return np.conj(_plus_limit(model, w, np.conj(b)))
    return _plus_limit(model, w, b).copy()


def _plus_limit(model: OperatorModel, w: float, b: np.ndarray) -> np.ndarray:
    """R(w + i0) b for w above c, read-only, remembered by w and the bytes of b."""
    key = (w, _content_digest(b))
    known = model._limits.get(key)
    if known is None:
        nodes = _lap_nodes(model, w)
        e = model.mode_energies
        coeffs = model.mode_coeffs(b)
        # back-transform every node, then extrapolate in space: `_extrapolate`
        # picks its degree from the max-abs disagreement over the components
        sols = model.from_mode_coeffs(coeffs / (e - (w + 1j * nodes[0][:, None])))
        known = _extrapolate(nodes, sols)[0]
        known.setflags(write=False)
        model._limits.put(key, known, known.nbytes)
    return known


# ---------------------------------------------------------------------------
# spectral density (Fermi-golden-rule quadratic form)


@dataclass
class DensityResult:
    value: float
    below_continuum: bool = False
    unreliable: bool = False
    small_signal: bool = False
    error_estimate: float = 0.0


def _continuum_weights(model: OperatorModel, phis, window=None) -> tuple[np.ndarray, np.ndarray]:
    """(energies, coefficient matrix) over continuum box modes only.

    `window`, a slice of the ascending `mode_energies`, narrows them to the
    continuum modes it selects; only those columns of the eigenbasis are
    read, through a view.
    """
    start = len(model.lam)
    vecs = np.atleast_2d(phis)
    if window is None:
        return model.mode_energies[start:], model.mode_coeffs(vecs)[:, start:]
    model._check_grid(vecs)
    columns = model._evecs[:, window]
    return model.mode_energies[window], math.sqrt(model.grid.h) * _real_basis_product(vecs, columns)


def _lap_gram(model: OperatorModel, w: float, e: np.ndarray, cm: np.ndarray, kernel):
    """eps -> 0 limit of the Gram matrices conj(cm) K_eps cm^T, with its error.

    (e, cm) are the continuum energies and coefficients of `_continuum_weights`;
    `kernel(d, eps)` is the eps-smoothed kernel at d = e - w: the Lorentzian
    (delta form) or its principal-value partner.
    """
    nodes = _lap_nodes(model, w)
    mats = np.conj(cm) * kernel(e - w, nodes[0][:, None])[:, None, :] @ cm.T
    return _extrapolate(nodes, mats)


def _lorentzian(d, eps):
    return (eps / np.pi) / (d ** 2 + eps ** 2)


def _pv_kernel(d, eps):
    return d / (d ** 2 + eps ** 2)


def spectral_density_form(
    model: OperatorModel,
    w: float,
    phi: np.ndarray,
    details: bool = False,
):
    """<delta(H - w) conj(phi), phi> by extrapolated limiting absorption.

    Primary estimator: Im <phi, R(w + i eps) phi> / pi on the continuum modes,
    evaluated on a geometric eps schedule and extrapolated to eps = 0 by the
    least-squares polynomial whose degree balances truncation bias against the
    amplified box error (`_extrapolate`).  `error_estimate` is that
    extrapolation's error bound; `unreliable` is set (with a warning) when it
    exceeds a quarter of the value.  Returns 0 with a flag for w at or below
    the continuum threshold.
    """
    model._check_grid(phi)
    phi = np.asarray(phi, dtype=complex)
    norm2 = l2_norm(phi, model.grid.h) ** 2
    if w <= model.c + 1e-12:
        res = DensityResult(value=0.0, below_continuum=True)
        return res if details else res.value
    if norm2 == 0.0:
        res = DensityResult(value=0.0)
        return res if details else res.value

    gram, err = _lap_gram(model, w, *_continuum_weights(model, phi), _lorentzian)
    value = float(gram[0, 0].real)
    unreliable = err > 0.25 * max(abs(value), 1e-300) and abs(value) > 1e-14 * norm2
    if unreliable:
        import warnings

        warnings.warn(f"spectral density extrapolation unreliable at w = {w:.6g}")
    small = abs(value) < 5e-3 * norm2 * _density_scale(model, w)
    if value < 0.0 and -value <= max(err, 1e-12 * norm2):
        value = 0.0
    res = DensityResult(value=value, unreliable=unreliable, small_signal=small, error_estimate=err)
    return res if details else res.value


def _density_scale(model: OperatorModel, w: float) -> float:
    # crude scale of a unit-norm density at energy w: 1/(2 pi sqrt(a)) free value
    return 1.0 / (2.0 * math.pi * math.sqrt(w - model.c))


def histogram_density(model: OperatorModel, w: float, phi: np.ndarray) -> float:
    """Secondary estimator: box-spectrum histogram, fourth-order Gaussian kernel.

    The 1x1 histogram `density_gram`: it reads only the continuum modes
    within HIST_SUPPORT kernel widths of w.
    """
    model._check_grid(phi)
    return float(density_gram(model, w, [phi])[0, 0].real)


def density_gram(
    model: OperatorModel,
    w: float,
    phis,
    estimator: str = "histogram",
) -> np.ndarray:
    """Hermitian matrix G_ab = <delta(H - w) conj(phi_a), phi_b>.

    The quadratic form of any packet of couplings at frequency w; `estimator`
    selects the histogram kernel (default, accurate on desk-size boxes) or the
    extrapolated limiting absorption route.  The histogram transforms each
    vector onto the continuum modes within HIST_SUPPORT kernel widths of w
    only, where the kernel is above 2^-53 of its peak: O(M W) work for a
    window of W modes, against the O(M^2) full transform that LAP takes.
    """
    phis = [np.asarray(p, dtype=complex) for p in phis]
    nv = len(phis)
    if w <= model.c + 1e-12 or nv == 0:
        return np.zeros((nv, nv), dtype=complex)
    if estimator == "histogram":
        a = w - model.c
        spacing = 2.0 * math.sqrt(a) * math.pi / model.grid.l_box
        sigma = min(HIST_SIGMA_FACTOR * spacing, HIST_SIGMA_EDGE_CAP * a)
        # |e - w| <= HIST_SUPPORT sigma; e - w ascends with the energies
        d = model.mode_energies - w
        lo = max(int(np.searchsorted(d, -HIST_SUPPORT * sigma)), len(model.lam))
        hi = int(np.searchsorted(d, HIST_SUPPORT * sigma, side="right"))
        e, cm = _continuum_weights(model, phis, slice(lo, hi))
        u = (e - w) / sigma
        kern = np.exp(-u ** 2 / 2.0) / (sigma * math.sqrt(2.0 * math.pi)) * (1.5 - u ** 2 / 2.0)
        g = np.conj(cm) * kern @ cm.T
    elif estimator == "lap":
        g, _ = _lap_gram(model, w, *_continuum_weights(model, phis), _lorentzian)
    else:
        raise ValueError("estimator must be 'histogram' or 'lap'")
    return 0.5 * (g + np.conj(g.T))


def pv_gram(model: OperatorModel, w: float, phis) -> np.ndarray:
    """Hermitian matrix of principal-value pairings <P.V. (H - w)^{-1} conj(phi_a), phi_b>."""
    phis = [np.asarray(p, dtype=complex) for p in phis]
    nv = len(phis)
    if nv == 0:
        return np.zeros((0, 0), dtype=complex)
    g, _ = _lap_gram(model, w, *_continuum_weights(model, phis), _pv_kernel)
    return 0.5 * (g + np.conj(g.T))


def threshold_blowup_report(model: OperatorModel) -> dict:
    """(H4) proxy: growth of ||R(c - delta) b|| as delta -> 0.

    A threshold resonance shows up as growth ~ 1/delta; the generic rate in
    1-D is ~ 1/sqrt(delta).  Reported, never enforced.
    """
    h = model.grid.h
    probe = model.project_pc(np.exp(-model.grid.x ** 2 / 8.0).astype(complex))
    gap = model.c - (model.lam[-1] if len(model.lam) else model.c - 1.0)
    deltas = np.array([0.2, 0.1, 0.05, 0.025]) * gap
    norms = []
    for d in deltas:
        x = resolvent_apply(model, model.c - d, probe)
        norms.append(l2_norm(x, h))
    norms = np.array(norms)
    rates = np.log(norms[1:] / norms[:-1]) / np.log(deltas[1:] / deltas[:-1])
    return {
        "deltas": deltas.tolist(),
        "norms": norms.tolist(),
        "growth_exponents": rates.tolist(),
        "suspicious": bool(np.any(rates < -0.9)),
    }


def export_eigenpairs_csv(model: BoundStates, path):
    """Columns x, phi_0 ... phi_n; eigenvalue row is embedded as a comment."""
    header = "x," + ",".join(f"phi_{j}" for j in range(len(model.lam)))
    meta = "eigenvalues: " + ", ".join(f"{l:.12g}" for l in model.lam) + f"; c: {model.c:.12g}"
    data = np.column_stack([model.grid.x] + [model.phi[j] for j in range(len(model.lam))])
    np.savetxt(path, data, delimiter=",", header=meta + "\n" + header)
