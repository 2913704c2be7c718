"""Exact monomial algebra for time-periodic mode/radiation Hamiltonians.

A term is

    coeff * e^{i m t} z^mu conj(z)^nu
          * prod_i <Phi_i, f> * prod_j <Psi_j, conj(f)>
          * <f^a conj(f)^b, tail>

with grid-sampled coupling vectors and the bilinear pairing <u, v> = int u v.
The quartic marker (a = b = 2, no tail vector) stands for (1/4) int |f|^4.
Coupling vectors attached to f-pairings are stored projected onto the
continuum subspace; this leaves every evaluation unchanged (P_c f = f) and
makes Poisson-bracket pairings exact without extra projections.

Degree bookkeeping follows the closure ledger: a term is balanced when
|mu| + #alphas + a = |nu| + #betas + b = L + 1, and Lie derivatives along a
generator of order M_0 raise L by exactly M_0 while harmonics obey
|m'| <= m_0 + |m|.  These two laws are asserted on every generated term.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import add

import numpy as np

from .errors import GeneratorClassError, LedgerViolation, NlsnfError
from .spectral import GridSpec, OperatorModel, pairing

MERGE_TOL = 1e-14   # absolute coefficient merge tolerance
REALITY_TOL = 1e-12

QUARTIC = "quartic"  # tail sentinel for (1/4) int f^2 conj(f)^2


def _vec(v) -> np.ndarray:
    return np.asarray(v, dtype=complex)


def monomials(z, mu, nu):
    """z^mu conj(z)^nu for nonnegative integer exponents, with 0^0 = 1.

    `mu` and `nu` are one exponent pair of shape (n,), which gives a scalar,
    or a stacked table of shape (K, n), which gives the K monomials as a (K,)
    array.  Leading axes of z broadcast: a stack of states z[:, None, :]
    against a table gives an (S, K) array.
    """
    z = np.asarray(z, dtype=complex)
    return (z ** np.asarray(mu)).prod(axis=-1) * (np.conj(z) ** np.asarray(nu)).prod(axis=-1)


def exponent_table(items, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The (K, n_modes) mu and nu tables of K items that carry .mu and .nu."""
    return (np.array([t.mu for t in items], dtype=int).reshape(-1, n_modes),
            np.array([t.nu for t in items], dtype=int).reshape(-1, n_modes))


def _structure_error(mu, nu, alphas, betas, a, b, tail) -> str | None:
    """Why (mu, nu, alphas, betas, a, b, tail) is not a valid term, or None."""
    if len(mu) != len(nu):
        return "mu and nu must have equal length"
    if min(mu, default=0) < 0 or min(nu, default=0) < 0:
        return "exponents must be nonnegative"
    if a + b > 4:
        return "a + b must not exceed 4"
    if tail is QUARTIC:
        if (a, b) != (2, 2) or alphas or betas:
            return "quartic marker requires a = b = 2 and no linear factors"
    elif a + b >= 2:
        if tail is None:
            return "tail vector required when a + b >= 2"
    elif a + b == 1:
        return "single f-powers must be folded into alphas/betas"
    elif tail is not None:
        return "tail present without f-powers"
    return None


class HamTerm:
    """One monomial.  Treated as immutable after construction."""

    __slots__ = ("coeff", "m", "mu", "nu", "alphas", "betas", "a", "b", "tail")

    def __init__(self, coeff, m, mu, nu, alphas=(), betas=(), a=0, b=0, tail=None):
        self.coeff = complex(coeff)
        self.m = int(m)
        self.mu = tuple(int(e) for e in mu)
        self.nu = tuple(int(e) for e in nu)
        self.alphas = tuple(_vec(v) for v in alphas)
        self.betas = tuple(_vec(v) for v in betas)
        self.a = int(a)
        self.b = int(b)
        self.tail = tail if (tail is None or tail is QUARTIC) else _vec(tail)
        error = _structure_error(self.mu, self.nu, self.alphas, self.betas,
                                 self.a, self.b, self.tail)
        if error:
            raise ValueError(error)

    @classmethod
    def _checked(cls, coeff, m, mu, nu, alphas, betas, a, b, tail) -> "HamTerm":
        """A term from canonical parts that already passed _structure_error:
        int tuples mu and nu, complex vectors, int a and b."""
        term = object.__new__(cls)
        term.coeff = complex(coeff)
        term.m, term.mu, term.nu = m, mu, nu
        term.alphas, term.betas = alphas, betas
        term.a, term.b, term.tail = a, b, tail
        return term

    # -- structure -----------------------------------------------------------

    @property
    def kind(self) -> str:
        nf = len(self.alphas) + len(self.betas) + self.a + self.b
        if nf == 0:
            return "scalar"
        if nf == 1:
            return "linear_f" if self.alphas else "linear_fbar"
        return "composite"

    @property
    def vector(self) -> np.ndarray:
        """Coupling vector of a linear term (including its scalar factor)."""
        if self.kind == "linear_f":
            return self.coeff * self.alphas[0]
        if self.kind == "linear_fbar":
            return self.coeff * self.betas[0]
        raise ValueError("vector defined only for linear terms")

    def ledger_sides(self) -> tuple[int, int]:
        return (sum(self.mu) + len(self.alphas) + self.a,
                sum(self.nu) + len(self.betas) + self.b)

    @property
    def is_balanced(self) -> bool:
        lhs, rhs = self.ledger_sides()
        return lhs == rhs

    @property
    def ledger(self) -> int:
        """L with |mu| + #alphas + a = L + 1 (balanced terms only)."""
        lhs, rhs = self.ledger_sides()
        if lhs != rhs:
            raise LedgerViolation(f"unbalanced term: ledger sides {lhs} != {rhs}")
        return lhs - 1

    @property
    def size(self) -> int:
        """max of the two ledger sides; degree bound for truncation."""
        return max(self.ledger_sides())

    def scaled(self, factor: complex) -> "HamTerm":
        return HamTerm._checked(self.coeff * factor, self.m, self.mu, self.nu,
                                self.alphas, self.betas, self.a, self.b, self.tail)

    def with_vector(self, vector) -> "HamTerm":
        """Replace the coupling of a linear term, absorbing the scalar factor."""
        if self.kind == "linear_f":
            return HamTerm(1.0, self.m, self.mu, self.nu, alphas=(vector,))
        if self.kind == "linear_fbar":
            return HamTerm(1.0, self.m, self.mu, self.nu, betas=(vector,))
        raise ValueError("with_vector defined only for linear terms")

    # -- evaluation -----------------------------------------------------------

    def f_factor(self, f: np.ndarray, h: float) -> complex:
        """The radiation part: the pairings with f and conj(f) and the tail."""
        val = 1.0 + 0.0j
        fb = np.conj(f)
        for p in self.alphas:
            val *= pairing(p, f, h)
        for p in self.betas:
            val *= pairing(p, fb, h)
        if self.tail is QUARTIC:
            val *= 0.25 * pairing(f ** 2, fb ** 2, h)
        elif self.tail is not None:
            val *= pairing(f ** self.a * fb ** self.b, self.tail, h)
        return val

    def mirror(self) -> "HamTerm":
        """Conjugate-mirror m -> -m, mu <-> nu, couplings conjugated."""
        tail = self.tail
        if tail is not None and tail is not QUARTIC:
            tail = np.conj(tail)
        return HamTerm(np.conj(self.coeff), -self.m, self.nu, self.mu,
                       alphas=tuple(np.conj(p) for p in self.betas),
                       betas=tuple(np.conj(p) for p in self.alphas),
                       a=self.b, b=self.a, tail=tail)

    def __repr__(self):
        return (f"HamTerm({self.coeff:.3g}, m={self.m}, mu={self.mu}, nu={self.nu}, "
                f"kind={self.kind})")


def scalar_term(coeff, m, mu, nu) -> HamTerm:
    return HamTerm(coeff, m, mu, nu)


def linear_f_term(m, mu, nu, phi) -> HamTerm:
    return HamTerm(1.0, m, mu, nu, alphas=(phi,))


def linear_fbar_term(m, mu, nu, psi) -> HamTerm:
    return HamTerm(1.0, m, mu, nu, betas=(psi,))


def _content_digest(v: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(v).tobytes(), digest_size=12).digest()


def _digester(held):
    """The factor-vector digest of one merge.

    The vectors of the terms in `held`, which the caller keeps alive for the
    whole merge, are hashed once and cached by id().  Any other vector, such
    as one a Lie output creates, is hashed by content where it is seen and
    never cached: it may be freed, and its id reused, within the merge.
    """
    cache = {id(v): None for t in held
             for v in t.alphas + t.betas + (() if t.tail is None or t.tail is QUARTIC
                                            else (t.tail,))}

    def digest(v: np.ndarray) -> bytes:
        key = id(v)
        if key not in cache:
            return _content_digest(v)
        d = cache[key]
        if d is None:
            d = cache[key] = _content_digest(v)
        return d

    return digest


def _merge(raw, digest, degree_cap=None, dropped=None) -> list[HamTerm]:
    """Merge raw terms (coeff, m, mu, nu, alphas, betas, a, b, tail).

    The parts are canonical and checked: int tuples mu and nu, tuples of
    complex vectors, an a + b = 1 tail already folded.  Scalar, linear and
    quartic-marker terms merge on (m, mu, nu); other composites merge on the
    indices plus the digests of every factor vector.  Sums within MERGE_TOL
    of zero vanish.  The survivors come out scalars first, then linear_f,
    linear_fbar, quartic markers and composites, each in first-seen order.
    With a degree_cap, a survivor of size s with 2 s > degree_cap goes to
    `dropped` in that order and is never built; its bucket holds only its
    summed coefficient (summed vector for a linear term) and its size.
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

    # (size, coefficient, parts); parts None for an over-cap composite
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


class HamExpansion:
    """Multiset of terms; scalar and linear terms merge on (m, mu, nu).

    Composite terms merge on the full symbolic signature (indices plus the
    content hashes of every factor vector); without this, iterated Lie
    derivatives multiply the term count geometrically.
    """

    def __init__(self, terms=()):
        self.terms: list[HamTerm] = list(terms)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __add__(self, other):
        return HamExpansion(self.terms + list(other))

    def scaled(self, factor: complex) -> "HamExpansion":
        return HamExpansion([t.scaled(factor) for t in self.terms])

    def merged(self) -> "HamExpansion":
        """Canonical form: merge mergeable kinds, drop negligible terms."""
        # self.terms keeps every vector alive, so its id() digests stay valid
        return HamExpansion(_merge(
            ((t.coeff, t.m, t.mu, t.nu, t.alphas, t.betas, t.a, t.b, t.tail)
             for t in self.terms),
            _digester(self.terms)))

    def evaluate(self, t: float, z, f, h: float) -> complex:
        z = np.asarray(z, dtype=complex)
        f = np.asarray(f, dtype=complex)
        coeffs = np.array([term.coeff for term in self.terms], dtype=complex)
        m = np.array([term.m for term in self.terms], dtype=int)
        radiation = np.array([term.f_factor(f, h) for term in self.terms], dtype=complex)
        zmons = monomials(z, *exponent_table(self.terms, len(z)))
        return complex(np.sum(coeffs * np.exp(1j * m * t) * zmons * radiation))

    def select(self, pred) -> "HamExpansion":
        return HamExpansion([t for t in self.terms if pred(t)])


# ---------------------------------------------------------------------------
# bracket with the quadratic part H_F


def bracket_hf(term: HamTerm, lam: np.ndarray, model: OperatorModel | None = None) -> HamTerm:
    """{H_F, term} for scalar and linear terms.

    Scalar terms scale by i(lambda.(mu - nu) - m); linear couplings pick up the
    operator factor +/- i (H - shift), applied through the spectral model.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(term.mu)
    nu = np.asarray(term.nu)
    omega = float(lam @ (mu - nu)) - term.m
    if term.kind == "scalar":
        return term.scaled(1j * omega)
    if term.kind == "linear_f":
        if model is None:
            raise ValueError("linear terms need the operator model")
        # shift lambda.(nu - mu) + m equals -omega
        new = 1j * (model.apply_h(term.vector) + omega * term.vector)
        return term.with_vector(new)
    if term.kind == "linear_fbar":
        if model is None:
            raise ValueError("linear terms need the operator model")
        new = -1j * (model.apply_h(term.vector) - omega * term.vector)
        return term.with_vector(new)
    raise NlsnfError("bracket_hf covers scalar and linear terms only")


# ---------------------------------------------------------------------------
# generator class and Lie derivatives


@dataclass
class GeneratorInfo:
    m0: int
    big_m0: int


def generator_info(chi: HamExpansion) -> GeneratorInfo:
    """Validate the admissible generator shape and infer (m0, M0)."""
    big_m0 = None
    m0 = 0
    for t in chi.terms:
        smu, snu = sum(t.mu), sum(t.nu)
        if t.kind == "scalar":
            if smu != snu:
                raise GeneratorClassError("generator scalar terms need |mu| = |nu|")
            m_here = smu - 1
        elif t.kind == "linear_f":
            if smu != snu - 1:
                raise GeneratorClassError("generator <Phi, f> terms need |mu| = |nu| - 1")
            m_here = smu
        elif t.kind == "linear_fbar":
            if snu != smu - 1:
                raise GeneratorClassError("generator <Psi, conj f> terms need |nu| = |mu| - 1")
            m_here = snu
        else:
            raise GeneratorClassError("generator terms must be scalar or linear")
        if m_here < 1:
            raise GeneratorClassError("generator order M0 must be at least 1")
        if big_m0 is None:
            big_m0 = m_here
        elif big_m0 != m_here:
            raise GeneratorClassError(f"mixed generator orders {big_m0} and {m_here}")
        m0 = max(m0, abs(t.m))
    if big_m0 is None:
        raise GeneratorClassError("empty generator")
    return GeneratorInfo(m0=m0, big_m0=big_m0)


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
        out.append(output(scale * power, slots, a, b, g.tail * vec))
    return out


def lie_derivative(chi: HamExpansion, g, model: OperatorModel,
                   degree_cap: int | None = None,
                   dropped: DropLedger | None = None) -> HamExpansion:
    """lie_chi(g) = {g, chi} for a generator-class chi, merged.

    Every raw output is checked before it is merged: the structural rules of
    HamTerm; on outputs of a balanced input the closure ledger (sizes grow by
    exactly M0); |m'| <= m0 + |m|; and fewer than four f-powers on a tail.
    Survivors of the merge within degree_cap are built as terms; those over
    it are counted into `dropped` and never built.  Without a cap every
    survivor is built.
    """
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
                    yield raw

    return HamExpansion(_merge(outputs(), _digester(chi.terms + terms),
                               degree_cap, dropped))


@dataclass
class DropLedger:
    """Lie outputs discarded by the degree cap (the observed remainder class).

    The outputs over the cap are merged like any others and counted here,
    but never built as terms: `count`, `by_size` and `coeff_mass` are those
    of the merged sums over the cap, added in merge order.
    normal_form_round merges a chain's ledger once per block it feeds: K's
    twice, for its Lie tail and the Taylor block of H_F.
    """

    count: int = 0
    coeff_mass: float = 0.0
    by_size: dict = field(default_factory=dict)

    def add(self, size: int, coeff: complex):
        self.count += 1
        self.coeff_mass += abs(complex(coeff))
        self.by_size[size] = self.by_size.get(size, 0) + 1

    def merge(self, other: "DropLedger"):
        self.count += other.count
        self.coeff_mass += other.coeff_mass
        for k, v in other.by_size.items():
            self.by_size[k] = self.by_size.get(k, 0) + v


def lie_series(
    chi: HamExpansion,
    ham: HamExpansion,
    model: OperatorModel,
    n0: int,
    degree_cap: int,
) -> tuple[list[HamExpansion], DropLedger]:
    """The capped Lie powers [lie^1(ham), ..., lie^k(ham)], k <= n0.

    Terms whose polynomial degree 2(L + 1) exceeds degree_cap are dropped and
    counted: they belong to the observed-only remainder class, whose bound
    carries the exponent degree_cap in the field amplitudes.  They are merged
    and counted but never built (see lie_derivative); the merge hashes each
    factor vector by content, caching by id() only the vectors chi and the
    input hold for the whole call.  The chain stops at the first power the
    cap empties.  The caller weights the powers (1/l! for ham o F - ham).
    """
    dropped = DropLedger()
    powers: list[HamExpansion] = []
    if len(chi) == 0 or len(ham) == 0:
        return powers, dropped
    current = ham
    for _ in range(n0):
        current = lie_derivative(chi, current, model, degree_cap, dropped)
        if not len(current):
            break
        powers.append(current)
    return powers, dropped


# ---------------------------------------------------------------------------
# reality symmetry


_MIRROR_KIND = {"scalar": "scalar", "linear_f": "linear_fbar",
                "linear_fbar": "linear_f", QUARTIC: QUARTIC}


def check_reality(ham: HamExpansion, grid: GridSpec, tol: float = REALITY_TOL):
    """True iff every term's conjugate mirror is present with conjugate data.

    Scalar, linear and quartic-marker terms are compared structurally after
    merging; the other composite terms are compared bucketwise through
    deterministic probe states (a bucket is the set of terms sharing
    (m, mu, nu, a, b, #alphas, #betas)).
    Returns (ok, first_violation_description).
    """
    ham = ham.merged()
    h = grid.h
    scale = max((abs(t.coeff) * (1.0 + sum(np.max(np.abs(p)) for p in t.alphas + t.betas))
                 for t in ham.terms), default=0.0)
    if scale == 0.0:
        return True, None
    tol_abs = tol * max(scale, 1.0)

    # scalar, linear and quartic-marker terms: a merged term per (kind, m, mu, nu)
    structural = {}
    for t in ham.terms:
        kind = QUARTIC if t.tail is QUARTIC else t.kind
        if kind in _MIRROR_KIND:
            value = t.coeff if kind in ("scalar", QUARTIC) else t.vector
            structural[(kind, t.m, t.mu, t.nu)] = value
    for (kind, m, mu, nu), value in structural.items():
        other = structural.get((_MIRROR_KIND[kind], -m, nu, mu))
        if other is None or np.max(np.abs(np.conj(value) - other)) > tol_abs:
            return False, f"{kind} term (m={m}, mu={mu}, nu={nu}) has no conjugate mirror"

    comps = [t for t in ham.terms if t.kind == "composite" and t.tail is not QUARTIC]
    if comps:
        buckets: dict = {}
        for t in comps:
            key = (t.m, t.mu, t.nu, t.a, t.b, len(t.alphas), len(t.betas))
            buckets.setdefault(key, []).append(t)
        rng = np.random.default_rng(20240817)
        probes = [
            (rng.standard_normal(grid.m_pts) + 1j * rng.standard_normal(grid.m_pts))
            * np.exp(-grid.x ** 2 / (2.0 * (0.2 * grid.l_box) ** 2))
            for _ in range(3)
        ]
        z0 = rng.standard_normal(len(comps[0].mu)) + 1j * rng.standard_normal(len(comps[0].mu))
        for key, terms in buckets.items():
            m, mu, nu, a, b, na, nb = key
            mkey = (-m, nu, mu, b, a, nb, na)
            # a bucket and the mirrors of its mirror bucket share z0^mu conj(z0)^nu
            zmon = monomials(z0, mu, nu)
            mirror_terms = [t.mirror() for t in buckets.get(mkey, [])]
            for f in probes:
                v1 = zmon * sum(t.coeff * t.f_factor(f, h) for t in terms)
                v2 = zmon * sum(t.coeff * t.f_factor(f, h) for t in mirror_terms)
                # mirror of the mirror-bucket must reproduce the bucket
                if abs(v1 - v2) > tol_abs * (1.0 + abs(v1)):
                    return False, f"composite bucket {key} has no conjugate mirror"
    return True, None


# ---------------------------------------------------------------------------
# the forced quartic energy


def expand_potential_energy(model: OperatorModel, gamma0: float, gamma1: float) -> HamExpansion:
    """Forced quartic energy gamma(t) int |z.phi + f|^4 / 2 as an expansion.

    The /2 normalization makes the Wirtinger gradient of the energy generate
    exactly the cubic nonlinearity gamma(t) |u|^2 u of the simulated flow.
    gamma(t) = gamma0 + gamma1 cos t contributes harmonics m in {-1, 0, +1}
    with coefficients gamma0/2 and gamma1/4 on the quartic integrand.
    """
    h = model.grid.h
    nb = len(model.lam)
    phi = model.phi
    harmonics = []
    if gamma0 != 0.0:
        harmonics.append((0, gamma0 / 2.0))
    if gamma1 != 0.0:
        harmonics.append((1, gamma1 / 4.0))
        harmonics.append((-1, gamma1 / 4.0))
    if not harmonics:
        return HamExpansion([])

    def e(j):
        v = [0] * nb
        v[j] = 1
        return np.array(v, dtype=int)

    terms: list[HamTerm] = []
    pc = model.project_pc
    for m, cg in harmonics:
        # u^2 = A + B + C, A = sum z_j z_k phi_j phi_k, B = 2 (z.phi) f, C = f^2
        for j in range(nb):
            for k in range(nb):
                pjk = phi[j] * phi[k]
                # A Abar: pure z monomials
                for jj in range(nb):
                    for kk in range(nb):
                        coeff = cg * h * np.sum(pjk * phi[jj] * phi[kk])
                        terms.append(HamTerm(coeff, m, tuple(e(j) + e(k)), tuple(e(jj) + e(kk))))
                # A Bbar: 2 z_j z_k zbar_l <phi_j phi_k phi_l, conj f>
                for l in range(nb):
                    vec = 2.0 * cg * pc(pjk * phi[l])
                    terms.append(HamTerm(1.0, m, tuple(e(j) + e(k)), tuple(e(l)), betas=(vec,)))
                # A Cbar: z_j z_k <conj(f)^2, phi_j phi_k>
                terms.append(HamTerm(cg, m, tuple(e(j) + e(k)), (0,) * nb, a=0, b=2, tail=pjk))
        for j in range(nb):
            # B Abar mirror of A Bbar
            for k in range(nb):
                for l in range(nb):
                    vec = 2.0 * cg * pc(phi[j] * phi[k] * phi[l])
                    terms.append(HamTerm(1.0, m, tuple(e(j)), tuple(e(k) + e(l)), alphas=(vec,)))
            # B Bbar: 4 z_j zbar_k <f conj f, phi_j phi_k>
            for k in range(nb):
                terms.append(HamTerm(4.0 * cg, m, tuple(e(j)), tuple(e(k)),
                                     a=1, b=1, tail=phi[j] * phi[k]))
            # B Cbar: 2 z_j <f conj(f)^2, phi_j>
            terms.append(HamTerm(2.0 * cg, m, tuple(e(j)), (0,) * nb, a=1, b=2, tail=phi[j]))
            # C Bbar: 2 zbar_j <f^2 conj f, phi_j>
            terms.append(HamTerm(2.0 * cg, m, (0,) * nb, tuple(e(j)), a=2, b=1, tail=phi[j]))
        # C Abar
        for jj in range(nb):
            for kk in range(nb):
                terms.append(HamTerm(cg, m, (0,) * nb, tuple(e(jj) + e(kk)),
                                     a=2, b=0, tail=phi[jj] * phi[kk]))
        # C Cbar: quartic marker, value (1/4) int f^2 conj(f)^2, so coefficient 4 cg
        terms.append(HamTerm(4.0 * cg, m, (0,) * nb, (0,) * nb, a=2, b=2, tail=QUARTIC))
    return HamExpansion(terms).merged()


def hf_value(model: OperatorModel, z, f) -> float:
    """Quadratic part sum lambda_j |z_j|^2 + <H f, conj f> (tau dropped)."""
    h = model.grid.h
    z = np.asarray(z, dtype=complex)
    quad = float(np.real(pairing(model.apply_h(np.asarray(f, dtype=complex)), np.conj(f), h)))
    return float(np.sum(model.lam * np.abs(z) ** 2)) + quad


# ---------------------------------------------------------------------------
# gradients


def gradient_zbar(ham: HamExpansion, j: int) -> HamExpansion:
    out = []
    for t in ham.terms:
        if t.nu[j] == 0:
            continue
        nu = list(t.nu)
        nu[j] -= 1
        out.append(HamTerm(t.coeff * t.nu[j], t.m, t.mu, tuple(nu),
                           t.alphas, t.betas, t.a, t.b, t.tail))
    return HamExpansion(out)


class FbarGradient:
    """grad_{conj f} of an expansion: evaluable, with the f-independent part listed."""

    def __init__(self, ham: HamExpansion, model: OperatorModel):
        self.ham = ham.merged()
        self.model = model
        self.coeffs = np.array([t.coeff for t in self.ham.terms], dtype=complex)
        self.m = np.array([t.m for t in self.ham.terms], dtype=int)
        self.mu, self.nu = exponent_table(self.ham.terms, len(model.lam))

    def evaluate(self, t: float, z, f) -> np.ndarray:
        model = self.model
        h = model.grid.h
        f = np.asarray(f, dtype=complex)
        fb = np.conj(f)
        out = np.zeros(model.grid.m_pts, dtype=complex)
        zmons = self.coeffs * np.exp(1j * self.m * t) * monomials(z, self.mu, self.nu)
        for term, zmon in zip(self.ham.terms, zmons):
            if zmon == 0.0:
                continue
            pair_alpha = [pairing(p, f, h) for p in term.alphas]
            pair_beta = [pairing(p, fb, h) for p in term.betas]
            prod_alpha = complex(np.prod(pair_alpha)) if pair_alpha else 1.0
            if term.tail is QUARTIC:
                # grad_{conj f} (1/4) f^2 conj(f)^2 = (1/2) f^2 conj(f)
                out += zmon * 0.5 * f ** 2 * fb
                continue
            tail_val = (pairing(f ** term.a * fb ** term.b, term.tail, h)
                        if term.tail is not None else 1.0)
            # each <Psi_j, conj f> slot releases its vector Psi_j
            for idx, p in enumerate(term.betas):
                others = complex(np.prod(pair_beta[:idx] + pair_beta[idx + 1:])) \
                    if len(pair_beta) > 1 else 1.0
                out += zmon * prod_alpha * others * tail_val * p
            # the tail contributes b f^a conj(f)^{b-1} tail
            if term.tail is not None and term.b > 0:
                prod_beta = complex(np.prod(pair_beta)) if pair_beta else 1.0
                out += (zmon * prod_alpha * prod_beta * term.b
                        * f ** term.a * fb ** (term.b - 1) * term.tail)
        return self.model.project_pc(out)


def gradient_fbar(ham: HamExpansion, model: OperatorModel) -> FbarGradient:
    return FbarGradient(ham, model)


# ---------------------------------------------------------------------------
# generator flow (used by the truncation-consistency checks)


def generator_flow(chi: HamExpansion, t: float, z, f, model: OperatorModel,
                   steps: int = 64) -> tuple[np.ndarray, np.ndarray, float]:
    """Time-1 flow of the Hamiltonian field of chi from (z, f), fixed t slice.

    RK4 on zdot_j = -i dchi/dzbar_j, fdot = -i grad_{conj f} chi, and the
    action shift psidot = dchi/dt.  The harmonic factor is frozen at the given
    t (the flow parameter does not advance t), but the shift psi feeds the
    -tau part of the quadratic Hamiltonian, so composition identities need it.
    Returns (z', f', psi).  Requires a real-symmetric chi: the flow is tracked
    on the reality plane conj(z), conj(f).
    """
    z = np.asarray(z, dtype=complex).copy()
    f = np.asarray(f, dtype=complex).copy()
    grads = [gradient_zbar(chi, j) for j in range(len(z))]
    gfbar = gradient_fbar(chi, model)
    dchidt = HamExpansion([term.scaled(1j * term.m) for term in chi.terms if term.m])
    h = model.grid.h
    psi = 0.0

    def rhs(zc, fc):
        dz = np.array([-1j * g.evaluate(t, zc, fc, h) for g in grads])
        df = -1j * gfbar.evaluate(t, zc, fc)
        dpsi = dchidt.evaluate(t, zc, fc, h).real if len(dchidt) else 0.0
        return dz, df, dpsi

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
# serialization


def expansion_to_records(ham: HamExpansion) -> tuple[list[dict], dict[str, np.ndarray]]:
    """JSON-able term records plus a vector table for an npz sidecar."""
    records = []
    vectors: dict[str, np.ndarray] = {}

    def store(vec) -> str:
        key = f"v{len(vectors)}"
        vectors[key] = np.asarray(vec)
        return key

    for t in ham.terms:
        rec = {
            "m": t.m, "mu": list(t.mu), "nu": list(t.nu), "kind": t.kind,
            "coeff": [t.coeff.real, t.coeff.imag], "a": t.a, "b": t.b,
        }
        if t.alphas:
            rec["alphas"] = [store(v) for v in t.alphas]
        if t.betas:
            rec["betas"] = [store(v) for v in t.betas]
        if t.tail is QUARTIC:
            rec["tail"] = "quartic"
        elif t.tail is not None:
            rec["tail"] = store(t.tail)
        records.append(rec)
    return records, vectors


def expansion_from_records(records, vectors) -> HamExpansion:
    terms = []
    for rec in records:
        tail = rec.get("tail")
        if tail == "quartic":
            tail_v = QUARTIC
        elif tail is not None:
            tail_v = vectors[tail]
        else:
            tail_v = None
        terms.append(HamTerm(
            complex(rec["coeff"][0], rec["coeff"][1]), rec["m"],
            tuple(rec["mu"]), tuple(rec["nu"]),
            alphas=tuple(vectors[k] for k in rec.get("alphas", ())),
            betas=tuple(vectors[k] for k in rec.get("betas", ())),
            a=rec.get("a", 0), b=rec.get("b", 0), tail=tail_v,
        ))
    return HamExpansion(terms)
