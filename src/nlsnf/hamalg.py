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

Terms are merged on arrays, not one Python object at a time: a term list
becomes id columns (_term_columns), with each factor vector an integer id
(_Factors), and a merge (_merge_blocks, which runs _tally on each block of
rows) groups sorted, packed integer keys, in which a factor vector stands
for its content digest.  HamExpansion.merged() and lie_derivative both run
on it; a Lie derivative enumerates the raw outputs of the (input term,
generator term) pairs as such columns, family by family, one block of
charge classes (m, mu - nu) at a time.  Coefficients follow CPython's
complex arithmetic one rounding at a time, and every merged sum runs in
input order, so the merge has the bits of a term-by-term one.  Merged sums
over the degree cap are only counted (DropLedger); no term or product
vector is built for them.
check_reality pairs the same ids with its probe states in one table
(_f_factors).  The value and the Hamiltonian field of an expansion, the
generator flow and the reduced mode ODE are test oracles, taken term by
term (tests/oracles.py); no stage runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import GeneratorClassError, LedgerViolation, NlsnfError
from .spectral import GridSpec, OperatorModel, _content_digest, pairing

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


class HamExpansion:
    """Multiset of terms; scalar, linear and quartic-marker terms merge on
    (m, mu, nu).

    Composite terms merge on the full symbolic signature (indices plus the
    content of every factor vector, as interned ids); without this, iterated
    Lie derivatives multiply the term count geometrically.
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
        if not self.terms:
            return HamExpansion([])
        factors = _Factors(None)
        cols = _term_columns(self.terms, factors)
        cols["order"] = np.arange(len(self.terms))
        return HamExpansion(_merge_blocks([cols], factors, None, DropLedger()))

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


_ID = np.int32                      # factor ids, exponents and the other small integers
_NO_TAIL, _QUARTIC_TAIL = -1, -2   # tail ids besides the factor ids >= 0
_ID_SPAN = 1 << 32                  # packs a pair of factor ids into one int64
_SUM_BYTES = 1 << 20                # vectors gathered per step of the linear sums
_BLOCK_PAIRS = 4096                 # (input, chi term) pairs a Lie derivative merges at a time


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as CPython multiplies complex numbers.

    NumPy's complex multiply may fuse a multiply and an add; these real
    operations round one at a time, so the parts agree bit for bit with the
    Python complex arithmetic the terms use.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _above_tol(re, im) -> np.ndarray:
    """abs(complex(re, im)) > MERGE_TOL elementwise, as CPython's abs decides it."""
    mag = np.hypot(re, im)
    out = mag > MERGE_TOL
    for i in np.flatnonzero(np.abs(mag - MERGE_TOL) <= 1e-6 * MERGE_TOL):
        out[i] = abs(complex(re[i], im[i])) > MERGE_TOL
    return out


class _Factors:
    """The factor vectors of one merge, Lie derivative or reality check, as
    integer ids.

    A vector of the terms gets an id per array, cached by id(): the terms
    keep it alive through the call.  A product (`tail * vec`, `P_c vec`)
    gets an id per pair of operand ids and is kept as its recipe only;
    `vector` rebuilds it when it is read, and `stack` a stack of them, with
    the bound-state weights of a `P_c vec` taken once per id.  Merge keys
    read `canonical` ids, which agree exactly when the content digests do; an
    id is digested once, when a key first reads it, so a vector no key reads
    is never digested.
    """

    def __init__(self, model):
        self.model = model         # the operator of P_c, None where no product is projected
        self.weights: dict = {}    # operand id of a P_c product -> its bound-state weights
        self.held: dict = {}       # id() of a held vector -> id
        self.made: dict = {}       # recipe -> id
        self.vectors: list = []    # id -> vector, None for a product
        self.recipes: list = []    # id -> recipe of a product, None for a held vector
        self.digests: dict = {}    # content digest -> canonical id
        self.canon: list = []      # id -> canonical id, -1 until a key reads it

    def _add(self, v, recipe=None) -> int:
        self.vectors.append(v)
        self.canon.append(-1)
        self.recipes.append(recipe)
        return len(self.canon) - 1

    def of(self, v: np.ndarray) -> int:
        """The id of a vector that lives through the call."""
        fid = self.held.get(id(v))
        if fid is None:
            fid = self.held[id(v)] = self._add(v)
        return fid

    def canonical(self, *ids: np.ndarray) -> np.ndarray:
        """A table from id to canonical id, filled for the ids given; an id
        not filled yet reads -1, and the ids -2 and -1 read themselves."""
        canon = np.array(self.canon + [-2, -1], dtype=_ID)
        need = np.zeros(len(canon), dtype=bool)
        for part in ids:
            need[part] = True
        need[-2:] = False
        for fid in np.flatnonzero(need & (canon < 0)).tolist():
            digest = _content_digest(self.vector(fid))
            canon[fid] = self.canon[fid] = self.digests.setdefault(digest, fid)
        return canon

    def vector(self, fid: int) -> np.ndarray:
        v = self.vectors[fid]
        return self._build(self.recipes[fid]) if v is None else v

    def _build(self, recipe) -> np.ndarray:
        op, left, right = recipe
        if op == "pc":
            return self.model.project_pc(self.vector(right))
        return self.vector(left) * self.vector(right)

    def stack(self, fids, out: np.ndarray) -> np.ndarray:
        """The vectors of `fids` written to the rows of `out`, bit for bit as
        `vector` builds them; the P_c products among them are projected as
        one stack."""
        fids = fids.tolist()
        pc = [i for i, fid in enumerate(fids)
              if self.recipes[fid] is not None and self.recipes[fid][0] == "pc"]
        for i in pc:
            fids[i] = self.recipes[fids[i]][2]   # the row starts as the operand
        for row, fid in zip(out, fids):
            row[...] = self.vector(fid)
        if pc:
            weights = np.zeros((len(fids), len(self.model.lam)), dtype=complex)
            for i in pc:
                if fids[i] not in self.weights:
                    self.weights[fids[i]] = self.model.bound_weights(out[i])
                weights[i] = self.weights[fids[i]]
            is_pc = np.zeros((len(fids), 1), dtype=bool)
            is_pc[pc] = True
            self.model.remove_bound(out, weights, where=is_pc)
        return out

    def _distinct(self, left, right, value) -> tuple[list, np.ndarray]:
        """value(l, r) for each row's pair of ids, computed once per distinct pair."""
        pairs, inverse = np.unique(left.astype(np.int64) * _ID_SPAN + right,
                                   return_inverse=True)
        values = [value(*divmod(p, _ID_SPAN)) for p in pairs.tolist()]
        return values, inverse

    def _product(self, op: str, left: int, right: int) -> int:
        recipe = (op, left, right)
        fid = self.made.get(recipe)
        if fid is None:
            fid = self.made[recipe] = self._add(None, recipe)
        return fid

    def derived(self, op: str, left, right) -> np.ndarray:
        """Ids of left * right (op "mul") or of P_c right (op "pc", left = right),
        row by row."""
        ids, inverse = self._distinct(left, right, lambda l, r: self._product(op, l, r))
        return np.array(ids, dtype=_ID)[inverse]

    def crossed(self, op: str, left, right, h: float = 0.0):
        """For every id l >= 0 of `left` and r >= 0 of `right`: the id of
        l * r (op "mul") or the pairing <l, r> (op "pair"), as a table; and
        the table row of each entry of `left` and column of each of `right`."""
        (rows, row), (cols, col) = (np.unique(ids, return_inverse=True)
                                    for ids in (left, right))
        pair = op == "pair"
        table = np.zeros((len(rows), len(cols)), dtype=complex if pair else _ID)
        r0, c0 = np.searchsorted(rows, 0), np.searchsorted(cols, 0)
        for a, l in enumerate(rows[r0:].tolist(), r0):
            for b, r in enumerate(cols[c0:].tolist(), c0):
                table[a, b] = (pairing(self.vector(l), self.vector(r), h) if pair
                               else self._product(op, l, r))
        return table, row.reshape(-1), col.reshape(-1)


def _term_columns(terms, factors: _Factors) -> dict:
    """The columns of a nonempty term list over `factors`, a row per term:
    re, im, m, a, b, the tail id (_NO_TAIL, _QUARTIC_TAIL or a factor id),
    mu, nu, and the alpha and beta ids, -1 padded to one more than the
    longest list of either."""
    n = len(terms[0].mu)
    width = max(max(len(t.alphas), len(t.betas)) for t in terms) + 1

    def ids(vectors):
        return [factors.of(v) for v in vectors] + [-1] * (width - len(vectors))

    coeff = np.array([t.coeff for t in terms], dtype=complex)
    table = np.array([(t.m, t.a, t.b, _NO_TAIL if t.tail is None else _QUARTIC_TAIL
                       if t.tail is QUARTIC else factors.of(t.tail),
                       *t.mu, *t.nu, *ids(t.alphas), *ids(t.betas)) for t in terms], dtype=_ID)
    cols = dict(zip(("m", "a", "b", "tail"), table[:, :4].T))
    cols.update(re=coeff.real, im=coeff.imag, mu=table[:, 4:4 + n],
                nu=table[:, 4 + n:4 + 2 * n], alpha=table[:, 4 + 2 * n:4 + 2 * n + width],
                beta=table[:, 4 + 2 * n + width:])
    return cols


def _kinds(cols: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's kind, numbered in the order merged survivors come out
    (0 scalar, 1 linear_f, 2 linear_fbar, 3 quartic marker, 4 composite),
    and its counts of alpha and beta ids."""
    n_alpha = (cols["alpha"] >= 0).sum(axis=1)
    n_beta = (cols["beta"] >= 0).sum(axis=1)
    n_f = n_alpha + n_beta + cols["a"] + cols["b"]
    kind = np.select([n_f == 0, (n_f == 1) & (n_alpha == 1), n_f == 1,
                      cols["tail"] == _QUARTIC_TAIL], [0, 1, 2, 3], 4)
    return kind, n_alpha, n_beta


def _appended(rows, counts, ids) -> np.ndarray:
    """Each row with ids[r] written after its counts[r] ids (-1 appends nothing)."""
    rows = rows.copy()
    rows[np.arange(len(rows)), counts] = ids
    return rows


def _removed(rows, idx: int) -> np.ndarray:
    """Each row without its idx-th id."""
    return np.concatenate([rows[:, :idx], rows[:, idx + 1:],
                           np.full((len(rows), 1), -1, dtype=_ID)], axis=1)


# the columns of a table of raw Lie outputs
_COLUMNS = ("order", "i", "re", "im", "m", "mu", "nu", "a", "b", "tail", "alpha", "beta")


def _charge_blocks(g: dict, c: dict) -> list[np.ndarray]:
    """The (input term, chi term) pairs, as flat indices i * len(chi) + k,
    cut into blocks, each in generation order.

    A pair's charge is its input's (m, mu - nu) plus its chi term's.  The
    Poisson bracket adds these charges, so every output of a pair carries
    the pair's charge, and outputs of two charges never merge.  Whole charge
    classes, in charge order, fill blocks of at most _BLOCK_PAIRS pairs; a
    class larger than that is a block of its own.
    """
    (g_charges, g_class), (c_charges, c_class) = (
        np.unique(np.column_stack([t["m"], t["mu"] - t["nu"]]), axis=0, return_inverse=True)
        for t in (g, c))
    sums = (g_charges[:, None] + c_charges).reshape(-1, g_charges.shape[1])
    klass = np.unique(sums, axis=0, return_inverse=True)[1].reshape(len(g_charges), -1)
    pair_class = klass[g_class.reshape(-1, 1), c_class.reshape(-1)].ravel()
    block = np.empty(klass.max() + 1, dtype=np.int64)
    n_blocks, filled = 0, 0
    for k, pairs in enumerate(np.bincount(pair_class).tolist()):
        if filled and filled + pairs > _BLOCK_PAIRS:
            n_blocks, filled = n_blocks + 1, 0
        block[k] = n_blocks
        filled += pairs
    pair_block = block[pair_class]
    return np.split(np.argsort(pair_block, kind="stable"),
                    np.cumsum(np.bincount(pair_block))[:-1])


def _lie_outputs(chi_terms, terms, info: GeneratorInfo, factors: _Factors, h: float):
    """Every raw output of {g, chi_term}, checked, as arrays: one block of
    charge classes (see _charge_blocks) at a time, each in generation order.

    Generation order runs over the inputs, then the chi terms, then per pair:
    the z-part of each mode j, then chi's Phi against each conj(f) slot and
    the conj(f)-powers of the tail, then chi's Psi against each f slot and
    the f-powers of the tail.  The "order" column is each output's place in
    it: (i * len(chi) + k) * span + its position within the pair, span =
    modes + 2 (slots + 1).  An a + b = 1 tail is folded into the linear
    factors, projected onto the continuum like every coupling on f.  Factor
    vectors are ids, -1 padded, in output order.  Scalar outputs within
    MERGE_TOL of zero are left out.  Every block is checked (see
    _check_outputs); once one fails, no further block is yielded, and after
    the last one the error of the failing output earliest in generation
    order is raised.
    """
    n = len(chi_terms[0].mu)
    if any(len(t.mu) != n for t in terms):
        raise ValueError("input and generator terms have different mode counts")
    n_chi = len(chi_terms)
    g, c = _term_columns(terms, factors), _term_columns(chi_terms, factors)
    g_alpha, g_beta, g_tail, g_a, g_b, g_m, g_mu, g_nu = (
        g[name] for name in ("alpha", "beta", "tail", "a", "b", "m", "mu", "nu"))
    c_m, c_mu, c_nu = c["m"], c["mu"], c["nu"]
    slots = g_alpha.shape[1] - 1
    n_alpha, n_beta = ((ids >= 0).sum(axis=1, dtype=_ID) for ids in (g_alpha, g_beta))
    # generator terms carry at most one linear factor and no tail
    c_alpha, c_beta = c["alpha"][:, 0], c["beta"][:, 0]
    base_re, base_im = _cmul(g["re"][:, None], g["im"][:, None], c["re"], c["im"])
    # what the checks read of each input
    inputs = (np.array([t.is_balanced for t in terms]), np.array([t.size for t in terms]),
              info.m0 + np.abs(g_m))

    # per side, <slot idx of each input, chi's vector> and the id of each
    # input's tail times chi's vector, as tables over the distinct ids
    crossed = [([factors.crossed("pair", own[:, idx], c_vec, h) for idx in range(slots)],
                factors.crossed("mul", np.where((g_tail >= 0) & (power > 0), g_tail, -1), c_vec))
               for own, power, c_vec in ((g_beta, g_b, c_alpha), (g_alpha, g_a, c_beta))]

    span = n + 2 * (slots + 1)   # output positions within one (input, chi term) pair
    parts: dict = {}             # the columns of the block being generated

    def emit(i, k, pos, dec, re, im, a, b, tail, alpha, beta):
        mu = g_mu[i] + c_mu[k]
        nu = g_nu[i] + c_nu[k]
        if dec >= 0:
            mu[:, dec] -= 1
            nu[:, dec] -= 1
        for name, col in zip(_COLUMNS, ((i * n_chi + k) * span + pos, i.astype(_ID), re, im,
                                        g_m[i] + c_m[k], mu, nu, a, b, tail, alpha, beta)):
            parts[name].append(col)

    failure = None
    for pairs in _charge_blocks(g, c):
        pair_i, pair_k = np.divmod(pairs, n_chi)
        parts = {name: [] for name in _COLUMNS}

        # i sum_j (dg/dzbar_j dchi/dz_j - dg/dz_j dchi/dzbar_j)
        weights = g_nu[pair_i] * c_mu[pair_k] - g_mu[pair_i] * c_nu[pair_k]
        for j in range(n):
            sel = np.flatnonzero(weights[:, j])
            i, k = pair_i[sel], pair_k[sel]
            iw = _cmul(0.0, 1.0, weights[sel, j].astype(float), 0.0)
            emit(i, k, j, j, *_cmul(*iw, base_re[i, k], base_im[i, k]), g_a[i], g_b[i],
                 g_tail[i], _appended(g_alpha[i], n_alpha[i], c_alpha[k]),
                 _appended(g_beta[i], n_beta[i], c_beta[k]))

        # + i <grad_fbar g, grad_f chi> pairs chi's Phi with each conj(f) of g;
        # - i <grad_fbar chi, grad_f g> pairs chi's Psi with each f of g
        for side, (c_vec, unit) in enumerate(((c_alpha, (0.0, 1.0)), (c_beta, (-0.0, -1.0)))):
            fbar = side == 0
            sel = np.flatnonzero(c_vec[pair_k] >= 0)
            i, k = pair_i[sel], pair_k[sel]
            s_re, s_im = _cmul(*unit, base_re[i, k], base_im[i, k])
            own, n_own, power = (g_beta, n_beta, g_b) if fbar else (g_alpha, n_alpha, g_a)
            paired, (products, tail_row, tail_col) = crossed[side]
            first = n + side * (slots + 1)
            for idx, (table, row, col) in enumerate(paired):
                sel = np.flatnonzero(n_own[i] > idx)
                ii, kk = i[sel], k[sel]
                p = table[row[ii], col[kk]]
                kept = _removed(own[ii], idx)
                emit(ii, kk, first + idx, -1, *_cmul(s_re[sel], s_im[sel], p.real, p.imag),
                     g_a[ii], g_b[ii], g_tail[ii],
                     *((g_alpha[ii], kept) if fbar else (kept, g_beta[ii])))
            # grad_fbar (1/4)|f|^4 = (1/2) f^2 conj(f), and its mirror for grad_f
            sel = np.flatnonzero(g_tail[i] == _QUARTIC_TAIL)
            ii, kk = i[sel], k[sel]
            emit(ii, kk, first + slots, -1, *_cmul(s_re[sel], s_im[sel], 0.5, 0.0),
                 np.full(len(sel), 1 + fbar, dtype=_ID), np.full(len(sel), 2 - fbar, dtype=_ID),
                 factors.derived("pc", c_vec[kk], c_vec[kk]), g_alpha[ii], g_beta[ii])
            # power * f^a conj(f)^b / (conj(f) or f) against the tail
            sel = np.flatnonzero((g_tail[i] >= 0) & (power[i] > 0))
            ii, kk = i[sel], k[sel]
            a, b = g_a[ii] - (not fbar), g_b[ii] - fbar
            tail = products[tail_row[ii], tail_col[kk]]
            fold = a + b == 1
            linear = tail.copy()
            linear[fold] = factors.derived("pc", tail[fold], tail[fold])
            emit(ii, kk, first + slots, -1,
                 *_cmul(s_re[sel], s_im[sel], power[ii].astype(float), 0.0),
                 np.where(fold, 0, a), np.where(fold, 0, b), np.where(fold, _NO_TAIL, tail),
                 _appended(g_alpha[ii], n_alpha[ii], np.where(fold & (a == 1), linear, -1)),
                 _appended(g_beta[ii], n_beta[ii], np.where(fold & (b == 1), linear, -1)))

        order = np.concatenate(parts.pop("order"))
        rank = np.argsort(order)
        out = {"order": order[rank]}
        for name in _COLUMNS[1:]:
            out[name] = np.concatenate(parts.pop(name))[rank]
        del order, rank
        keep, error = _check_outputs(out, inputs, info)
        if error is not None:
            if failure is None or error[0] < failure[0]:
                failure = error
        elif failure is None and keep.any():
            out = {name: col[keep] for name, col in out.items()}
            yield out
        del out, keep
    if failure is not None:
        raise failure[1]


def _check_outputs(out: dict, inputs, info: GeneratorInfo) -> tuple[np.ndarray, tuple | None]:
    """The checks of every raw output of a block.

    HamTerm's structural rules; then, unless the output is a scalar within
    MERGE_TOL of zero (left out of the merge): on outputs of a balanced input
    the closure ledger (sizes grow by exactly M0); |m'| <= m0 + |m|; and
    fewer than four f-powers on a tail.  `inputs` holds each input's
    is_balanced, size and m0 + |m|.  Returns which outputs enter the merge,
    and the generation position and error of the first output that fails, or
    None.
    """
    mu, nu, a, b, tail, m = out["mu"], out["nu"], out["a"], out["b"], out["tail"], out["m"]
    n_alpha = (out["alpha"] >= 0).sum(axis=1)
    n_beta = (out["beta"] >= 0).sum(axis=1)
    ab = a + b
    quartic = tail == _QUARTIC_TAIL
    # the rules of _structure_error, which words the error
    malformed = ((mu < 0).any(axis=1) | (nu < 0).any(axis=1) | (ab > 4)
                 | (quartic & ((a != 2) | (b != 2) | (n_alpha + n_beta > 0)))
                 | (~quartic & (((ab >= 2) & (tail == _NO_TAIL)) | (ab == 1)
                                | ((ab == 0) & (tail >= 0)))))
    skip = (n_alpha + n_beta + ab == 0) & ~_above_tol(out["re"], out["im"])
    lhs = mu.sum(axis=1) + n_alpha + a
    rhs = nu.sum(axis=1) + n_beta + b
    i = out["i"]
    is_balanced, size, m_bound = inputs
    balanced = ~skip & is_balanced[i]
    size_in = size[i]
    unbalanced = balanced & (lhs != rhs)
    law_broken = balanced & (lhs - 1 != size_in - 1 + info.big_m0)
    harmonic = ~skip & (np.abs(m) > m_bound[i])
    f_power = ~skip & (ab >= 4) & ~quartic
    bad = malformed | unbalanced | law_broken | harmonic | f_power
    if not bad.any():
        return ~skip, None
    f = int(np.argmax(bad))
    t = int(tail[f])
    where = f"m={int(m[f])}, mu={tuple(mu[f].tolist())}, nu={tuple(nu[f].tolist())}"
    message = _structure_error(mu[f].tolist(), nu[f].tolist(), range(n_alpha[f]),
                               range(n_beta[f]), int(a[f]), int(b[f]),
                               None if t == _NO_TAIL else QUARTIC if t == _QUARTIC_TAIL else t)
    if message:
        error = ValueError(message)
    elif unbalanced[f]:
        error = LedgerViolation(f"lie output unbalanced: {where}")
    elif law_broken[f]:
        error = LedgerViolation(f"ledger law broken: L' = {lhs[f] - 1}, expected "
                                f"{size_in[f] - 1} + {info.big_m0}")
    elif harmonic[f]:
        error = LedgerViolation(f"harmonic bound broken: {where}")
    else:
        error = LedgerViolation("f-power count must stay below 4")
    return ~skip, (int(out["order"][f]), error)


def _pack(columns) -> list[np.ndarray]:
    """Integer key columns packed, mixed radix, into as few int64 words as hold them."""
    words: list = []
    word, room = None, 0
    for col in columns:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if word is not None and room * span < 1 << 62:
            word = word * span + (col - lo)
            room *= span
        else:
            if word is not None:
                words.append(word)
            word, room = (col - lo).astype(np.int64), span
    words.append(word)
    return words


def _groups(words) -> tuple[np.ndarray, np.ndarray]:
    """The group of each row of packed keys, groups numbered in first-seen
    order, and the first row of each group."""
    order = np.argsort(words[0], kind="stable") if len(words) == 1 else np.lexsort(words[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for w in words:
        w = w[order]
        new[1:] |= w[1:] != w[:-1]
    first = order[new]                 # a stable sort leads each group with its first row
    rank = np.argsort(first)
    number = np.empty_like(rank)
    number[rank] = np.arange(len(rank))
    group = np.empty(len(order), dtype=np.int64)
    group[order] = number[np.cumsum(new) - 1]
    return group, first[rank]


def _linear_sums(slot, fids, coeff, factors: _Factors, wanted) -> tuple[np.ndarray, dict]:
    """The sums over the rows r with slot[r] = s of coeff[r] * vector(fids[r]),
    for each s < len(wanted), each added in row order: the largest modulus of
    every sum, and the sums s with wanted[s], by s.

    Pass k adds the k-th row of every sum, so each sum rounds as a
    sequential one does.  The sums are taken longest first, a batch at a
    time, so the sums a pass adds to are a prefix of the store; the store
    and the buffer of a pass's vectors together hold _SUM_BYTES.
    """
    n_sums = len(wanted)
    counts = np.bincount(slot, minlength=n_sums)
    by_length = np.argsort(-counts, kind="stable")
    place = np.empty(n_sums, dtype=np.int64)
    place[by_length] = np.arange(n_sums)
    lengths = counts[by_length]
    pos = place[slot]
    by_pos = np.argsort(pos, kind="stable")
    rank = np.empty(len(slot), dtype=np.int64)
    rank[by_pos] = np.arange(len(slot)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    n_pts = len(factors.vector(int(fids[0])))
    step = max(1, _SUM_BYTES // (32 * n_pts))
    order = np.lexsort((pos, rank, pos // step))
    store = np.empty((min(step, n_sums), n_pts), dtype=complex)
    buffer = np.empty_like(store)
    largest = np.empty(n_sums)
    sums = {}
    done = 0
    for lo in range(0, n_sums, step):
        batch = lengths[lo:lo + step]
        part = store[:len(batch)]
        part.fill(0.0)
        for k in range(batch[0]):
            rows = order[done:done + np.count_nonzero(batch > k)]
            done += len(rows)
            vecs = factors.stack(fids[rows], buffer[:len(rows)])
            np.multiply(coeff[rows, None], vecs, out=vecs)
            part[:len(rows)] += vecs
        slots = by_length[lo:lo + len(batch)]
        largest[slots] = np.abs(part).max(axis=1)
        for s, v in zip(slots.tolist(), part):
            if wanted[s]:
                sums[s] = v.copy()
    return largest, sums


def _tally(out: dict, factors: _Factors, degree_cap) -> dict:
    """Merge the rows of one block (see _term_columns; out["order"] holds
    each row's place in the merge).

    Scalar, linear and quartic-marker rows merge on (m, mu, nu), composites
    also on a, b and the contents of the tail, the alphas and the betas (as
    multisets).  Every sum runs in row order with the bits of a sequential
    one; sums within MERGE_TOL of zero vanish.  Returns the groups that
    survive, and the linear ones, whose vector sums wait for _merge_blocks:
    each group's kind (see _kinds), the place of its first row, its size,
    coefficient (1 for a linear group), survival and whether it is within
    the cap; the linear rows as group, factor id and coefficient; and the
    first row of each group within the cap, with canonical factor ids.
    """
    alpha, beta, tail, a, b = out["alpha"], out["beta"], out["tail"], out["a"], out["b"]
    kind, n_alpha, n_beta = _kinds(out)
    composite = kind == 4
    # a composite also merges on a, b and the contents of its factor vectors
    canon = factors.canonical(tail[composite], alpha[composite], beta[composite])
    extra = (np.where(composite, col, -1) for col in chain(
        (a, b, canon[tail]), np.sort(canon[alpha], axis=1).T, np.sort(canon[beta], axis=1).T))
    group, first = _groups(_pack(chain((kind, out["m"]), out["mu"].T, out["nu"].T, extra)))
    n_groups = len(first)
    g_kind = kind[first]
    sums = [np.bincount(group, weights=part, minlength=n_groups)
            for part in (out["re"], out["im"])]
    # bincount sums from +0.0; a composite sum starts from its first addend,
    # so it stays -0.0 where every addend is
    members = np.bincount(group, minlength=n_groups)
    for total, part in zip(sums, (out["re"], out["im"])):
        negative_zero = np.bincount(group, weights=np.signbit(part) & (part == 0),
                                    minlength=n_groups) == members
        total[negative_zero & (g_kind == 4)] = -0.0
    coeff = np.empty(n_groups, dtype=complex)
    coeff.real, coeff.imag = sums
    alive = _above_tol(*sums)
    linear = (g_kind == 1) | (g_kind == 2)
    coeff[linear] = 1.0

    held = alive | linear
    kept = np.flatnonzero(held)
    size = np.maximum(out["mu"].sum(axis=1) + n_alpha + a,
                      out["nu"].sum(axis=1) + n_beta + b)[first[kept]]
    within = np.ones(len(kept), dtype=bool) if degree_cap is None else 2 * size <= degree_cap
    rows = np.flatnonzero((kind == 1) | (kind == 2))
    lin_coeff = np.empty(len(rows), dtype=complex)
    lin_coeff.real, lin_coeff.imag = out["re"][rows], out["im"][rows]
    merged = {"kind": g_kind[kept], "pos": out["order"][first[kept]], "size": size,
              "coeff": coeff[kept], "alive": alive[kept], "within": within,
              "lin_group": (np.cumsum(held) - 1)[group[rows]],
              # the one factor id of a linear row; the other column holds -1
              "lin_fid": np.maximum(alpha[rows, 0], beta[rows, 0]), "lin_coeff": lin_coeff}
    rows = first[kept[within]]
    for name in ("m", "mu", "nu", "a", "b"):
        merged[name] = out[name][rows]
    for name in ("tail", "alpha", "beta"):
        merged[name] = canon[out[name][rows]]
    return merged


def _merge_blocks(blocks, factors: _Factors, degree_cap, dropped: "DropLedger") -> list[HamTerm]:
    """Merge the row tables of `blocks`, no group of which spans two tables
    (see _tally); build the survivors within the cap, and count those over it
    and the rows merged into `dropped`.

    The linear groups of every table take one _linear_sums call.  Survivors
    come out by kind (see _kinds), each kind in the order of its groups'
    first rows, so the terms and the ledger are those of one merge of all
    the rows.  `dropped` is written only after the last table.
    """
    tables, n_groups, generated = [], 0, 0
    for out in blocks:
        generated += len(out["order"])
        merged = _tally(out, factors, degree_cap)
        merged["lin_group"] += n_groups
        n_groups += len(merged["kind"])
        tables.append(merged)
        del out, merged
    dropped.generated += generated
    if not tables:
        return []
    cols = {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}
    del tables
    kind, pos, coeff, alive, within = (cols[name] for name in
                                       ("kind", "pos", "coeff", "alive", "within"))

    # the linear groups, numbered in the order of their first rows
    linear = np.flatnonzero((kind == 1) | (kind == 2))
    vectors = {}
    if len(linear):
        linear = linear[np.argsort(pos[linear])]
        slot = np.empty(len(kind), dtype=np.int64)
        slot[linear] = np.arange(len(linear))
        largest, sums = _linear_sums(slot[cols["lin_group"]], cols["lin_fid"],
                                     cols["lin_coeff"], factors, within[linear])
        alive[linear] = largest > MERGE_TOL
        vectors = {int(linear[s]): v for s, v in sums.items()}

    survivors = np.lexsort((pos, kind))
    survivors = survivors[alive[survivors]]
    over = ~within[survivors]
    dropped.tally(cols["size"][survivors[over]], coeff[survivors[over]])

    built = survivors[~over]
    rows = (np.cumsum(within) - 1)[built]      # a built group's first row
    # one array per content among the built composites, so a product is built once
    ids = np.concatenate([cols["tail"][rows], cols["alpha"][rows].ravel(),
                          cols["beta"][rows].ravel()])
    shared = {fid: factors.vector(fid) for fid in np.unique(ids[ids >= 0]).tolist()}
    terms: list[HamTerm] = []
    for g, c, g_k, m, mu, nu, a, b, t, al, be in zip(
            built.tolist(), coeff[built].tolist(), kind[built].tolist(),
            *(cols[name][rows].tolist() for name in ("m", "mu", "nu", "a", "b", "tail",
                                                     "alpha", "beta"))):
        if g in vectors:
            vec = vectors[g]
            terms.append(HamTerm._checked(1.0, m, tuple(mu), tuple(nu), *(
                ((vec,), ()) if g_k == 1 else ((), (vec,))), 0, 0, None))
            continue
        terms.append(HamTerm._checked(
            c, m, tuple(mu), tuple(nu), tuple(shared[f] for f in al if f >= 0),
            tuple(shared[f] for f in be if f >= 0), a, b,
            None if t == _NO_TAIL else QUARTIC if t == _QUARTIC_TAIL else shared[t]))
    return terms


def lie_derivative(chi: HamExpansion, g, model: OperatorModel,
                   degree_cap: int | None = None,
                   dropped: DropLedger | None = None) -> HamExpansion:
    """lie_chi(g) = {g, chi} for a generator-class chi, merged.

    The raw outputs of every (input term, chi term) pair are enumerated as
    id columns, with factor vectors as interned integer ids (see _Factors),
    and every output is checked before it is merged (see _check_outputs).
    The bracket adds the charges (m, mu - nu) of its two terms, so the
    outputs of pairs of different charges never merge: the pairs are cut
    into blocks of whole charge classes (see _charge_blocks), and the outputs
    are generated, checked and merged one block at a time (see _lie_outputs
    and _merge_blocks), which bounds the raw outputs held at once.  The
    terms, their order and the ledger are those of one merge of all outputs
    in generation order, and a failed check raises the error of the failing
    output earliest in that order.  Survivors within degree_cap are built as
    terms; those over it are counted into `dropped` and never built.
    Without a cap every survivor is built.  `dropped.generated` grows by the
    raw outputs merged.
    """
    info = generator_info(chi)
    terms = g.terms if isinstance(g, HamExpansion) else [g]
    if dropped is None:
        dropped = DropLedger()
    if not terms:
        return HamExpansion([])
    factors = _Factors(model)
    return HamExpansion(_merge_blocks(_lie_outputs(chi.terms, terms, info, factors,
                                                   model.grid.h),
                                      factors, degree_cap, dropped))


@dataclass
class DropLedger:
    """Lie outputs discarded by the degree cap (the observed remainder class).

    The outputs over the cap are merged like any others and counted here,
    but never built as terms: `count`, `by_size` and `coeff_mass` are those
    of the merged sums over the cap, added in survivor order (coeff_mass as
    a sequential sum).  A Lie derivative merges one block of charge classes
    at a time, and no merged sum spans two blocks, since the bracket adds
    the charges (m, mu - nu) of its terms; its sums over the cap are counted
    after the last block, in the survivor order of one merge of every
    output, so the ledger equals the one-shot ledger.  `generated` counts
    the raw outputs that passed the checks and entered the merge, within the
    cap or over it.
    normal_form_round merges a chain's ledger once per block it feeds: K's
    twice, for its Lie tail and the Taylor block of H_F.
    """

    count: int = 0
    coeff_mass: float = 0.0
    by_size: dict = field(default_factory=dict)
    generated: int = 0

    def add(self, size: int, coeff: complex):
        self.count += 1
        self.coeff_mass += abs(complex(coeff))
        self.by_size[size] = self.by_size.get(size, 0) + 1

    def tally(self, sizes: np.ndarray, coeffs: np.ndarray):
        """add(size, coeff) for each pair in turn.

        Sizes are small nonnegative integers, so they are counted with
        bincount, and the coefficients become Python complexes a few
        thousand at a time.
        """
        self.count += len(sizes)
        counts = np.bincount(sizes)
        values = np.flatnonzero(counts).tolist()
        for size in sorted(values, key=lambda v: int(np.argmax(sizes == v))):
            self.by_size[size] = self.by_size.get(size, 0) + int(counts[size])
        mass = self.coeff_mass
        for lo in range(0, len(coeffs), 4096):
            for c in coeffs[lo:lo + 4096].tolist():
                mass += abs(c)
        self.coeff_mass = mass

    def merge(self, other: "DropLedger"):
        self.count += other.count
        self.coeff_mass += other.coeff_mass
        self.generated += other.generated
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
    and counted but never built (see lie_derivative): each call merges its
    outputs one block of charge classes at a time, which no merged sum
    spans, tallies them on factor ids, and counts them as one merge of all
    its outputs would; a product vector that only they read is built only
    to be digested, and never kept.  The chain stops at the first power the
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


def _f_factors(cols: dict, factors: _Factors, probes, h: float) -> np.ndarray:
    """The radiation part of each row of cols at each probe state f, as a
    (rows, probes) array: the product of <Phi, f> over the alpha slots, of
    <Psi, conj(f)> over the beta slots and of the tail value, in that order.
    An empty slot and a missing tail read 1.

    The pairings of every factor vector with f, conj(f) and the f^a conj(f)^b
    of the tails are one matrix product, taken over chunks of vectors, and
    each row gathers its entries from that table.
    """
    alpha, beta, tail = cols["alpha"], cols["beta"], cols["tail"]
    powers, ab = np.unique(np.stack([cols["a"], cols["b"]], axis=1), axis=0,
                           return_inverse=True)
    used = np.setdiff1d(np.concatenate([alpha.ravel(), beta.ravel(), tail]), [-2, -1])
    # a table row per used vector, then one for the quartic marker (tail id
    # -2, (1/4) int f^2 conj(f)^2) and a row of ones for the id -1 (none)
    row = np.full(len(factors.vectors) + 2, len(used) + 1)
    row[used] = np.arange(len(used))
    row[-2] = len(used)
    width = 2 + len(powers)
    probe_cols = np.stack([w for f in probes for w in (
        f, np.conj(f), *(f ** pa * np.conj(f) ** pb for pa, pb in powers.tolist()))], axis=1)
    table = np.ones((len(used) + 2, len(probes) * width), dtype=complex)
    step = max(1, _SUM_BYTES // (16 * len(probe_cols)))
    for lo in range(0, len(used), step):
        vecs = np.stack([factors.vector(fid) for fid in used[lo:lo + step].tolist()])
        table[lo:lo + len(vecs)] = h * (vecs @ probe_cols)
    table = table.reshape(len(used) + 2, len(probes), width)
    table[len(used), :, 2:] = [[0.25 * pairing(f ** 2, np.conj(f) ** 2, h)] for f in probes]
    return (table[row[alpha], :, 0].prod(axis=1) * table[row[beta], :, 1].prod(axis=1)
            * table[row[tail], :, 2 + ab.reshape(-1)])


def check_reality(ham: HamExpansion, grid: GridSpec, tol: float = REALITY_TOL):
    """True iff every bucket of terms has the conjugate sum of its mirror bucket.

    A bucket is the set of terms that share (m, mu, nu, a, b, #alphas,
    #betas).  A term's mirror has the conjugate f-factor (see _f_factors), so
    at each of three probe states f, standard complex normal over the whole
    box, a bucket's sum S of coeff * f-factor must equal conj(S') of its
    mirror bucket (-m, nu, mu, b, a, #betas, #alphas); a missing bucket sums
    to 0.  Scalars, linear couplings, quartic markers and composites are
    compared alike, on the terms as given: duplicates sum as a merge would.
    Returns (ok, first_violation_description).
    """
    if not len(ham):
        return True, None
    factors = _Factors(None)
    cols = _term_columns(ham.terms, factors)
    vmax = np.array([np.max(np.abs(v)) for v in factors.vectors] + [0.0])   # id -1 reads 0
    coeff = cols["re"] + 1j * cols["im"]
    scale = float(np.max(np.abs(coeff) * (
        1.0 + (vmax[cols["alpha"]].sum(axis=1) + vmax[cols["beta"]].sum(axis=1)))))
    tol_abs = tol * max(scale, 1.0)

    rng = np.random.default_rng(20240817)
    probes = [rng.standard_normal(grid.m_pts) + 1j * rng.standard_normal(grid.m_pts)
              for _ in range(3)]
    z0 = rng.standard_normal(cols["mu"].shape[1]) + 1j * rng.standard_normal(cols["mu"].shape[1])
    kind, n_alpha, n_beta = _kinds(cols)
    mu, nu, a, b = cols["mu"], cols["nu"], cols["a"], cols["b"]
    # one numbering for the buckets and, after them, mirror keys without one
    key = (cols["m"], *mu.T, *nu.T, a, b, n_alpha, n_beta)
    mirror = (-cols["m"], *nu.T, *mu.T, b, a, n_beta, n_alpha)
    group, first = _groups(_pack([np.concatenate(pair) for pair in zip(key, mirror)]))
    own, of_mirror = group[:len(kind)], group[len(kind):]
    sums = np.zeros((len(first), len(probes)), dtype=complex)
    np.add.at(sums, own, coeff[:, None] * _f_factors(cols, factors, probes, grid.h))
    lead = first[:own.max() + 1]          # the first row of each bucket
    # a bucket and the mirrors of its mirror bucket share z0^mu conj(z0)^nu
    zmon = monomials(z0, mu[lead], nu[lead])[:, None]
    v1 = zmon * sums[:len(lead)]
    v2 = zmon * np.conj(sums[of_mirror[lead]])
    bad = (np.abs(v1 - v2) > tol_abs * (1.0 + np.abs(v1))).any(axis=1)
    if bad.any():
        # the first bad bucket in merged() order: by kind, then first seen
        t = ham.terms[min(lead[bad].tolist(), key=lambda row: (kind[row], row))]
        bucket = (t.m, t.mu, t.nu, t.a, t.b, len(t.alphas), len(t.betas))
        name = QUARTIC if t.tail is QUARTIC else t.kind
        return False, f"{name} bucket {bucket} has no conjugate mirror"
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

