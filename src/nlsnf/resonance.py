"""Nondegeneracy hypothesis checks and the resonant index-set catalog.

All checks are exhaustive enumerations over the finite ranges fixed by the
spectral budget N.  Strict inequalities must clear tol_res; anything inside
the margin is reported as a violation rather than silently rounded.  The
size of each enumeration is known in closed form from N, and one larger
than MAX_ENUMERATION is refused with ConfigError before it starts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, HypothesisViolation

TOL_RES = 1e-9

# the most (multi-index, m) pairs one enumeration may visit: (H7) and (H8)
# together, or the (mu, nu, m) loop of the catalog.  lambda = (0, 0.7) at
# c = 100.5 (N = 143) gives (H7) and (H8) 4.8e7 pairs, 12-20 s on 2 vCPUs
MAX_ENUMERATION = 60_000_000

# the most pairs one block of the catalog's minimality sweep compares at
# once (bytes of its boolean array)
_DOMINANCE_BLOCK = 1 << 22


@dataclass(frozen=True)
class IndexTriple:
    m: int
    mu: tuple
    nu: tuple

    def mirror(self) -> "IndexTriple":
        return IndexTriple(-self.m, self.nu, self.mu)


@dataclass
class ResonanceBudget:
    n_j: list          # N_j for each positive eigenvalue index j = 1..n
    floor_c: int       # [c]
    big_n: int         # N = max{N_1, [c]}


@dataclass
class HypothesisReport:
    h5_ok: bool
    h7_ok: bool
    h8_ok: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.h5_ok and self.h7_ok and self.h8_ok


@dataclass
class ResonanceCatalog:
    lam: np.ndarray
    c: float
    big_n: int
    big_m: list            # IndexTriple list, lexicographically ordered
    big_m_prime: list
    minimal: list          # M
    minimal_prime: list    # M'
    x_values: list         # sorted w values, w = lambda.(beta - alpha) + m over M
    m_w: dict              # w -> list of triples in M
    min_gap: float         # min over X of (w - c)


def resonance_budget(lam, c: float, tol_res: float = TOL_RES) -> ResonanceBudget:
    """N_j with N_j lambda_j < c < (N_j + 1) lambda_j; errors on boundary hits."""
    lam = np.asarray(lam, dtype=float)
    if len(lam) == 0 or abs(lam[0]) > tol_res:
        raise HypothesisViolation("budget requires lambda_0 = 0")
    if np.any(np.diff(lam) < -tol_res):
        raise HypothesisViolation("eigenvalues must be nondecreasing")
    if np.any(lam >= c - tol_res):
        raise HypothesisViolation("all eigenvalues must sit below the threshold c")
    n_j = []
    for j in range(1, len(lam)):
        q = c / lam[j]
        if abs(q - round(q)) * lam[j] < tol_res * max(1.0, c):
            raise HypothesisViolation(
                f"(H6) violated: {round(q)} * lambda_{j} = c within tolerance",
                witnesses=[(j, float(lam[j]))],
            )
        n_j.append(int(math.floor(q)))
    floor_c = int(math.floor(c))
    return ResonanceBudget(n_j=n_j, floor_c=floor_c, big_n=max(n_j + [floor_c]))


def _signed_count(k: int, max_abs_sum: int) -> int:
    """|{mu in Z^k : |mu_1| + ... + |mu_k| <= max_abs_sum}|: i nonzero entries
    take C(k, i) places, 2^i signs and C(max_abs_sum, i) magnitudes."""
    return sum(2 ** i * math.comb(k, i) * math.comb(max_abs_sum, i)
               for i in range(min(k, max_abs_sum) + 1))


def _catalog_count(k: int, big_n: int) -> int:
    """Iterations of the (mu, nu, m) loop of `build_index_sets` over k
    eigenvalues: the sum over s = 0..N of C(s+k-1, k-1) C(s+k, k-1) (2s+1),
    a polynomial of degree 2k - 1 in s, summed by its forward differences
    at s = 0."""
    diffs = [math.comb(s + k - 1, k - 1) * math.comb(s + k, k - 1) * (2 * s + 1)
             for s in range(2 * k)]
    total = 0
    for j in range(2 * k):
        total += diffs[0] * math.comb(big_n + 1, j + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return total


def _refuse_over_limit(size: int, what: str, big_n: int):
    def sci(n: int) -> str:   # ints past the float range too
        digits = str(n)
        return digits if len(digits) <= 12 else f"{digits[0]}.{digits[1:3]}e+{len(digits) - 1}"

    if size > MAX_ENUMERATION:
        raise ConfigError(f"budget N = {sci(big_n)}: {what} would enumerate {sci(size)} "
                          f"(index, m) pairs, more than the limit of {MAX_ENUMERATION}")


def _signed_multiindices(k: int, max_abs_sum: int):
    """All mu in Z^k with |mu_1| + ... + |mu_k| <= max_abs_sum."""
    if k == 0:
        yield ()
        return
    for head in range(-max_abs_sum, max_abs_sum + 1):
        for rest in _signed_multiindices(k - 1, max_abs_sum - abs(head)):
            yield (head,) + rest


def check_hypotheses(lam, c: float, budget: ResonanceBudget,
                     tol_res: float = TOL_RES) -> HypothesisReport:
    """(H5), (H7), (H8) by exhaustive enumeration; violations are report entries.

    (H7): mu.lambda + m != c over signed mu with |mu| <= 2N+1, |m| <= N.
    (H8): over the distinct positive eigenvalues, mu.lambda + m = 0 with
    |mu| <= 4N+2, |m| <= 2N forces mu = 0, m = 0.
    Raises ConfigError when the two enumerations exceed MAX_ENUMERATION.
    """
    lam = np.asarray(lam, dtype=float)
    big_n = budget.big_n
    pos = sorted(set(round(float(v), 12) for v in lam if v > tol_res))
    _refuse_over_limit(_signed_count(len(lam), 2 * big_n + 1) * (2 * big_n + 1)
                       + _signed_count(len(pos), 4 * big_n + 2) * (4 * big_n + 1),
                       "(H7) and (H8)", big_n)
    witnesses: dict = {"h5": [], "h7": [], "h8": []}

    # (H5): c not a positive integer
    h5_ok = not (abs(c - round(c)) < tol_res * max(1.0, c) and round(c) >= 1)
    if not h5_ok:
        witnesses["h5"].append(int(round(c)))

    # (H7) over all n+1 coordinates (lambda_0 = 0 contributes nothing but is
    # enumerated as written)
    h7_ok = True
    for mu in _signed_multiindices(len(lam), 2 * big_n + 1):
        val = float(np.dot(mu, lam))
        for m in range(-big_n, big_n + 1):
            if abs(val + m - c) < tol_res * max(1.0, c):
                h7_ok = False
                witnesses["h7"].append({"mu": mu, "m": m, "value": val + m})

    # (H8) over distinct positive eigenvalues
    h8_ok = True
    for mu in _signed_multiindices(len(pos), 4 * big_n + 2):
        val = float(np.dot(mu, pos))
        for m in range(-2 * big_n, 2 * big_n + 1):
            if abs(val + m) < tol_res * max(1.0, c):
                if any(mu) or m != 0:
                    h8_ok = False
                    witnesses["h8"].append({"mu": mu, "m": m})

    return HypothesisReport(h5_ok=h5_ok, h7_ok=h7_ok, h8_ok=h8_ok,
                            witnesses={k: v for k, v in witnesses.items() if v})


def _nonneg_multiindices(k: int, total: int):
    """All mu in N_0^k with sum mu = total."""
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _nonneg_multiindices(k - 1, total - head):
            yield (head,) + rest


def _minimal_of(triples: list) -> list:
    """The triples that no other triple of the same m bounds from below,
    componentwise in (mu, nu), in their given order.

    triples is sorted by m and holds each triple once.  Each run of equal m
    takes one array test of every pair, in blocks of at most _DOMINANCE_BLOCK
    pairs: the sweep never compares triples of different m.
    """
    out = []
    for _, run in itertools.groupby(triples, key=lambda t: t.m):
        run = list(run)
        idx = np.array([t.mu + t.nu for t in run]).T      # one row per component
        dominated = np.zeros(len(run), dtype=bool)
        rows = max(1, _DOMINANCE_BLOCK // len(run))
        for lo in range(0, len(run), rows):
            block = idx[:, lo:lo + rows, None]
            below = block[0] <= idx[0]                    # [s - lo, t]: s <= t
            for comp in range(1, len(idx)):
                below &= block[comp] <= idx[comp]
            below[np.arange(len(below)), np.arange(lo, lo + len(below))] = False
            dominated |= below.any(axis=0)
        out += itertools.compress(run, ~dominated)
    return out


def build_index_sets(lam, c: float, budget: ResonanceBudget,
                     report: HypothesisReport | None = None,
                     tol_res: float = TOL_RES) -> ResonanceCatalog:
    """Enumerate the resonant triples and reduce to the minimal sets.

    bigM = {(m, mu, nu): lambda.(mu - nu) - m < -c, |mu| = |nu| - 1,
    |m| <= |mu| <= N}; M keeps the componentwise-minimal triples at fixed m.
    Refuses to run on a dirty (H8) report, since the constancy of m and
    lambda.(mu - nu) within each M_w depends on it, and raises ConfigError
    when the loop would exceed MAX_ENUMERATION.
    """
    if report is not None and not report.h8_ok:
        raise HypothesisViolation("(H8) dirty: the M_w partition is not well defined")
    lam = np.asarray(lam, dtype=float)
    nn = len(lam)
    big_n = budget.big_n
    _refuse_over_limit(_catalog_count(nn, big_n), "the catalog", big_n)

    big_m = []
    for size_mu in range(0, big_n + 1):
        for mu in _nonneg_multiindices(nn, size_mu):
            for nu in _nonneg_multiindices(nn, size_mu + 1):
                base = float(lam @ (np.array(mu) - np.array(nu)))
                for m in range(-size_mu, size_mu + 1):
                    val = base - m
                    if abs(val + c) < tol_res * max(1.0, c):
                        raise HypothesisViolation(
                            "resonance threshold hit within tolerance",
                            witnesses=[(m, mu, nu)],
                        )
                    if val < -c:
                        big_m.append(IndexTriple(m, mu, nu))
    big_m.sort(key=lambda t: (t.m, t.mu, t.nu))
    big_m_prime = [t.mirror() for t in big_m]

    minimal = _minimal_of(big_m)
    minimal_prime = [t.mirror() for t in minimal]

    # X and the partition {M_w}
    m_w: dict = {}
    for t in minimal:
        w = float(lam @ (np.array(t.nu) - np.array(t.mu))) + t.m
        matched = None
        for key in m_w:
            if abs(key - w) < tol_res * max(1.0, abs(w)):
                matched = key
                break
        m_w.setdefault(matched if matched is not None else w, []).append(t)
    x_values = sorted(m_w)
    for w, members in m_w.items():
        if w <= c:
            raise HypothesisViolation(f"w = {w} in X does not exceed the threshold c = {c}")
        ms = {t.m for t in members}
        oms = {round(float(lam @ (np.array(t.mu) - np.array(t.nu))), 9) for t in members}
        if len(ms) > 1 or len(oms) > 1:
            raise HypothesisViolation(
                f"M_w at w = {w} mixes harmonics or frequencies: {members}")
    min_gap = min((w - c for w in x_values), default=float("inf"))
    return ResonanceCatalog(
        lam=lam, c=c, big_n=big_n,
        big_m=big_m, big_m_prime=big_m_prime,
        minimal=minimal, minimal_prime=minimal_prime,
        x_values=x_values, m_w=m_w, min_gap=min_gap,
    )


def catalog_report(catalog: ResonanceCatalog, budget: ResonanceBudget,
                   report: HypothesisReport) -> str:
    """Plain-text listing with witnesses and margins."""
    lines = []
    lines.append(f"lambda = {np.array2string(catalog.lam, precision=8)}")
    lines.append(f"c = {catalog.c:.8g}, [c] = {budget.floor_c}, "
                 f"N_j = {budget.n_j}, N = {budget.big_n}")
    lines.append(f"(H5) {'ok' if report.h5_ok else 'VIOLATED'}"
                 + (f" witnesses {report.witnesses.get('h5')}" if not report.h5_ok else ""))
    lines.append(f"(H7) {'ok' if report.h7_ok else 'VIOLATED'}"
                 + (f" witnesses {report.witnesses.get('h7')[:5]}" if not report.h7_ok else ""))
    lines.append(f"(H8) {'ok' if report.h8_ok else 'VIOLATED'}"
                 + (f" witnesses {report.witnesses.get('h8')[:5]}" if not report.h8_ok else ""))
    lines.append(f"|bigM| = {len(catalog.big_m)}, |M| = {len(catalog.minimal)}, "
                 f"min gap above c = {catalog.min_gap:.6g}")
    minimal = set(catalog.minimal)
    for t in catalog.big_m:
        tag = "minimal" if t in minimal else "dominated"
        lines.append(f"  (m={t.m}, mu={t.mu}, nu={t.nu})  [{tag}]")
    lines.append("X = " + ", ".join(f"{w:.8g}" for w in catalog.x_values))
    for w in catalog.x_values:
        members = ", ".join(f"(m={t.m}, mu={t.mu}, nu={t.nu})" for t in catalog.m_w[w])
        lines.append(f"  M_w at w = {w:.8g}: {members}")
    return "\n".join(lines)
