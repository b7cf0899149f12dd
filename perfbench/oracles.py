"""Checks of poscert's outputs by computations made apart from poscert.

Nothing here imports poscert. The LP oracles solve the grid LP with
HiGHS (``scipy.optimize.linprog``) on ``scipy.special`` Gegenbauer values
and re-check certificates with sympy; the lattice oracles compute theta
series by convolution and recheck vectors in exact integers; the Schur
oracle evaluates the lowest coefficient of det f[t u v^T] in closed form.
The benchmark runs these after all timed work, so their imports (scipy,
sympy) never enter a timed region or the memory measurement.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, lcm, prod
from typing import Optional, Sequence

import numpy as np
import sympy as sp
from scipy.optimize import linprog
from scipy.special import eval_gegenbauer

# The float bound of poscert and the HiGHS grid optimum must agree this
# closely (relative); a certified bound may undercut the HiGHS optimum by
# at most the solver's own relative accuracy.
LP_RTOL = 1e-6
HIGHS_RTOL = 1e-9
# Constraint generation stops when no grid point outside the working set
# has f(t) above this.
_VIOLATION_TOL = 1e-9

# Kissing configurations at cos 1/2 (Conway--Sloane, table 1.5): the root
# systems A2, D4, D5, E6, E7, E8, the Barnes--Wall lattice and Leech.
KISSING_CODE_AT_HALF = {3: 12, 4: 24, 5: 40, 6: 72, 7: 126, 8: 240, 16: 4320, 24: 196560}


def known_code_size(n: int, s: Fraction) -> Optional[int]:
    """Size of an explicit spherical code in R^n with all cosines <= s."""
    if s == Fraction(1, 2):
        # Otherwise the D_n roots: 2n(n-1) vectors at cosines 0, +-1/2, -1.
        return KISSING_CODE_AT_HALF.get(n, 2 * n * (n - 1))
    if s == 0:
        return 2 * n  # cross-polytope
    if s == Fraction(-1, n):
        return n + 1  # regular simplex
    return None


# ---------------------------------------------------------------------------
# Delsarte LP


def lp_grid(s: Fraction, grid: int) -> np.ndarray:
    """The grid+1 equally spaced points of [-1, s] that poscert constrains."""
    sf = float(s)
    ts = -1.0 + (sf + 1.0) * (np.arange(grid + 1) / grid)
    ts[-1] = sf
    return ts


def gegenbauer_values(n: int, d: int, ts: np.ndarray) -> np.ndarray:
    """Matrix of G_k^{(n)}(t_i), k = 1..d, normalized to G_k(1) = 1 (n >= 3)."""
    if n < 3:
        raise ValueError("the scipy oracle covers dimensions n >= 3")
    alpha = (n - 2) / 2
    return np.column_stack(
        [eval_gegenbauer(k, alpha, ts) / eval_gegenbauer(k, alpha, 1.0) for k in range(1, d + 1)]
    )


def grid_lp_optimum(n: int, s: Fraction, d: int, grid: int) -> float:
    """min f(1) over f = 1 + sum_k c_k G_k, c >= 0, f <= 0 on the grid.

    Solved with HiGHS by constraint generation: start from a sparse
    subgrid, add the most violated grid points, and re-solve until the
    whole grid is satisfied. The result is the optimum of the full grid
    LP; one HiGHS solve on a 100,001-row LP costs seconds, this costs a
    few tenths.
    """
    ts = lp_grid(s, grid)
    gv = gegenbauer_values(n, d, ts)
    rows = np.unique(np.concatenate([np.linspace(0, grid, min(grid + 1, 64 * d)).astype(int), [grid]]))
    for _ in range(100):
        res = linprog(
            np.ones(d), A_ub=gv[rows], b_ub=-np.ones(len(rows)), bounds=(0, None), method="highs"
        )
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed on ({n}, {s}, {d}, {grid}): {res.message}")
        viol = 1.0 + gv @ res.x
        viol[rows] = -np.inf  # HiGHS holds these to its own tolerance
        worst = np.argsort(viol)[-8 * d :]
        worst = worst[viol[worst] > _VIOLATION_TOL]
        if worst.size == 0:
            return 1.0 + float(res.fun)
        rows = np.union1d(rows, worst)
    raise RuntimeError("constraint generation did not converge")


class CertificateChecker:
    """Exact recheck of a Delsarte certificate with sympy.

    Holds the sympy Gegenbauer polynomials it has built, keyed by (n, k),
    so that one checker can recheck many certificates cheaply.
    """

    def __init__(self) -> None:
        self._x = sp.Symbol("x")
        self._basis: dict[tuple[int, int], sp.Poly] = {}

    def _gegenbauer(self, n: int, k: int) -> sp.Poly:
        key = (n, k)
        if key not in self._basis:
            g = sp.Poly(sp.gegenbauer(k, sp.Rational(n - 2, 2), self._x), self._x, domain="QQ")
            self._basis[key] = g * (1 / g.eval(1))
        return self._basis[key]

    def bound(self, n: int, s: Fraction, coeffs: Sequence[Fraction]) -> tuple[Optional[Fraction], list[str]]:
        """The certified bound f(1)/c_0, or None with the failed checks.

        ``coeffs`` are the monomial coefficients of f, constant term first.
        Checks: every Gegenbauer coefficient >= 0, c_0 > 0, and f <= 0 on
        [-1, s], the last by isolating all real roots of f and testing one
        point in every root-free stretch that meets [-1, s].
        """
        if n < 3:
            raise ValueError("the sympy oracle covers dimensions n >= 3")
        x = self._x
        f = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x, domain="QQ")
        if f.is_zero:
            return None, ["zero polynomial"]
        rem = f
        gcoeffs = []
        for k in range(f.degree(), -1, -1):
            g = self._gegenbauer(n, k)
            c = rem.coeff_monomial(x**k) / g.LC()
            gcoeffs.append(c)
            rem = rem - g * c
        if not rem.is_zero:
            return None, ["Gegenbauer expansion does not reproduce f"]
        gcoeffs.reverse()
        problems = [f"negative Gegenbauer coefficient at k={k}" for k, c in enumerate(gcoeffs) if c < 0]
        if gcoeffs[0] <= 0:
            problems.append("c_0 is not positive")
        lo, hi = sp.Rational(-1), sp.Rational(s.numerator, s.denominator)
        probes = [lo, hi]
        isolating = sorted(iv for iv, _mult in f.intervals())
        for (_, b), (a, _) in zip(isolating, isolating[1:]):
            mid = (b + a) / 2
            if lo <= mid <= hi:
                probes.append(mid)
        if any(f.eval(p) > 0 for p in probes):
            problems.append("f is positive somewhere on [-1, s]")
        if problems:
            return None, problems
        b = f.eval(1) / gcoeffs[0]
        return Fraction(int(b.p), int(b.q)), []


# ---------------------------------------------------------------------------
# lattices


def sigma3(m: int) -> int:
    return sum(d**3 for d in range(1, m + 1) if m % d == 0)


def theta_e8(max_norm: int) -> list[int]:
    """r(m), m = 0..max_norm, for E8: 240 sigma_3(m/2) at even m, else 0."""
    return [1] + [240 * sigma3(m // 2) if m % 2 == 0 else 0 for m in range(1, max_norm + 1)]


def theta_zk(k: int, max_norm: int) -> list[int]:
    """r_k(m), m = 0..max_norm, for Z^k: the k-th power of theta_3 by convolution."""
    one = [0] * (max_norm + 1)
    j = 0
    while j * j <= max_norm:
        one[j * j] += 1 if j == 0 else 2
        j += 1
    out = [1] + [0] * max_norm
    for _ in range(k):
        out = [sum(out[i] * one[m - i] for i in range(m + 1)) for m in range(max_norm + 1)]
    return out


def theta_d4(max_norm: int) -> list[int]:
    """D4 is the even-sum sublattice of Z^4, which is exactly its even-norm part."""
    return [r if m % 2 == 0 else 0 for m, r in enumerate(theta_zk(4, max_norm))]


def check_short_vectors(
    gram: Sequence[Sequence[Fraction]], bound: Fraction, vectors: Sequence[Sequence[int]], theta: Sequence[int]
) -> list[str]:
    """Exact norms in (0, bound], no duplicates, closed under negation, shells = theta."""
    scale = lcm(*(g.denominator for row in gram for g in row))
    gz = np.array([[int(g * scale) for g in row] for row in gram], dtype=np.int64)
    vs = np.asarray(vectors, dtype=np.int64).reshape(len(vectors), len(gram))
    # int64 norms are exact while n^2 |v|^2 |G| stays below 2^62.
    vmax = int(np.abs(vs).max()) if len(vectors) else 0
    if len(gram) ** 2 * vmax**2 * int(np.abs(gz).max()) >= 2**62:
        return ["coordinates too large to check the norms exactly"]
    norms = np.einsum("ij,jk,ik->i", vs, gz, vs).tolist()
    problems = []
    if any(q <= 0 or q > bound * scale for q in norms):
        problems.append("a vector has norm 0 or above the bound")
    if any(q % scale for q in norms):
        problems.append("a norm is not an integer")
    seen = set(map(tuple, vs.tolist()))
    if len(seen) != len(vectors):
        problems.append("duplicate vectors")
    if any(tuple(-a for a in v) not in seen for v in seen):
        problems.append("list not closed under negation")
    counts = Counter(norms)
    for m in range(1, len(theta)):
        if m <= bound and counts[m * scale] != theta[m]:
            problems.append(f"shell {m}: {counts[m * scale]} vectors, theta series says {theta[m]}")
    return problems


# Classical invariants (Conway--Sloane, ch. 1 and 4): minimal norm,
# determinant of the Gram matrix, kissing number and gamma^n = lambda1^(2n)/det.
ROOT_LATTICE_INVARIANTS = {
    "A1": (2, 2, 2, Fraction(1)),
    "A2": (2, 3, 6, Fraction(4, 3)),
    "A3": (2, 4, 12, Fraction(2)),
    "D4": (2, 4, 24, Fraction(4)),
    "D5": (2, 4, 40, Fraction(8)),
    "E6": (2, 3, 72, Fraction(64, 3)),
    "E7": (2, 2, 126, Fraction(64)),
    "E8": (2, 1, 240, Fraction(256)),
}


def expected_invariants(name: str) -> tuple[int, int, int, Fraction]:
    if name in ROOT_LATTICE_INVARIANTS:
        return ROOT_LATTICE_INVARIANTS[name]
    if name.startswith("Z"):
        k = int(name[1:])
        return (1, 1, 2 * k, Fraction(1))
    raise KeyError(name)


def check_invariants(name: str, lambda1_sq: Fraction, covolume_sq: Fraction, kissing: int, gamma_pow_n: Fraction) -> list[str]:
    lam, det, kiss, gamma = expected_invariants(name)
    got = (lambda1_sq, covolume_sq, kissing, gamma_pow_n)
    want = (Fraction(lam), Fraction(det), kiss, gamma)
    labels = ("lambda1^2", "det", "kissing", "gamma^n")
    return [f"{name} {lab}: {g} != {w}" for lab, g, w in zip(labels, got, want) if g != w]


# ---------------------------------------------------------------------------
# Schur expansion of det f[t u v^T]


def check_schur_identity(
    f: Sequence[Fraction],
    u: Sequence[Fraction],
    v: Sequence[Fraction],
    direct: Sequence[Fraction],
    formula: Sequence[Fraction],
) -> list[str]:
    """Both sides agree; t^M vanishes for M < C(N,2); t^C(N,2) is V(u)V(v) f_0...f_{N-1}."""
    n = len(u)
    low = comb(n, 2)
    problems = []
    if list(direct) != list(formula):
        problems.append("det_series_direct and det_series_formula disagree")
    if any(c != 0 for c in direct[:low]):
        problems.append(f"a coefficient below t^{low} is nonzero")

    def vdm(xs):
        return prod((xs[i] - xs[j] for i in range(len(xs)) for j in range(i + 1, len(xs))), start=Fraction(1))

    lead = vdm(u) * vdm(v) * prod(f[:n], start=Fraction(1))
    if direct[low] != lead:
        problems.append(f"t^{low} coefficient {direct[low]} != V(u)V(v)f_0..f_(N-1) = {lead}")
    return problems
