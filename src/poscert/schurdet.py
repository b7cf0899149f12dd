"""Exact verification of the entrywise-determinant expansion.

For a formal power series f(t) = sum_M f_M t^M and vectors u, v of
length N, the determinant Delta(t) = det f[t u v^T] expands as

    V(u) V(v) * sum_{M >= C(N,2)} t^M
        sum_{n_N > ... > n_1 >= 0, sum n_j = M} s_n(u) s_n(v) prod_j f_{n_j},

with V the Vandermonde product prod_{i<j} (u_i - u_j) and s_n the Schur
polynomial evaluated through the bialternant det(x_i^{n_j}) / V(x).
Both sides are computed here independently and exactly, so each serves
as an oracle for the other. The left is Berkowitz's division-free
determinant (Berkowitz 1984) in the truncated ring Z[t]/(t^{c+1}), after
one common denominator is cleared from the rational entries; it takes
O(N^4) series products. The right sums det(u_i^{n_j}) det(v_i^{n_j}),
which is V(u) s_n(u) V(v) s_n(v), over the light tuples, in integers too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import lcm, prod
from operator import mul
from typing import Sequence

from .polycore import RationalLike, clear_denominators, det_exact, rat


def validate_strict_tuple(tpl: Sequence[int]) -> tuple[int, ...]:
    """A strictly decreasing tuple of nonnegative integers."""
    t = tuple(int(x) for x in tpl)
    if not t:
        raise ValueError("tuple must be nonempty")
    if any(a <= b for a, b in zip(t, t[1:])) or t[-1] < 0:
        raise ValueError(f"tuple must be strictly decreasing and >= 0: {t}")
    return t


def vandermonde(xs: Sequence[RationalLike]) -> Fraction:
    """V(x) = prod_{i<j} (x_i - x_j)."""
    vals = [rat(x) for x in xs]
    out = Fraction(1)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            out *= vals[i] - vals[j]
    return out


def schur_eval(tpl: Sequence[int], xs: Sequence[RationalLike]) -> Fraction:
    """Schur polynomial via the bialternant det(x_i^{n_j}) / V(x).

    Columns carry the exponents in the given strictly decreasing order;
    the staircase (N-1, ..., 1, 0) evaluates to 1 for any distinct x.
    The division is exact because the numerator is alternating in x.
    """
    t = validate_strict_tuple(tpl)
    vals = [rat(x) for x in xs]
    if len(vals) != len(t):
        raise ValueError("tuple length must match the number of variables")
    if len(set(vals)) != len(vals):
        raise ValueError("variables must be pairwise distinct")
    num = det_exact([[x**e for e in t] for x in vals])
    return num / vandermonde(vals)


@dataclass(frozen=True)
class TruncatedSeries:
    """Element of Q[t]/(t^{cutoff+1}), as its cutoff + 1 coefficients."""

    cutoff: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(cutoff: int, coeffs: Sequence[RationalLike] = ()) -> "TruncatedSeries":
        cs = [rat(c) for c in coeffs][: cutoff + 1]
        cs += [Fraction(0)] * (cutoff + 1 - len(cs))
        return TruncatedSeries(cutoff, tuple(cs))


def _mul_trunc(a: Sequence, b: Sequence, cutoff: int) -> list:
    """Coefficients 0..cutoff of the product of two coefficient sequences.

    Missing coefficients are zero. Each output is one dot product of the
    shorter sequence, reversed, with a window of the longer one.
    """
    if len(a) > len(b):
        a, b = b, a
    ra, pb = a[::-1], [0] * (len(a) - 1) + list(b)
    return [
        sum(map(mul, ra, pb[k : k + len(a)]))
        for k in range(min(len(a) + len(b) - 1, cutoff + 1))
    ]


def _dot(xs: Sequence[list[int]], ys: Sequence[list[int]], cutoff: int) -> list[int]:
    """sum_j xs[j] * ys[j] in Z[t]/(t^{cutoff+1})."""
    prods = [_mul_trunc(x, y, cutoff) for x, y in zip(xs, ys)]
    return [sum(col) for col in zip_longest(*prods, fillvalue=0)]


def _det_berkowitz(a: list[list[list[int]]], cutoff: int) -> list[int]:
    # Berkowitz's algorithm: the characteristic polynomial of the leading
    # block A_{r+1} = [[A_r, C], [R, a_rr]] is the lower-triangular Toeplitz
    # matrix with first column (1, -a_rr, -R C, -R A_r C, ..., -R A_r^{r-1} C)
    # applied to that of A_r (Samuelson's formula). It uses only ring
    # operations, so the zero divisors of the truncated ring do no harm.
    # poly[m] is the coefficient of x^{r-m} in det(x I - A_r), so in the
    # end det A = (-1)^N poly[N].
    one = [1]
    poly = [one]
    for r in range(len(a)):
        row, w = a[r][:r], [a[i][r] for i in range(r)]
        col = [one, [-x for x in a[r][r]]]
        for k in range(r):
            col.append([-x for x in _dot(row, w, cutoff)])
            if k < r - 1:
                w = [_dot(a[i][:r], w, cutoff) for i in range(r)]
        poly = [_dot(col[m::-1], poly[: m + 1], cutoff) for m in range(r + 2)]
    return poly[-1] if len(a) % 2 == 0 else [-x for x in poly[-1]]


def det_series_direct(
    f_coeffs: Sequence[RationalLike],
    u: Sequence[RationalLike],
    v: Sequence[RationalLike],
    cutoff: int,
) -> TruncatedSeries:
    """Left side: det of the N x N matrix of series f(t u_i v_j), exact."""
    uu = [rat(x) for x in u]
    vv = [rat(x) for x in v]
    n = len(uu)
    if len(vv) != n:
        raise ValueError("u and v must have equal length")
    if cutoff < n * (n - 1) // 2:
        raise ValueError("cutoff must be at least binom(N, 2)")
    fs = [rat(c) for c in f_coeffs][: cutoff + 1]
    mat = [[[fm * (ui * vj) ** m for m, fm in enumerate(fs)] for vj in vv] for ui in uu]
    # det(D A) = D^N det(A), for D the lcm of every entry's denominators.
    d = lcm(*(c.denominator for row in mat for entry in row for c in entry))
    scaled = [[[c.numerator * (d // c.denominator) for c in e] for e in row] for row in mat]
    det = _det_berkowitz(scaled, cutoff)
    return TruncatedSeries.make(cutoff, [Fraction(c, d**n) for c in det])


def _light_tuples(support: Sequence[int], n: int, cutoff: int):
    """(tuple, weight) of the increasing n-tuples from the sorted support, weight <= cutoff."""
    pre = list(accumulate(support, initial=0))

    def grow(start, left, tpl, weight):
        if not left:
            yield tpl, weight
            return
        for i in range(start, len(support) - left + 1):
            if weight + pre[i + left] - pre[i] > cutoff:
                return
            yield from grow(i + 1, left - 1, tpl + (support[i],), weight + support[i])

    return grow(0, n, (), 0)


def det_series_formula(
    f_coeffs: Sequence[RationalLike],
    u: Sequence[RationalLike],
    v: Sequence[RationalLike],
    cutoff: int,
) -> TruncatedSeries:
    """Right side: the Vandermonde-weighted Schur-polynomial expansion.

    V(u) s_n(u) is det(u_i^{n_j}), and the tuple's order cancels between
    the u and v determinants. Tuples come from the support of f, a branch
    stopping once its weight plus its lightest completion exceeds cutoff.
    With u = a / d_u, v = b / d_v, f = g / d_f, the weight-M coefficient is
    sum det(a_i^{n_j}) det(b_i^{n_j}) prod_j g_{n_j} / ((d_u d_v)^M d_f^N).
    """
    uu = [rat(x) for x in u]
    vv = [rat(x) for x in v]
    n = len(uu)
    if len(vv) != n:
        raise ValueError("u and v must have equal length")
    if cutoff < n * (n - 1) // 2:
        raise ValueError("cutoff must be at least binom(N, 2)")
    if len(set(uu)) != n or len(set(vv)) != n:
        raise ValueError("u and v entries must be pairwise distinct")
    g, df = clear_denominators([rat(c) for c in f_coeffs][: cutoff + 1])
    (a, du), (b, dv) = clear_denominators(uu), clear_denominators(vv)
    pows = [[[x**m for m in range(len(g))] for x in xs] for xs in (a, b)]
    out = [0] * (cutoff + 1)
    for tpl, m in _light_tuples([e for e, ge in enumerate(g) if ge], n, cutoff):
        da, db = (det_exact([[row[e] for e in tpl] for row in p]) for p in pows)
        out[m] += da.numerator * db.numerator * prod(g[e] for e in tpl)
    return TruncatedSeries.make(cutoff, [Fraction(c, (du * dv) ** m * df**n) for m, c in enumerate(out)])
