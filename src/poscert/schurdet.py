"""Exact verification of the entrywise-determinant expansion.

For a formal power series f(t) = sum_M f_M t^M and vectors u, v of
length N, the determinant Delta(t) = det f[t u v^T] expands as

    V(u) V(v) * sum_{M >= C(N,2)} t^M
        sum_{n_N > ... > n_1 >= 0, sum n_j = M} s_n(u) s_n(v) prod_j f_{n_j},

with V the Vandermonde product prod_{i<j} (u_i - u_j) and s_n the Schur
polynomial evaluated through the bialternant det(x_i^{n_j}) / V(x).
Both sides are computed here independently and exactly, so each serves as an
oracle for the other. The left takes row i to its divided difference over
u_0..u_i, sending x^m to h_{m-i}(u_0..u_i): Delta(t) = prod_{k<i} (u_i - u_k)
t^{C(N,2)} det H, H_ij = sum_e f_{i+e} v_j^{i+e} h_e(u_0..u_i) t^e (a polynomial
identity in u), with det H by fraction-free elimination (Bareiss 1968), O(N^3)
products in Z[t]/(t^{c-C(N,2)+1}). The right sums det(u_i^{n_j}) det(v_i^{n_j})
= V(u) s_n(u) V(v) s_n(v) over the light tuples, walked depth first: tuples with
a common prefix share its fraction-free elimination steps. Both run in integers:
one front end clears the denominators of f, u and v once, and each side divides
its weight-M coefficient by the same (d_u d_v)^M d_f^N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import mul
from typing import Sequence

from .polycore import RationalLike, bareiss_step, clear_denominators, det_exact, rat


def schur_eval(tpl: Sequence[int], xs: Sequence[RationalLike]) -> Fraction:
    """Schur polynomial via the bialternant det(x_i^{n_j}) / V(x), V(x) = prod_{i<j} (x_i - x_j).

    The exponents, read with :func:`rat`, must be integers, strictly
    decreasing and >= 0; the columns carry them in that order, and the
    staircase (N-1, ..., 1, 0) evaluates to 1 for any distinct x.
    The division is exact because the numerator is alternating in x.
    """
    t = [rat(e) for e in tpl]
    if not t or any(e.denominator != 1 for e in t) or any(a <= b for a, b in zip(t, t[1:])) or t[-1] < 0:
        raise ValueError(f"tuple must be nonempty integers, strictly decreasing and >= 0: {tuple(tpl)}")
    vals = [rat(x) for x in xs]
    if len(vals) != len(t):
        raise ValueError("tuple length must match the number of variables")
    if len(set(vals)) != len(vals):
        raise ValueError("variables must be pairwise distinct")
    num = det_exact([[x**e for e in t] for x in vals])
    return num / prod(xi - xj for i, xi in enumerate(vals) for xj in vals[i + 1 :])


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


def _bareiss_entry(p: list[int], x: list[int], c: list[int], y: list[int], prev: list[int]) -> list[int]:
    """(p x - c y) / prev in Z[t]/(t^len(x)), for a quotient in Z[[t]] and prev[0] != 0."""
    q: list[int] = []
    for n in range(len(x)):
        s = sum(map(mul, p[: n + 1], x[n::-1])) - sum(map(mul, c[: n + 1], y[n::-1]))
        q.append((s - sum(map(mul, prev[1 : n + 1], q[::-1]))) // prev[0])
    return q


def _det_series(a: list[list[list[int]]], k: int) -> list[int]:
    # Fraction-free elimination (Bareiss 1968) in Z[t]/(t^k). Each pivot is a
    # remaining entry with a nonzero constant term, swapped into place (a sign
    # flip per row or column passed). Each update (p a_ij - a_ik a_kj) / prev is
    # a minor of the matrix (with the rows divided by t below), so it lies in
    # Z[[t]], and dividing by prev, whose constant term is nonzero, is exact one
    # coefficient at a time. With no such entry every remaining row is divisible
    # by t: one is divided by t, which moves a factor t into the result and
    # costs one coefficient of precision.
    rows = [[(x + [0] * k)[:k] for x in row] for row in a]
    sign, shift, prev = 1, 0, [1]
    while rows:
        piv = next(((i, j) for i, r in enumerate(rows) for j, x in enumerate(r) if x[0]), None)
        if piv is None:
            if (shift := shift + 1) == k:
                return [0] * k
            rows = [[x[1:] for x in rows[0]]] + [[x[:-1] for x in r] for r in rows[1:]]
            continue
        i, j = piv
        top, sign = rows.pop(i), sign * (-1) ** (i + j)
        p = top.pop(j)
        rows = [[_bareiss_entry(p, x, r[j], y, prev) for x, y in zip(r[:j] + r[j + 1 :], top)] for r in rows]
        prev = p
    return [0] * shift + [sign * c for c in prev]


def _cleared(f_coeffs, u, v, cutoff):
    """Both sides' front end: integers g, a, b and the divisor of each weight M.

    With f = g / d_f (cut at the cutoff), u = a / d_u and v = b / d_v, the t^M
    coefficient of det f[t u v^T] is that of det g[t a b^T] over (d_u d_v)^M d_f^N.
    """
    uu, vv = [rat(x) for x in u], [rat(x) for x in v]
    n = len(uu)
    if len(vv) != n:
        raise ValueError("u and v must have equal length")
    if cutoff < n * (n - 1) // 2:
        raise ValueError("cutoff must be at least binom(N, 2)")
    (g, df), (a, du), (b, dv) = map(clear_denominators, ([rat(c) for c in f_coeffs][: cutoff + 1], uu, vv))
    return g, a, b, [(du * dv) ** m * df**n for m in range(cutoff + 1)]


def det_series_direct(
    f_coeffs: Sequence[RationalLike],
    u: Sequence[RationalLike],
    v: Sequence[RationalLike],
    cutoff: int,
) -> TruncatedSeries:
    """Left side: det of the N x N matrix of series f(t u_i v_j), exact."""
    g, a, b, divisors = _cleared(f_coeffs, u, v, cutoff)
    low = len(a) * (len(a) - 1) // 2
    h, rows = [1] + [0] * (cutoff - low), []  # h[e] = h_e(a_0..a_i)
    for i, ai in enumerate(a):
        for e in range(1, len(h)):
            h[e] += ai * h[e - 1]
        rows.append([[gm * bj ** (i + e) * he for e, (gm, he) in enumerate(zip(g[i:], h))] for bj in b])
    scale = prod(ai - ak for i, ai in enumerate(a) for ak in a[:i])
    det = [0] * low + [scale * c for c in _det_series(rows, cutoff - low + 1)]
    return TruncatedSeries.make(cutoff, list(map(Fraction, det, divisors)))


def det_series_formula(
    f_coeffs: Sequence[RationalLike],
    u: Sequence[RationalLike],
    v: Sequence[RationalLike],
    cutoff: int,
) -> TruncatedSeries:
    """Right side: the Vandermonde-weighted Schur-polynomial expansion.

    V(u) s_n(u) is det(u_i^{n_j}), and the tuple's order cancels between
    the u and v determinants. Tuples from the support of f are walked depth
    first, a branch stopping once its weight plus its lightest completion
    exceeds cutoff; each exponent chosen is one fraction-free step on its
    column, shared by every tuple with that prefix. Entries may repeat, as on
    the left: each numerator det(u_i^{n_j}) is then 0, as V(u) is.
    """
    g, a, b, divisors = _cleared(f_coeffs, u, v, cutoff)
    n = len(a)
    support = [e for e, ge in enumerate(g) if ge]
    pre = list(accumulate(support, initial=0))
    out = [int(not n)] + [0] * cutoff  # N = 0: the empty determinant, 1

    def walk(start, left, weight, coef, sides):
        # sides: (rows left over support[start:], last lead) per vector; coef: prod g, signed
        for i in range(start, len(support) - left + 1):
            if weight + pre[i + left] - pre[i] > cutoff:
                return
            j, c = i - start, coef * g[support[i]]
            if left == 1:
                out[weight + support[i]] += c * prod(rows[0][j] for rows, _ in sides)
            elif all(steps := [bareiss_step(rows, j, prev) for rows, prev in sides]):  # else all zero below
                walk(i + 1, left - 1, weight + support[i], c * (-1) ** sum(s[0] for s in steps),
                     [(rest, top[j]) for _, top, rest in steps])

    if n:
        walk(0, n, 0, 1, [([[x**e for e in support] for x in xs], 1) for xs in (a, b)])
    return TruncatedSeries.make(cutoff, list(map(Fraction, out, divisors)))
