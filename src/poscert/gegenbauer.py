"""Gegenbauer polynomials G_k^{(n)}, exactly, normalized so G_k(1) = 1.

The family interpolates the classical orthogonal systems on [-1, 1] with
weight (1 - t^2)^{(n-3)/2}: Chebyshev (first kind) at n = 2, Legendre at
n = 3, Chebyshev (second kind) at n = 4. The three-term recurrence, run
over Python ints into one integer row and denominator per degree, gives
the exact polynomials; the exact basis changes use the integer rows. Also:
normalized weight moments and the one float evaluation (:func:`gegenbauer_values`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Sequence

import numpy as np

from .polycore import Poly, Rational, clear_denominators, integer, rat


@dataclass(frozen=True)
class GegenbauerCoeffs:
    """Coefficients c_k of an expansion sum_k c_k G_k^{(n)}."""

    dim: int
    coeffs: tuple[Fraction, ...]


# One table per dimension n: (Q_k, E_k) with G_k = Q_k / E_k, E_k > 0 and
# gcd(Q_k, E_k) = 1, up to the highest k requested so far. A longer request
# replaces the tuple, never mutates it, so no reader sees a partial table.
_TABLES: dict[int, tuple[tuple[tuple[int, ...], int], ...]] = {}


def _table(n: int, kmax: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(Q_k, E_k) for k = 0..m, some m >= kmax, extending the table if needed."""
    rows = _TABLES.get(n, ())
    if len(rows) > kmax:
        return rows
    # G_0 = 1, G_1 = t, then the three-term recurrence
    #   G_k = ((2k+n-4) t G_{k-1} - (k-1) G_{k-2}) / (k+n-3),   k >= 2,
    # over the denominator lcm(E_{k-1}, E_{k-2}) (k+n-3), one gcd per row.
    # k+n-3 only vanishes at (n, k) = (2, 1), before the recurrence starts.
    out = list(rows) or [((1,), 1), ((0, 1), 1)]
    for k in range(len(out), kmax + 1):
        (q1, e1), (q2, e2) = out[k - 1], out[k - 2]
        e = lcm(e1, e2)
        a, b = (2 * k + n - 4) * (e // e1), (k - 1) * (e // e2)
        num = [0] + [a * c for c in q1]
        num[:k - 1] = [x - b * c for x, c in zip(num, q2)]
        g = gcd(e * (k + n - 3), *num)
        out.append((tuple(c // g for c in num), e * (k + n - 3) // g))
    _TABLES[n] = rows = tuple(out)
    return rows


def gegenbauer(n: int, k: int) -> Poly:
    """The degree-k polynomial G_k^{(n)} with exact rational coefficients."""
    n, k = integer(n, 2, "dimension"), integer(k, 0, "k")
    q, e = _table(n, k)[k]
    return Poly([Fraction(c, e) for c in q])


def gegenbauer_values(n: int, kmax: int, ts) -> np.ndarray:
    """Float values of G_0..G_kmax^{(n)} at ts; row k holds G_k(ts).

    The three-term recurrence of :func:`_table`, run in floats, is stable
    on [-1, 1]; monomial coefficients in floats cancel catastrophically
    there from degree ~40 on.
    """
    n, kmax = integer(n, 2, "dimension"), integer(kmax, 0, "kmax")
    ts = np.asarray(ts, dtype=float)
    out = np.empty((kmax + 1,) + ts.shape)
    out[0], out[1:2] = 1.0, ts
    for k in range(2, kmax + 1):
        out[k] = ((2 * k + n - 4) * ts * out[k - 1] - (k - 1) * out[k - 2]) / (k + n - 3)
    return out


def gegenbauer_roots(n: int, c, drop: float) -> np.ndarray:
    """Sorted real parts of the roots of sum_k c_k G_k^{(n)}, the eigenvalues of its comrade matrix.

    Row r is :func:`_table`'s t G_r = a_r G_{r+1} + b_r G_{r-1}: a_r = (r+n-2)/(2r+n-2), a_0 = 1,
    b_r = r/(2r+n-2); the last also takes G_D = -sum_{j<D} c_j G_j / c_D. Trailing c_k with sum
    |c_k| <= ``drop`` are dropped first: as |G_k| <= 1 on [-1, 1], f moves by at most ``drop`` there.
    """
    n = integer(n, 2, "dimension")
    c = np.asarray(c, dtype=float)
    D = int(np.count_nonzero(np.cumsum(np.abs(c[::-1])) > drop)) - 1
    if D < 1:
        return np.empty(0)
    r = np.arange(1, D)
    a = np.concatenate(([1.0], (r + n - 2) / (2 * r + n - 2)))
    M = np.diag(a[:-1], 1) + np.diag(r / (2 * r + n - 2), -1)
    M[-1] -= a[-1] * c[:D] / c[D]
    return np.sort(np.linalg.eigvals(M).real)


def to_gegenbauer_basis(n: int, p: Poly) -> GegenbauerCoeffs:
    """Exact coefficients c with p = sum_k c_k G_k^{(n)}.

    Back-substitution on the degree-triangular change of basis: G_k has
    degree exactly k and the parity of k, so the top coefficient of the
    remainder pins c_k and the tail is peeled off degree by degree. The even
    and odd halves are kept apart, each as integers over one denominator.
    No content is taken out of a half: the ``Fraction`` of each c_k reduces itself.
    """
    n = integer(n, 2, "dimension")
    if p.is_zero:
        return GegenbauerCoeffs(n, ())
    fam = _table(n, p.degree)
    nums, den = clear_denominators(p.coeffs)
    halves = [(nums[0::2], den), (nums[1::2], den)]
    out = [Fraction(0)] * len(nums)
    for k in reversed(range(len(nums))):
        (q, e), (r, s) = fam[k], halves[k % 2]
        top, lead = r.pop(), q[k]
        if top:
            out[k] = Fraction(top * e, s * lead)
            g = gcd(top, lead)
            a, b = lead // g, top // g
            halves[k % 2] = ([x * a - b * c for x, c in zip(r, q[k % 2::2])], s * a)
    return GegenbauerCoeffs(n, tuple(out))


def to_jacobi_basis(coeffs: GegenbauerCoeffs) -> GegenbauerCoeffs:
    """An expansion from :func:`to_gegenbauer_basis`, rescaled to the classical Jacobi-style normalization.

    The classical kissing-number tables expand against P_k^{(a,a)} with a =
    (n-3)/2, whose value at 1 is binom(k + a, k) = prod_{i<=k} (2i+n-3)/(2i);
    dividing the G_k(1) = 1 coefficients by it recovers the tabulated ones.
    One running product gives every k's value.
    """
    n, value, out = coeffs.dim, Fraction(1), []
    for k, c in enumerate(coeffs.coeffs):
        if k:
            value *= Fraction(2 * k + n - 3, 2 * k)
        out.append(c / value)
    return GegenbauerCoeffs(n, tuple(out))


def expand_gegenbauer(n: int, coeffs: Sequence[Rational]) -> Poly:
    """Inverse of :func:`to_gegenbauer_basis`; trailing zeros extend no table."""
    n = integer(n, 2, "dimension")
    terms = [(k, c) for k, c in enumerate(map(rat, coeffs)) if c]
    kmax = terms[-1][0] if terms else 0
    fam = _table(n, kmax)
    den = lcm(*(c.denominator * fam[k][1] for k, c in terms))
    out = [0] * (kmax + 1)
    for k, c in terms:
        q, e = fam[k]
        m = c.numerator * (den // (c.denominator * e))
        out[k % 2:k + 1:2] = [x + m * y for x, y in zip(out[k % 2::2], q[k % 2::2])]
    return Poly([Fraction(x, den) for x in out])


@lru_cache(maxsize=None, typed=True)  # typed: j = 2.0 is refused even once j = 2 is cached
def normalized_moment(n: int, j: int) -> Fraction:
    """j-th moment of (1-t^2)^{(n-3)/2} dt on [-1,1], normalized to m_0 = 1.

    Odd moments vanish by symmetry; the even ones are the closed product
    m_{2k} = prod_{i<=k} (2i-1)/(2i+n-2), so the ratio of Beta functions
    never has to be evaluated transcendentally.
    """
    n, j = integer(n, 2, "dimension"), integer(j, 0, "moment order")
    if j % 2 == 1:
        return Fraction(0)
    return Fraction(prod(range(1, j, 2)), prod(range(n, j + n - 1, 2)))
