"""Gegenbauer polynomials G_k^{(n)}, exactly, normalized so G_k(1) = 1.

The family interpolates the classical orthogonal systems on [-1, 1] with
weight (1 - t^2)^{(n-3)/2}: Chebyshev (first kind) at n = 2, Legendre at
n = 3, Chebyshev (second kind) at n = 4. The three-term recurrence, run
over Python ints into one integer row and denominator per degree, and the
generating-function expansion check each other; the exact basis changes
use the integer rows. Also: normalized weight moments, the spherical
harmonics' dimension count, and the one float evaluation (:func:`gegenbauer_values`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from typing import Sequence

import numpy as np

from .polycore import Poly, Rational, clear_denominators, rat

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class GegenbauerCoeffs:
    """Coefficients c_k of an expansion sum_k c_k G_k^{(n)}."""

    dim: int
    coeffs: tuple[Fraction, ...]


def _check_dim(n: int) -> None:
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")


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
    _check_dim(n)
    if k < 0:
        raise ValueError("k must be >= 0")
    q, e = _table(n, k)[k]
    return Poly([Fraction(c, e) for c in q])


def gegenbauer_values(n: int, kmax: int, ts) -> np.ndarray:
    """Float values of G_0..G_kmax^{(n)} at ts; row k holds G_k(ts).

    The three-term recurrence of :func:`_table`, run in floats, is stable
    on [-1, 1]; monomial coefficients in floats cancel catastrophically
    there from degree ~40 on.
    """
    _check_dim(n)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    ts = np.asarray(ts, dtype=float)
    out = np.empty((kmax + 1,) + ts.shape)
    out[0], out[1:2] = 1.0, ts
    for k in range(2, kmax + 1):
        out[k] = ((2 * k + n - 4) * ts * out[k - 1] - (k - 1) * out[k - 2]) / (k + n - 3)
    return out


def _binom_rational(alpha: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for i in range(m):
        out *= alpha - i
        out /= i + 1
    return out


def gegenbauer_via_generating_series(n: int, kmax: int) -> list[Poly]:
    """Unnormalized C_k^{(n)} from the generating function, term by term.

    For n >= 3 this expands (1 - 2rt + r^2)^{(2-n)/2} as a binomial series
    with rational exponent; the coefficient of r^k collects contributions
    from (r^2 - 2rt)^m for ceil(k/2) <= m <= k. For n = 2 the rational
    generating function (1 - rt)/(1 - 2rt + r^2) is expanded instead, and
    its coefficients are already the normalized G_k^{(2)}.
    """
    _check_dim(n)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if n == 2:
        # S_k = coefficient of r^k in 1/(1 - 2rt + r^2); then G_k = S_k - t S_{k-1}.
        def s_poly(k: int) -> Poly:
            coeffs = [Fraction(0)] * (k + 1)
            for m in range((k + 1) // 2, k + 1):
                j = k - m
                deg = 2 * m - k
                coeffs[deg] += comb(m, j) * Fraction(-1) ** j * Fraction(2) ** deg
            return Poly(coeffs)

        out = [Poly.constant(1)]
        t = Poly.identity()
        prev = out[0]
        for k in range(1, kmax + 1):
            cur = s_poly(k)
            out.append(cur - t * prev)
            prev = cur
        return out

    alpha = Fraction(2 - n, 2)
    out = []
    for k in range(kmax + 1):
        coeffs = [Fraction(0)] * (k + 1)
        for m in range((k + 1) // 2, k + 1):
            j = k - m
            deg = 2 * m - k
            coeffs[deg] += _binom_rational(alpha, m) * comb(m, j) * Fraction(-2) ** deg
        out.append(Poly(coeffs))
    return out


def to_gegenbauer_basis(n: int, p: Poly) -> GegenbauerCoeffs:
    """Exact coefficients c with p = sum_k c_k G_k^{(n)}.

    Back-substitution on the degree-triangular change of basis: G_k has
    degree exactly k and the parity of k, so the top coefficient of the
    remainder pins c_k and the tail is peeled off degree by degree. The even
    and odd halves are kept apart, each as integers over one denominator.
    """
    _check_dim(n)
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
            r = [x * a - b * c for x, c in zip(r, q[k % 2::2])]
            g = gcd(s * a, *r)
            halves[k % 2] = ([x // g for x in r], s * a // g)
    return GegenbauerCoeffs(n, tuple(out))


def jacobi_normalization_factor(n: int, k: int) -> Fraction:
    """Value at t = 1 of the Jacobi-normalized degree-k Gegenbauer polynomial.

    The classical kissing-number tables expand against P_k^{(a,a)} with a =
    (n-3)/2, whose value at 1 is binom(k + a, k) = prod_{i<=k} (2i+n-3)/(2i);
    dividing the G_k(1) = 1 coefficients by it recovers the tabulated ones.
    """
    _check_dim(n)
    return Fraction(prod(range(n - 1, 2 * k + n - 2, 2)), 2 ** k * factorial(k))


def to_jacobi_basis(coeffs: GegenbauerCoeffs) -> GegenbauerCoeffs:
    """An expansion from :func:`to_gegenbauer_basis`, rescaled to the classical Jacobi-style normalization."""
    n = coeffs.dim
    return GegenbauerCoeffs(n, tuple(c / jacobi_normalization_factor(n, k) for k, c in enumerate(coeffs.coeffs)))


def expand_gegenbauer(n: int, coeffs: Sequence[Rational]) -> Poly:
    """Inverse of :func:`to_gegenbauer_basis`; trailing zeros extend no table."""
    _check_dim(n)
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


def dim_spherical_harmonics(n: int, k: int) -> int:
    """N(n,k) = C(k+n-2, k) + C(k+n-3, k-1), with the k=0 second term 0."""
    _check_dim(n)
    if k < 0:
        raise ValueError("k must be >= 0")
    second = comb(k + n - 3, k - 1) if k >= 1 else 0
    return comb(k + n - 2, k) + second


@lru_cache(maxsize=None)
def normalized_moment(n: int, j: int) -> Fraction:
    """j-th moment of (1-t^2)^{(n-3)/2} dt on [-1,1], normalized to m_0 = 1.

    Odd moments vanish by symmetry; the even ones obey the two-term
    rational recurrence m_{2k} = m_{2k-2} (2k-1)/(2k+n-2), so the ratio of
    Beta functions never has to be evaluated transcendentally.
    """
    _check_dim(n)
    if j < 0:
        raise ValueError("moment order must be >= 0")
    if j % 2 == 1:
        return Fraction(0)
    if j == 0:
        return Fraction(1)
    k = j // 2
    return normalized_moment(n, j - 2) * Fraction(2 * k - 1, 2 * k + n - 2)


def inner_product_normalized(n: int, p: Poly, q: Poly) -> Fraction:
    """<p, q> under the normalized orthogonality weight, exact."""
    _check_dim(n)
    out = Fraction(0)
    for i, a in enumerate(p.coeffs):
        if not a:
            continue
        for j, b in enumerate(q.coeffs):
            if b:
                out += a * b * normalized_moment(n, i + j)
    return out


def gegenbauer_gram_check(n: int, k: int, points: Sequence[Sequence[float]]) -> float:
    """Minimum eigenvalue of (G_k^{(n)}(<xi_i, xi_j>))_{ij} for unit points.

    Floating-point companion to the exact machinery: the entrywise G_k
    image of a Gram matrix of unit vectors is positive semidefinite, so
    callers assert the returned value >= -tol.
    """
    _check_dim(n)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"points must be an (N, {n}) array")
    norms = np.linalg.norm(pts, axis=1)
    bad = np.abs(norms - 1.0) > _UNIT_NORM_TOL
    if bad.any():
        raise ValueError(f"point {int(np.argmax(bad))} is not on the unit sphere")
    vals = gegenbauer_values(n, k, pts @ pts.T)[k]
    return float(np.linalg.eigvalsh(vals).min())
