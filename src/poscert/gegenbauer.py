"""Gegenbauer polynomials G_k^{(n)}, exactly, normalized so G_k(1) = 1.

The family interpolates the classical orthogonal systems on [-1, 1] with
weight (1 - t^2)^{(n-3)/2}: Chebyshev (first kind) at n = 2, Legendre at
n = 3, Chebyshev (second kind) at n = 4. Two independent constructions
are provided -- the three-term recurrence and the generating-function
expansion -- so each can check the other, plus exact basis conversion,
normalized weight moments, the spherical-harmonic dimension count, and
the one float evaluation of the family (:func:`gegenbauer_values`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .polycore import Poly, Rational, rat

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class GegenbauerFamily:
    """G_0..G_kmax for one dimension, shareable read-only."""

    dim: int
    polys: tuple[Poly, ...]


@dataclass(frozen=True)
class GegenbauerCoeffs:
    """Coefficients c_k of an expansion sum_k c_k G_k^{(n)}."""

    dim: int
    coeffs: tuple[Fraction, ...]


def _check_dim(n: int) -> None:
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")


# One table per dimension n: G_0..G_k for the highest k requested so far.
# A request past its end replaces the stored tuple by a longer one; no
# tuple is mutated in place, so a reader never sees a partial table.
_TABLES: dict[int, tuple[Poly, ...]] = {}


def _table(n: int, kmax: int) -> tuple[Poly, ...]:
    """G_0..G_m^{(n)} for some m >= kmax, extending the table if needed."""
    polys = _TABLES.get(n, ())
    if len(polys) > kmax:
        return polys
    # G_0 = 1, G_1 = t, then the three-term recurrence
    #   G_k = ((2k+n-4) t G_{k-1} - (k-1) G_{k-2}) / (k+n-3),   k >= 2.
    # The k+n-3 denominator only degenerates at (n, k) = (2, 1), which the
    # explicit base case makes moot; the recurrence starts at k = 2.
    t = Poly.identity()
    out = list(polys) or [Poly.constant(1), t]
    for k in range(len(out), kmax + 1):
        num = (t * out[k - 1]).scale(2 * k + n - 4) - out[k - 2].scale(k - 1)
        out.append(num.scale(Fraction(1, k + n - 3)))
    polys = tuple(out)
    _TABLES[n] = polys
    return polys


def gegenbauer(n: int, k: int) -> Poly:
    """The degree-k polynomial G_k^{(n)} with exact rational coefficients."""
    _check_dim(n)
    if k < 0:
        raise ValueError("k must be >= 0")
    return _table(n, k)[k]


def gegenbauer_family(n: int, kmax: int) -> GegenbauerFamily:
    _check_dim(n)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return GegenbauerFamily(n, _table(n, kmax)[: kmax + 1])


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
    out = [np.ones_like(ts), ts]
    for k in range(2, kmax + 1):
        out.append(((2 * k + n - 4) * ts * out[k - 1] - (k - 1) * out[k - 2]) / (k + n - 3))
    return np.array(out[: kmax + 1])


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
    degree exactly k, so the top monomial coefficient pins c_k and the
    tail is peeled off degree by degree.
    """
    _check_dim(n)
    if p.is_zero:
        return GegenbauerCoeffs(n, ())
    d = p.degree
    fam = _table(n, d)
    out = [Fraction(0)] * (d + 1)
    rem = list(p.coeffs) + [Fraction(0)] * (d + 1 - len(p.coeffs))
    for k in range(d, -1, -1):
        g = fam[k]
        c = rem[k] / g.leading()
        out[k] = c
        if c:
            for i, gc in enumerate(g.coeffs):
                rem[i] -= c * gc
    assert all(r == 0 for r in rem)
    return GegenbauerCoeffs(n, tuple(out))


def jacobi_normalization_factor(n: int, k: int) -> Fraction:
    """Value at t = 1 of the Jacobi-normalized degree-k Gegenbauer polynomial.

    The classical kissing-number tables expand against P_k^{(a,a)} with
    a = (n-3)/2, whose value at 1 is binom(k + a, k); dividing the
    G_k(1) = 1 coefficients by this factor recovers the tabulated ones.
    """
    _check_dim(n)
    return _binom_rational(Fraction(2 * k + n - 3, 2), k)


def to_jacobi_basis(n: int, p: Poly) -> GegenbauerCoeffs:
    """Expansion coefficients in the classical Jacobi-style normalization."""
    base = to_gegenbauer_basis(n, p)
    return GegenbauerCoeffs(
        n,
        tuple(
            c / jacobi_normalization_factor(n, k) for k, c in enumerate(base.coeffs)
        ),
    )


def expand_gegenbauer(n: int, coeffs: Sequence[Rational]) -> Poly:
    """Inverse of :func:`to_gegenbauer_basis`."""
    _check_dim(n)
    cs = [rat(c) for c in coeffs]
    if not cs:
        return Poly()
    fam = _table(n, len(cs) - 1)
    out = Poly()
    for k, c in enumerate(cs):
        if c:
            out = out + fam[k].scale(c)
    return out


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
