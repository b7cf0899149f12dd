"""Independent oracles the tests compare poscert's fast paths against.

The Gegenbauer polynomials from their generating function (against the
integer three-term recurrence), exact inner products under the weight
moments (orthogonality), the psd-ness of entrywise G_k images of unit
Gram matrices, the spherical-harmonic dimension count, and the closed
form of the Jacobi normalization (against ``to_jacobi_basis``'s running
product), and the series determinant det f[t u v^T] by Berkowitz's
division-free algorithm on the whole matrix (against ``det_series_direct``'s
fraction-free elimination on the reduced one). Two exact oracles run on
plain ``Fraction`` lists, with no integer rows and no content removal:
back-substitution into the Gegenbauer basis (against
``to_gegenbauer_basis``) and the signed remainder sequence divided by the
gcd (against ``sturm_chain``). None of it is on a command's path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial, prod
from operator import mul
from typing import Sequence

import numpy as np

from poscert.gegenbauer import gegenbauer_values, normalized_moment
from poscert.polycore import Poly, RationalLike, integer
from poscert.schurdet import TruncatedSeries, _cleared

_UNIT_NORM_TOL = 1e-12


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
    integer(n, 2, "dimension")
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
        t = Poly([0, 1])
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


def _divmod_fractions(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b (b[-1] != 0), coefficients constant term first."""
    r, q = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = r[k + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            r[k + j] -= q[k] * c
    r = r[:len(b) - 1]
    while r and r[-1] == 0:
        r.pop()
    return q, r


@lru_cache(maxsize=None)
def _gegenbauer_fractions(n: int, kmax: int) -> tuple[tuple[Fraction, ...], ...]:
    """G_0..G_kmax^{(n)} from the three-term recurrence run on ``Fraction`` lists."""
    fam = [(Fraction(1),), (Fraction(0), Fraction(1))][:kmax + 1]
    for k in range(2, kmax + 1):
        up = [Fraction(0)] + [(2 * k + n - 4) * c for c in fam[k - 1]]
        for i, c in enumerate(fam[k - 2]):
            up[i] -= (k - 1) * c
        fam.append(tuple(c / (k + n - 3) for c in up))
    return tuple(fam)


def gegenbauer_coeffs_by_fractions(n: int, p: Poly) -> list[Fraction]:
    """c with p = sum_k c_k G_k^{(n)}, by back-substitution over ``Fraction``.

    c_k is the top coefficient of the remainder over that of G_k, for k =
    deg p down to 0. The zero polynomial gives [].
    """
    integer(n, 2, "dimension")
    d = len(p.coeffs) - 1
    fam = _gegenbauer_fractions(n, d)
    r, out = list(p.coeffs), [Fraction(0)] * (d + 1)
    for k in reversed(range(d + 1)):
        out[k] = r[k] / fam[k][k]
        for i, c in enumerate(fam[k]):
            r[i] -= out[k] * c
    return out


def sturm_sequence_by_fractions(p: Poly) -> list[list[Fraction]]:
    """p, p', -rem(p, p'), ... over ``Fraction``, divided by the last member g when g is not constant.

    g is made monic first, so every member keeps its sign: the result is a
    Sturm chain of p / gcd(p, p'). p must not be zero.
    """
    chain = [list(p.coeffs)]
    nxt = [i * c for i, c in enumerate(chain[0])][1:]
    while nxt:
        chain.append(nxt)
        nxt = [-c for c in _divmod_fractions(chain[-2], nxt)[1]]
    g = chain[-1]
    if len(g) > 1:
        g = [c / g[-1] for c in g]
        divided = [_divmod_fractions(q, g) for q in chain]
        assert not any(r for _, r in divided), "g divides every member"
        chain = [q for q, _ in divided]
    return chain


def jacobi_normalization_factor(n: int, k: int) -> Fraction:
    """Value at t = 1 of the Jacobi-normalized degree-k Gegenbauer polynomial.

    The classical kissing-number tables expand against P_k^{(a,a)} with a =
    (n-3)/2, whose value at 1 is binom(k + a, k) = prod_{i<=k} (2i+n-3)/(2i);
    dividing the G_k(1) = 1 coefficients by it recovers the tabulated ones.
    """
    integer(n, 2, "dimension")
    return Fraction(prod(range(n - 1, 2 * k + n - 2, 2)), 2 ** k * factorial(k))


def dim_spherical_harmonics(n: int, k: int) -> int:
    """N(n,k) = C(k+n-2, k) + C(k+n-3, k-1), with the k=0 second term 0."""
    integer(n, 2, "dimension")
    if k < 0:
        raise ValueError("k must be >= 0")
    second = comb(k + n - 3, k - 1) if k >= 1 else 0
    return comb(k + n - 2, k) + second


def inner_product_normalized(n: int, p: Poly, q: Poly) -> Fraction:
    """<p, q> under the normalized orthogonality weight, exact."""
    integer(n, 2, "dimension")
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
    integer(n, 2, "dimension")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"points must be an (N, {n}) array")
    norms = np.linalg.norm(pts, axis=1)
    bad = np.abs(norms - 1.0) > _UNIT_NORM_TOL
    if bad.any():
        raise ValueError(f"point {int(np.argmax(bad))} is not on the unit sphere")
    vals = gegenbauer_values(n, k, pts @ pts.T)[k]
    return float(np.linalg.eigvalsh(vals).min())


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


def det_series_full_berkowitz(
    f_coeffs: Sequence[RationalLike],
    u: Sequence[RationalLike],
    v: Sequence[RationalLike],
    cutoff: int,
) -> TruncatedSeries:
    """det f[t u v^T] by Berkowitz on the unreduced N x N matrix of series.

    Every entry g_m (a_i b_j)^m keeps all cutoff + 1 coefficients, so neither
    the factor prod_{k<i} (a_i - a_k) nor the shift by t^{C(N,2)} that
    ``det_series_direct`` takes out is assumed here.
    """
    g, a, b, divisors = _cleared(f_coeffs, u, v, cutoff)
    det = _det_berkowitz([[[gm * (ai * bj) ** m for m, gm in enumerate(g)] for bj in b] for ai in a], cutoff)
    return TruncatedSeries.make(cutoff, list(map(Fraction, det, divisors)))
