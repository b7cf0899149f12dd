"""The entrywise calculus: f[A] = (f(a_ij)) and what it does to positivity.

Floating-point companion to the exact modules: psd checking by full
symmetric eigendecomposition, Vasudeva's 2x2 predicates, and the
Euclidean / spherical metric embeddings driven by psd-ness of the
(modified) Cayley--Menger matrix and of the entrywise cosine. Witnesses
against fractional-power preservation are exact.

Every operation is pure and deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Optional, Sequence, Union

import numpy as np

from .polycore import RationalLike, bareiss_steps, integer, rat

_SYM_TOL = 1e-12
_EIG_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix; the upper triangle is authoritative."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} matrix")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        # mirror the strict upper triangle: doubling the diagonal could overflow
        object.__setattr__(self, "entries", np.triu(a) + np.triu(a, 1).T)
        self.entries.setflags(write=False)

    @staticmethod
    def from_rows(rows) -> "SymMatrix":
        a = np.asarray(rows, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        sym = SymMatrix(a.shape[0], a)  # rejects infinite entries before a - a.T meets inf - inf
        scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
        if float(np.abs(a - a.T).max()) > _SYM_TOL * scale:
            raise ValueError(f"asymmetry exceeds {_SYM_TOL}")
        return sym


@dataclass(frozen=True)
class PsdReport:
    is_psd: bool
    min_eigenvalue: float
    rank: int
    inertia: tuple[int, int, int]  # (negative, zero, positive) under tol
    tol: float


def psd_check(a: Union[SymMatrix, np.ndarray], tol: Optional[float] = None) -> PsdReport:
    """Full eigendecomposition psd test with a declared tolerance.

    The default tolerance is relative: 1e-10 times the largest absolute
    eigenvalue. ``rank`` counts eigenvalues above tol, and
    is_psd <=> no eigenvalue below -tol. The signs are decided on a copy
    scaled by 2^-e (see :func:`_scaled`), where no eigenvalue overflows;
    a minimum eigenvalue or tolerance beyond the float range once scaled
    back raises ValueError. An array is read as a :class:`SymMatrix`, by its upper triangle.
    """
    m = (a if isinstance(a, SymMatrix) else SymMatrix(len(a), a)).entries
    if tol is not None and not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    m, e = _scaled(m)
    vals = np.linalg.eigvalsh(m)
    with np.errstate(over="ignore"):  # a tolerance past the float range once scaled covers every eigenvalue
        tol_e = 1e-10 * float(np.abs(vals).max(initial=0.0)) if tol is None else float(np.ldexp(tol, -e))
    n_minus = int((vals < -tol_e).sum())
    n_plus = int((vals > tol_e).sum())
    n_zero = len(vals) - n_minus - n_plus
    try:
        min_eigenvalue = math.ldexp(float(vals.min()), e) if vals.size else 0.0
        tol = math.ldexp(tol_e, e) if tol is None else float(tol)
    except OverflowError:
        raise ValueError(f"the smallest eigenvalue, {float(vals.min())} x 2^{e}, or its tolerance "
                         "is beyond the float range") from None
    return PsdReport(
        is_psd=n_minus == 0,
        min_eigenvalue=min_eigenvalue,
        rank=n_plus,
        inertia=(n_minus, n_zero, n_plus),
        tol=tol,
    )


def _scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(m 2^-e, e) for the even e that puts max |m_ij| in [1/4, 1).

    Exact but for entries that become subnormal, 2^1022 times smaller than
    the largest; an n x n symmetric copy has no eigenvalue beyond n, so none
    overflows, and e even makes sqrt of an eigenvalue scale by 2^(e/2).
    """
    e = int(np.frexp(np.abs(m).max(initial=0.0))[1])
    e += e % 2
    return np.ldexp(m, -e), e


MAX_WITNESS_BLOCK = 40  # rows; README ("CLI") has the timings behind this limit


def _iroot(a: int, q: int) -> int:
    """floor(a^(1/q)) for an int a >= 0: Newton from just above the root of a's leading half."""
    s = a.bit_length() // (2 * q)
    r = (_iroot(a >> q * s, q) + 1) << s if s else 1 << -(-a.bit_length() // q)
    while r and (t := ((q - 1) * r + a // r ** (q - 1)) // q) < r:
        r = t
    return r


@dataclass(frozen=True)
class PowerWitness:
    """Points x and integers w with w^T P w <= upper < 0 for P = ((1 + x_i x_j)^power)."""

    power: Fraction
    x: tuple[Fraction, ...]
    w: tuple[int, ...]  # zero past the leading block that fails
    upper: Fraction


def power_preserver_witness(n: int, alpha: RationalLike) -> Optional[PowerWitness]:
    """Certify that x^alpha does not preserve psd-ness on n x n matrices.

    None means it does: alpha is a nonnegative integer or alpha >= n - 2
    (FitzGerald--Horn). Else P = ((1 + x_i x_j)^alpha) at x_i = 1/5 + 3i/(2(m-1))
    fails on its leading m = max(2, floor(alpha) + 3) rows (Jain; Cauchy--Schwarz
    for alpha < 0). For alpha = p/q, q <= 100, integer q-th roots put 2^B P in
    [L, L + 1) entrywise; w from eliminating L, rounded to B bits, is certified
    by w^T L w + (sum |w_i|)^2 < 0, with B doubled from 64 until that holds.
    alpha is read by :func:`~poscert.polycore.rat`, a float as the decimal it prints as.
    """
    n, alpha = integer(n, 2, "dimension"), rat(alpha)
    p, q = alpha.numerator, alpha.denominator
    if alpha >= n - 2 or (alpha >= 0 and q == 1):  # FitzGerald--Horn
        return None
    if q > 100 or abs(alpha) >= MAX_WITNESS_BLOCK - 2:
        raise ValueError(f"a witness needs |power| < {MAX_WITNESS_BLOCK - 2}, denominator <= 100; got {alpha}")
    m = max(2, math.floor(alpha) + 3)
    x = [Fraction(1, 5) + Fraction(3 * i, 2 * (m - 1)) for i in range(n)]
    y = [[(1 + xi * xj) ** p for xj in x[i:m]] for i, xi in enumerate(x[:m])]  # upper triangle
    for bits in (64, 128, 256, 512, 1024, 2048):
        u = [[_iroot((v.numerator << bits * q) // v.denominator, q) for v in row] for row in y]
        L = [[u[min(i, j)][abs(j - i)] for j in range(m)] for i in range(m)]
        w = [Fraction(1)]
        for _, top in reversed(list(islice(bareiss_steps(L), m - 1))):
            w.insert(0, -sum(map(mul, top[1:], w)) / top[0])
        scale = (1 << bits) / max(map(abs, w))
        w = [round(v * scale) for v in w]
        bound = sum(wi * sum(map(mul, row, w)) for wi, row in zip(w, L)) + sum(map(abs, w)) ** 2
        if bound < 0:
            return PowerWitness(alpha, tuple(x), tuple(w) + (0,) * (n - len(w)), Fraction(bound, 1 << bits))
    raise RuntimeError(f"no witness for power {alpha} at n = {n} within {bits} bits")


class DistanceMatrix:
    """Metric data on points x_0..x_n: symmetric, zero diagonal, positive
    off-diagonal. The triangle inequality is not checked -- embedding
    failure is the interesting signal for non-metric data."""

    def __init__(self, dists):
        d = np.asarray(dists, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        bad = np.argwhere(~np.isfinite(d))
        if bad.size:
            named = ", ".join(f"{d[i, j]} at ({i}, {j})" for i, j in bad[:4])
            raise ValueError(f"distances must be finite, got {named}{', ...' if len(bad) > 4 else ''}")
        if float(np.abs(d - d.T).max(initial=0.0)) > _SYM_TOL * max(1.0, float(np.abs(d).max())):
            raise ValueError("distance matrix must be symmetric")
        if np.abs(np.diag(d)).max(initial=0.0) > 0:
            raise ValueError("diagonal distances must be zero")
        off = d[~np.eye(d.shape[0], dtype=bool)]
        if off.size and off.min() <= 0:
            raise ValueError("off-diagonal distances must be positive")
        self.dists = d
        self.dists.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.dists.shape[0]


@dataclass(frozen=True)
class EmbeddingResult:
    embeddable: bool
    points: Optional[np.ndarray]  # (n_points, dim) when embeddable
    dim: Optional[int]
    witness_eigenvalue: Optional[float]  # most negative eigenvalue on failure


class DiameterError(ValueError):
    """Spherical embedding rejected because some distance exceeds pi."""


def _pinned_coordinates(gram: np.ndarray, r: int) -> np.ndarray:
    # Reproducible coordinates on the r largest eigenvalues, r the rank psd_check
    # reported: eigenvalues descending, each eigenvector's first nonzero
    # component made positive. Computed on the scaled copy, as in psd_check.
    gram, e = _scaled(gram)
    vals, vecs = np.linalg.eigh(gram)
    order = np.argsort(vals)[::-1][:r]
    vals, vecs = vals[order], vecs[:, order]
    for j in range(r):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > _EIG_SIGN_TOL)[0]
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    return vecs * np.ldexp(np.sqrt(vals), e // 2)[None, :]


def modified_cayley_menger(d: DistanceMatrix) -> SymMatrix:
    """CM'_ij = d_i0^2 + d_j0^2 - d_ij^2 for i, j = 1..n; psd iff the
    metric embeds in Euclidean space, with rank = embedding dimension."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf, is rejected below
        sq = d.dists**2
        cm = sq[0, 1:, None] + sq[0, None, 1:] - sq[1:, 1:]
    if not np.isfinite(cm).all():
        raise ValueError("squared distances overflow the float range")
    return SymMatrix(d.n_points - 1, cm)


def euclidean_embed(d: DistanceMatrix) -> EmbeddingResult:
    """Embed a finite metric space in R^r, or report the obstruction.

    CM'/2 is the Gram matrix of x_i - x_0, so a psd check plus an
    eigendecomposition yields explicit coordinates (x_0 at the origin)
    in the minimal dimension r = rank CM'.
    """
    cm = modified_cayley_menger(d)
    report = psd_check(cm)
    if not report.is_psd:
        return EmbeddingResult(False, None, None, report.min_eigenvalue)
    r = report.rank
    points = np.vstack([np.zeros((1, r)), _pinned_coordinates(cm.entries / 2.0, r)])
    return EmbeddingResult(True, points, r, None)


def sphere_embed(d: DistanceMatrix) -> EmbeddingResult:
    """Embed in a unit sphere S^{r-1} under the arc metric, or report why not.

    Distances beyond pi can never fit on a unit sphere and raise
    :class:`DiameterError`; otherwise cos[D] must be psd, in which case it
    is the Gram matrix of the embedded unit vectors.
    """
    if float(d.dists.max(initial=0.0)) > math.pi:
        raise DiameterError("metric diameter exceeds pi")
    g = SymMatrix(d.n_points, np.cos(d.dists))
    report = psd_check(g)
    if not report.is_psd:
        return EmbeddingResult(False, None, None, report.min_eigenvalue)
    coords = _pinned_coordinates(g.entries, report.rank)
    norms = np.linalg.norm(coords, axis=1)
    coords = coords / np.where(norms > 0, norms, 1.0)[:, None]
    return EmbeddingResult(True, coords, report.rank, None)


@dataclass(frozen=True)
class VasudevaReport:
    nonnegative: bool
    nondecreasing: bool
    mult_midconvex: bool
    violation: Optional[tuple] = None


def vasudeva_2x2_check(samples: Sequence[tuple[float, float]]) -> VasudevaReport:
    """Check the three 2x2-preserver predicates on sampled (x, f(x)) data.

    Requires distinct positive x in increasing order. Multiplicative
    midconvexity f(sqrt(xy))^2 <= f(x) f(y) is tested on the pairs whose
    geometric mean is itself a sample point (within 1e-12 relative).
    """
    xs = [float(x) for x, _ in samples]
    fs = [float(v) for _, v in samples]
    for x, v in zip(xs, fs):
        if not (math.isfinite(x) and math.isfinite(v)):
            raise ValueError(f"sample [x, f(x)] = [{x}, {v}] is not finite")
    if any(x <= 0 for x in xs):
        raise ValueError("sample points must be positive")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("sample points must be strictly increasing")

    nonneg, nondec, midconv = True, True, True
    violation = None
    for x, v in zip(xs, fs):
        if v < 0:
            nonneg, violation = False, violation or ("nonnegative", x, v)
            break
    for (x1, v1), (x2, v2) in zip(zip(xs, fs), zip(xs[1:], fs[1:])):
        if v2 < v1:
            nondec = False
            violation = violation or ("nondecreasing", x1, x2)
            break
    fq, eps = [Fraction(v) for v in fs], Fraction(1e-12)  # exact: the squares of fs may overflow
    for i in range(len(xs)):
        for j in range(i, len(xs)):
            g = math.sqrt(xs[i]) * math.sqrt(xs[j])  # the product may overflow
            tol = 1e-12 * max(1.0, g)
            # xk - g rounds monotonically in xk, so the first k with
            # |xk - g| <= tol is the first with xk - g >= -tol, if any
            k = bisect_left(xs, -tol, key=lambda x: x - g)
            if k < len(xs) and xs[k] - g <= tol:
                rhs = fq[i] * fq[j]
                if fq[k] ** 2 > rhs + eps * max(1, abs(rhs)):
                    midconv = False
                    violation = violation or ("mult_midconvex", xs[i], xs[j], xs[k])
    return VasudevaReport(nonneg, nondec, midconv, violation)
