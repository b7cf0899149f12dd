"""Linear-programming upper bounds for spherical codes.

The core inequality: if f = sum_k c_k G_k^{(n)} with all c_k >= 0,
c_0 > 0, and f <= 0 on [-1, cos(psi)], then any set of unit vectors in
R^n with pairwise angles >= psi has at most f(1)/c_0 elements. This
module verifies such certificates with exact rational arithmetic
(:func:`verify_certificate`), finds them with a float simplex LP whose
solution one computed slack on c_0 makes exact (:func:`lp_bound`). The
two published certificates that pin the kissing numbers k(8) = 240 and
k(24) = 196560 ship as named fixtures.

Angles are carried by their cosine, exactly rational in every case of
interest (cos pi/3 = 1/2, cos pi = -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional

import numpy as np

from .gegenbauer import GegenbauerCoeffs, expand_gegenbauer, gegenbauer_roots, gegenbauer_values
from .gegenbauer import to_gegenbauer_basis
# Unused here; stays bound because perfbench/spans.py wraps delsarte.gegenbauer.
from .gegenbauer import gegenbauer  # noqa: F401
from .polycore import Interval, Poly, integer, nonpositivity_witness, rat, rat_str
from .simplex import _TOL as _SIMPLEX_TOL, Tableau, simplex_max


class CertificateRejection(Exception):
    """A candidate bound certificate failed one of the exact checks."""

    def __init__(self, kind: str, message: str, witness=None):
        super().__init__(message)
        self.kind = kind
        self.witness = witness  # for a positivity violation, an interval where f > 0 somewhere


class LpInfeasible(Exception):
    """The grid LP admits no feasible coefficient vector."""


@dataclass(frozen=True)
class BoundCertificate:
    """A fully verified upper-bound certificate for A(n, psi).

    Invariants established at construction time: ``coeffs`` expands
    ``poly`` exactly, all Gegenbauer coefficients are >= 0 with c_0 > 0,
    the polynomial is <= 0 on [-1, cos_angle], and bound = f(1)/c_0.
    """

    dim: int
    cos_angle: Fraction
    poly: Poly
    coeffs: GegenbauerCoeffs
    bound: Fraction

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "cos_angle": rat_str(self.cos_angle),
            "poly": self.poly.to_strings(),
            "gegenbauer_coeffs": [rat_str(c) for c in self.coeffs.coeffs],
            "bound": rat_str(self.bound),
        }


def verify_certificate(n: int, s, f: Poly) -> BoundCertificate:
    """Exactly check the certificate hypotheses and return the bound.

    Raises :class:`CertificateRejection` with a distinct ``kind`` for
    each failure mode: a negative Gegenbauer coefficient (named k),
    nonpositive c_0, or a positivity violation on [-1, s] (with a
    witness subinterval).
    """
    n, s = integer(n, 2, "dimension"), rat(s)
    if not (-1 <= s < 1):
        raise ValueError("cosine threshold must lie in [-1, 1)")
    coeffs = to_gegenbauer_basis(n, f)
    for k, c in enumerate(coeffs.coeffs):
        if c < 0:
            raise CertificateRejection(
                "negative_coefficient", f"negative Gegenbauer coefficient at k={k}: {rat_str(c)}"
            )
    c0 = coeffs.coeffs[0] if coeffs.coeffs else Fraction(0)
    if c0 <= 0:
        raise CertificateRejection("nonpositive_c0", f"c_0 = {rat_str(c0)} is not positive")
    ok, witness = nonpositivity_witness(f, Interval(Fraction(-1), s))
    if not ok:
        a, b = witness
        raise CertificateRejection(
            "positivity_violation",
            f"polynomial is positive somewhere on [{rat_str(a)}, {rat_str(b)}]",
            witness,
        )
    return BoundCertificate(n, s, f, coeffs, f(1) / c0)


@dataclass
class LpBoundResult:
    """Floating LP solution plus the exact certificate extracted from it."""

    float_coeffs: np.ndarray  # c_0..c_d with c_0 = 1
    float_bound: float
    certificate: Optional[BoundCertificate]
    rejection: Optional[str]


_ROOT_SCAN_GRID = 10_000  # from this many grid points on, lp_bound evaluates f near its critical points only


def _critical_points(n: int, c: np.ndarray, hi: float, drop: float) -> np.ndarray:
    """Real parts in [-1, hi] of the roots of f' = sum_{k>=1} c_k k(k+n-2)/(n-1) G_{k-1}^{(n+2)}, for
    f = sum_k c_k G_k^{(n)}: a comrade matrix's eigenvalues, once a tail of f' of at most ``drop`` is cut."""
    k = np.arange(1, len(c))
    roots = gegenbauer_roots(n + 2, c[1:] * (k * (k + n - 2) / (n - 1)), drop)
    return roots[(roots >= -1.0) & (roots <= hi)]


def _root_probes(n: int, x: np.ndarray, s_f: float, grid: int) -> np.ndarray:
    """Grid indices to probe f = 1 + sum_k x_k G_k at: a stencil around each end and critical point of f.

    f is monotone between critical points, so each piece's top grid value is next to one of its ends.
    The stencil, offsets -2..3 and +-2^j for 2^j < grid, absorbs root error and samples a whole bump in
    one round. Less a tail of f' of at most tol/4, f falls by at most tol/4 per unit of t against its
    piece's direction, so a grid point the scan misses has f <= tol + (s + 1) tol/4 if no probe exceeds tol.
    """
    crit = _critical_points(n, np.concatenate(([1.0], x)), s_f, _SIMPLEX_TOL / 4)
    powers = 1 << np.arange(int(grid - 1).bit_length())  # 2^j < grid
    offsets = np.concatenate((np.arange(-2, 4), powers, -powers))
    centers = np.concatenate(([0, grid], np.floor((crit + 1.0) * (grid / (s_f + 1.0))).astype(int)))
    return np.unique(np.clip(centers[:, None] + offsets, 0, grid))


def _peak(n: int, c: np.ndarray, hi: float) -> float:
    """Max of f = sum_k c_k G_k^{(n)} on [-1, hi], in floats: f at -1, hi and the critical points between."""
    ts = np.concatenate(([-1.0, hi], _critical_points(n, c, hi, 0.0)))
    return float((c @ gegenbauer_values(n, len(c) - 1, ts)).max())


def lp_bound(n: int, s, d: int, grid: int = 2000) -> LpBoundResult:
    """Delsarte LP on a uniform grid, then one computed slack on c_0.

    Minimizes f(1) over f = sum_{k<=d} c_k G_k^{(n)} with c_0 = 1 and
    c_k >= 0, subject to f(t_i) <= 0 at grid+1 equally spaced points of
    [-1, s]. One simplex tableau holds a working set of grid points: after
    each solve, every probed point where f exceeds the simplex tolerance
    joins it, and once none is left the optimum is that of the whole grid.
    Below ``_ROOT_SCAN_GRID`` points all are probed, from there on a stencil
    around the ends and critical points of f (:func:`_root_probes`). Between
    grid points the float solution can exceed 0, so c_0 is lowered by the
    peak of f on [-1, s], taken at the critical points of f (:func:`_peak`),
    plus a float margin, before an exact check; a rejected check adds 1, 8,
    64, ... units of 2^-32. The repair only ever weakens the bound. When that
    slack would reach c_0 = 1, no certificate is returned.
    """
    n, s_exact = integer(n, 2, "dimension"), rat(s)
    if not (-1 <= s_exact < 1):
        raise ValueError("cosine threshold must lie in [-1, 1)")
    if (d := integer(d, 0, "degree")) == 0:
        raise LpInfeasible("f = c_0 = 1 is positive, so degree 0 is infeasible")
    grid = integer(grid, d + 2, "grid")

    s_f = float(s_exact)
    if s_f == -1.0:  # every grid point is -1: the grid is its one point
        grid = 0
    whole = grid < _ROOT_SCAN_GRID

    def points(idx):  # the grid points at indices idx, bit for bit; the last one is s
        return np.where(idx == grid, s_f, -1.0 + (s_f + 1.0) * (idx / max(grid, 1)))

    def values(idx):  # G_1..G_d at the grid points of indices idx
        return G[:, idx] if whole else gegenbauer_values(n, d, points(idx))[1:]
    G = gegenbauer_values(n, d, points(np.arange(grid + 1)))[1:] if whole else None

    # Primal: min sum_k x_k  s.t.  sum_k (-G_k(t_i)) x_k >= 1, x >= 0. Solved through its
    # dual, max 1.y s.t. M^T y <= 1, y >= 0, whose tableau has d rows and a column per
    # working grid point; the primal solution sits under the dual slack columns of the
    # objective row. The set grows strictly, and a dual unbounded on it is so on the grid.
    work = np.zeros(grid + 1, dtype=bool)
    new = np.linspace(0, grid, min(grid + 1, 4 * d + 2)).astype(int)  # distinct: steps >= 1
    tableau = Tableau(np.ones(new.size), -values(new), np.ones(d))
    while True:
        work[new] = True
        res = simplex_max(tableau)
        if res.status == "unbounded":
            raise LpInfeasible(
                f"no degree-{d} combination is <= 0 on the whole grid (dual unbounded)"
            )
        x = np.maximum(res.reduced_costs[-d:], 0.0)
        idx = np.arange(grid + 1) if whole else _root_probes(n, x, s_f, grid)
        cols = G if whole else values(idx)
        f = 1.0 + x @ cols
        keep = (f > _SIMPLEX_TOL) & ~work[idx]
        if not keep.any():
            break
        new = idx[keep]
        tableau.add_columns(np.ones(new.size), -cols[:, keep])
    float_bound = 1.0 + res.objective
    float_coeffs = np.concatenate(([1.0], x))

    # c_1..c_d rounded once to 2^-32 (exact floats); the slack is the peak of that f on [-1, s]
    # plus 1e-12 sum(c) of float error, and 0 when f peaks at or below 0 (the exact optima)
    rounded = np.round(float_coeffs * 2**32) / 2**32
    peak = _peak(n, rounded, s_f)
    unit = step = Fraction(1, 2**32)
    slack = 0 if peak <= 0 else ceil((peak + 1e-12 * float(rounded.sum())) * 2**32) * unit
    poly = expand_gegenbauer(n, [0] + [Fraction(c) for c in rounded[1:]])
    while slack < 1:
        try:
            certificate = verify_certificate(n, s_exact, poly + Poly.constant(1 - slack))
            return LpBoundResult(float_coeffs, float_bound, certificate, None)
        except CertificateRejection:
            slack, step = slack + step, step * 8
    rejection = f"f exceeds 0 between grid points by {peak:.6g}, so c_0 = 1 cannot absorb it"
    return LpBoundResult(float_coeffs, float_bound, None, rejection)


_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)
# name: (dim, scale, ((root, multiplicity), ...)) of scale * prod (t - root)^multiplicity
_FIXTURES = {
    "paper-8": (8, Fraction(320, 3), ((-1, 1), (-_HALF, 2), (0, 2), (_HALF, 1))),
    "paper-24": (24, Fraction(1490944, 15),
                 ((-1, 1), (-_HALF, 2), (-_QUARTER, 2), (0, 2), (_QUARTER, 2), (_HALF, 1))),
}
KNOWN_CERTIFICATE_NAMES = tuple(_FIXTURES)


def known_certificate(name: str) -> BoundCertificate:
    """The published kissing-number certificates, by fixture name.

    "paper-8": the degree-6 polynomial (320/3)(t+1)(t+1/2)^2 t^2 (t-1/2)
    certifying A(8, pi/3) <= 240, and "paper-24": the degree-10 analogue
    certifying A(24, pi/3) <= 196560 (Levenshtein / Odlyzko--Sloane).
    Both are re-verified exactly on every call.
    """
    if name not in _FIXTURES:
        raise KeyError(f"unknown certificate fixture: {name!r}")
    dim, scale, factors = _FIXTURES[name]
    f = Poly.constant(scale)
    for root, mult in factors:
        f = f * Poly([-root, 1]) ** mult
    return verify_certificate(dim, _HALF, f)
