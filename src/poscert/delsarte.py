"""Linear-programming upper bounds for spherical codes.

The core inequality: if f = sum_k c_k G_k^{(n)} with all c_k >= 0,
c_0 > 0, and f <= 0 on [-1, cos(psi)], then any set of unit vectors in
R^n with pairwise angles >= psi has at most f(1)/c_0 elements. This
module verifies such certificates with exact rational arithmetic
(:func:`verify_certificate`), finds them with a float simplex LP whose
solution one computed slack on c_0 makes exact (:func:`lp_bound`), and
evaluates the classical packing-bound conversion formulas. The two
published certificates that pin the kissing numbers k(8) = 240 and
k(24) = 196560 ship as named fixtures.

Angles are carried by their cosine, exactly rational in every case of
interest (cos pi/3 = 1/2, cos pi = -1).

For reference (documented, not computed here): the Kabatiansky--
Levenshtein asymptotic bound states that for psi below roughly 63
degrees, n^{-1} log2 A(n, psi) <= -(1/2) log2(1 - cos psi) - 0.099 + o(1),
which at psi = pi/3 gives the kissing-number growth bound
2^{n(0.401 + o(1))}. Neither the 0.099 constant nor the validity window
is derivable from the bound statement alone, so no routine evaluates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, pi, sin
from typing import Optional, Sequence

import numpy as np

from .gegenbauer import GegenbauerCoeffs, expand_gegenbauer, gegenbauer_values, to_gegenbauer_basis
# Unused here; stays bound because perfbench/spans.py wraps delsarte.gegenbauer.
from .gegenbauer import gegenbauer  # noqa: F401
from .polycore import Interval, Poly, nonpositivity_witness, parse_rat, rat, rat_str
from .simplex import _TOL as _SIMPLEX_TOL, Tableau, simplex_max

_ANGLE_TOL = 1e-12


class CertificateRejection(Exception):
    """A candidate bound certificate failed one of the exact checks."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


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

    @staticmethod
    def from_json_dict(d: dict) -> "BoundCertificate":
        return verify_certificate(
            int(d["dim"]), parse_rat(d["cos_angle"]), Poly.from_strings(d["poly"])
        )


def verify_certificate(n: int, s, f: Poly) -> BoundCertificate:
    """Exactly check the certificate hypotheses and return the bound.

    Raises :class:`CertificateRejection` with a distinct ``kind`` for
    each failure mode: a negative Gegenbauer coefficient (named k),
    nonpositive c_0, or a positivity violation on [-1, s] (with a
    witness subinterval).
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    s = rat(s)
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
        )
    return BoundCertificate(n, s, f, coeffs, f(1) / c0)


@dataclass(frozen=True)
class SphericalCode:
    """Finite set of unit vectors; min_cosine is the largest pairwise dot."""

    dim: int
    points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must have dimension {self.dim}")
        norms = np.linalg.norm(pts, axis=1)
        if np.abs(norms - 1.0).max() > _ANGLE_TOL:
            raise ValueError("all code points must be unit vectors (tol 1e-12)")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def min_cosine(self) -> float:
        pts = np.asarray(self.points, dtype=float)
        if len(pts) < 2:
            return -1.0
        gram = pts @ pts.T
        return float((gram - 2.0 * np.eye(len(pts))).max())


def code_upper_bound_check(code: SphericalCode, cert: BoundCertificate) -> bool:
    """Soundness trial: a code respecting the certificate angle obeys the bound.

    This is a randomized-test helper, never a proof: it merely compares
    the code size with the certified bound after checking compatibility.
    """
    if code.dim != cert.dim:
        raise ValueError(f"dimension mismatch: code {code.dim}, certificate {cert.dim}")
    if code.min_cosine > float(cert.cos_angle) + _ANGLE_TOL:
        raise ValueError("code does not respect the certificate angle")
    return len(code) <= cert.bound


@dataclass
class LpBoundResult:
    """Floating LP solution plus the exact certificate extracted from it."""

    float_coeffs: np.ndarray  # c_0..c_d with c_0 = 1
    float_bound: float
    certificate: Optional[BoundCertificate]
    rejection: Optional[str]


def lp_bound(n: int, s, d: int, grid: int = 2000) -> LpBoundResult:
    """Delsarte LP on a uniform grid, then one computed slack on c_0.

    Minimizes f(1) over f = sum_{k<=d} c_k G_k^{(n)} with c_0 = 1 and
    c_k >= 0, subject to f(t_i) <= 0 at grid+1 equally spaced points of
    [-1, s]. One simplex tableau holds a working set of grid points: after
    each solve, every point where f exceeds the simplex tolerance joins
    it, and once none is left the optimum is that of the whole grid.
    Between grid points the float solution can exceed 0, so c_0 is
    lowered by the maximum of a float scan of f there before one exact
    check; the repair only ever weakens the bound. When that slack would
    reach c_0 = 1, no certificate is returned.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    s_exact = rat(s)
    if not (-1 <= s_exact < 1):
        raise ValueError("cosine threshold must lie in [-1, 1)")
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d == 0:
        raise LpInfeasible("f = c_0 = 1 is positive, so degree 0 is infeasible")
    if grid < d + 2:
        raise ValueError("grid must be at least d + 2")

    s_f = float(s_exact)
    ts = -1.0 + (s_f + 1.0) * (np.arange(grid + 1) / grid)
    ts[-1] = s_f
    G = gegenbauer_values(n, d, ts)[1:]

    # Primal: min sum_k x_k  s.t.  sum_k (-G_k(t_i)) x_k >= 1, x >= 0.
    # Solved through its dual, max 1.y s.t. M^T y <= 1, y >= 0, whose
    # tableau has d rows and a column per working grid point; the primal
    # solution sits under the dual slack columns of the objective row. The
    # set grows strictly, and a dual unbounded on it is so on the grid.
    work = np.zeros(grid + 1, dtype=bool)
    work[np.linspace(0, grid, min(grid + 1, 4 * d + 2)).astype(int)] = True
    tableau = Tableau(np.ones(int(work.sum())), -G[:, work], np.ones(d))
    while True:
        res = simplex_max(tableau)
        if res.status == "unbounded":
            raise LpInfeasible(
                f"no degree-{d} combination is <= 0 on the whole grid (dual unbounded)"
            )
        x = np.maximum(res.reduced_costs[-d:], 0.0)
        f = 1.0 + x @ G
        violated = (f > _SIMPLEX_TOL) & ~work
        if not violated.any():
            break
        work |= violated
        tableau.add_columns(np.ones(int(violated.sum())), -G[:, violated])
    float_bound = 1.0 + res.objective
    float_coeffs = np.concatenate(([1.0], x))

    # c_1..c_d rounded once to 2^-32 (exact floats), then f scanned within one
    # grid step of each local maximum of the grid values f(t_i).
    rounded = np.round(float_coeffs * 2**32) / 2**32
    up = np.diff(f) > 0
    peaks = ts[np.concatenate(([True], up)) & np.concatenate((~up, [True]))]
    scan = np.clip((peaks[:, None] + np.linspace(-1, 1, 65) * (ts[1] - ts[0])).ravel(), -1.0, s_f)
    peak = float((rounded @ gegenbauer_values(n, d, scan)).max())
    noise = 1e-12 * float(rounded.sum())  # rounding noise at the exact optima
    unit = Fraction(1, 2**32)
    slack = 0 if peak <= noise else ceil((peak + noise) * 2**32) * unit
    poly = expand_gegenbauer(n, [0] + [Fraction(c) for c in rounded[1:]])
    while slack < 1:  # a rejected check adds 1, 8, 64, ... units of 2^-32
        try:
            certificate = verify_certificate(n, s_exact, poly + Poly.constant(1 - slack))
            return LpBoundResult(float_coeffs, float_bound, certificate, None)
        except CertificateRejection:
            slack, unit = slack + unit, unit * 8
    rejection = f"f exceeds 0 between grid points by {peak:.6g}, so c_0 = 1 cannot absorb it"
    return LpBoundResult(float_coeffs, float_bound, None, rejection)


def blichfeldt_density_bound(n: int) -> float:
    """Upper bound (n+2)/2 * 2^{-n/2} on the packing density of R^n."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return (n + 2) / 2 * 2 ** (-n / 2)


def hermite_gamma_upper(n: int) -> float:
    """Hermite's bound gamma_n <= (4/3)^{(n-1)/2}."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return (4 / 3) ** ((n - 1) / 2)


def cohn_zhao_density_bound(n: int, theta: float, code_bound: float) -> float:
    """Cohn--Zhao conversion: density <= sin(theta/2)^n * A(n, theta).

    The caller supplies the spherical-code bound A; theta must lie in
    [pi/3, pi] for the conversion to be valid.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if not (pi / 3 - _ANGLE_TOL <= theta <= pi + _ANGLE_TOL):
        raise ValueError("theta must lie in [pi/3, pi]")
    return sin(theta / 2) ** n * code_bound


def classical_upper_bounds(
    n: int, theta: Optional[float] = None, code_bound: Optional[float] = None
) -> dict:
    """Report of the classical closed-form upper bounds for dimension n."""
    out = {
        "blichfeldt_density": blichfeldt_density_bound(n),
        "hermite_gamma_upper": hermite_gamma_upper(n),
    }
    if theta is not None:
        if code_bound is None:
            raise ValueError("cohn_zhao point needs both theta and code_bound")
        out["cohn_zhao"] = cohn_zhao_density_bound(n, theta, code_bound)
    return out


def _product_certificate(scale: Fraction, factors: Sequence[tuple[Fraction, int]]) -> Poly:
    # Factors are (root, multiplicity) of the monic product (t - root)^mult.
    f = Poly.constant(scale)
    for root, mult in factors:
        f = f * Poly([-root, 1]) ** mult
    return f


@lru_cache(maxsize=None)
def known_certificate(name: str) -> BoundCertificate:
    """The published kissing-number certificates, by fixture name.

    "paper-8": the degree-6 polynomial (320/3)(t+1)(t+1/2)^2 t^2 (t-1/2)
    certifying A(8, pi/3) <= 240, and "paper-24": the degree-10 analogue
    certifying A(24, pi/3) <= 196560 (Levenshtein / Odlyzko--Sloane).
    Both are re-verified exactly on every fresh construction.
    """
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    if name == "paper-8":
        f = _product_certificate(
            Fraction(320, 3), [(-1, 1), (-half, 2), (0, 2), (half, 1)]
        )
        return verify_certificate(8, half, f)
    if name == "paper-24":
        f = _product_certificate(
            Fraction(1490944, 15),
            [(-1, 1), (-half, 2), (-quarter, 2), (0, 2), (quarter, 2), (half, 1)],
        )
        return verify_certificate(24, half, f)
    raise KeyError(f"unknown certificate fixture: {name!r}")


KNOWN_CERTIFICATE_NAMES = ("paper-8", "paper-24")
