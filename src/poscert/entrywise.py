"""The entrywise calculus: f[A] = (f(a_ij)) and what it does to positivity.

Floating-point companion to the exact modules: psd checking by full
symmetric eigendecomposition, Schur products, entrywise polynomial /
power / hard-threshold maps, structured Hankel and Toeplitz moment
matrices, randomized witnesses against fractional-power preservation,
Vasudeva's 2x2 predicates, and the Euclidean / spherical metric
embeddings driven by psd-ness of the (modified) Cayley--Menger matrix
and of the entrywise cosine.

Every operation is pure; randomized searches take an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

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
    def from_rows(rows, tol: float = _SYM_TOL) -> "SymMatrix":
        a = np.asarray(rows, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
        if float(np.abs(a - a.T).max()) > tol * scale:
            raise ValueError(f"asymmetry exceeds {tol}")
        return SymMatrix(a.shape[0], a)


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
    is_psd <=> no eigenvalue below -tol.
    """
    m = a.entries if isinstance(a, SymMatrix) else np.asarray(a, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if tol is not None and not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    vals = np.linalg.eigvalsh(m)
    if tol is None:
        scale = float(np.abs(vals).max()) if vals.size else 0.0
        tol = 1e-10 * scale
    n_minus = int((vals < -tol).sum())
    n_plus = int((vals > tol).sum())
    n_zero = len(vals) - n_minus - n_plus
    return PsdReport(
        is_psd=n_minus == 0,
        min_eigenvalue=float(vals.min()) if vals.size else 0.0,
        rank=n_plus,
        inertia=(n_minus, n_zero, n_plus),
        tol=float(tol),
    )


def schur_product(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Entrywise (Schur) product; preserves psd-ness."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return SymMatrix(a.n, a.entries * b.entries)


def entrywise_poly(a: SymMatrix, coeffs: Sequence[float]) -> SymMatrix:
    vals = np.polynomial.polynomial.polyval(a.entries, np.asarray(coeffs, dtype=float))
    return SymMatrix(a.n, vals)


def entrywise_power(a: SymMatrix, alpha: float) -> SymMatrix:
    """Entrywise a_ij^alpha; fractional alpha demands positive entries."""
    if alpha != int(alpha) or alpha < 0:
        if (a.entries <= 0).any():
            raise ValueError("fractional power needs strictly positive entries")
    return SymMatrix(a.n, np.power(a.entries, alpha))


def entrywise_threshold(a: SymMatrix, level: float) -> SymMatrix:
    """Hard-threshold: zero out entries with |a_ij| < level."""
    if level < 0:
        raise ValueError("threshold level must be >= 0")
    out = np.where(np.abs(a.entries) < level, 0.0, a.entries)
    return SymMatrix(a.n, out)


def apply_entrywise(spec: tuple, a: SymMatrix) -> SymMatrix:
    """Dispatch an entrywise map given as ("poly", coeffs) / ("power", alpha)
    / ("threshold", level)."""
    kind, param = spec
    if kind == "poly":
        return entrywise_poly(a, param)
    if kind == "power":
        return entrywise_power(a, float(param))
    if kind == "threshold":
        return entrywise_threshold(a, float(param))
    raise ValueError(f"unknown entrywise map kind: {kind!r}")


@dataclass(frozen=True)
class PowerWitness:
    """A Jain matrix (1 + x_i x_j) whose entrywise alpha-power is not psd."""

    x: tuple[float, ...]
    matrix: SymMatrix
    powered_min_eigenvalue: float


def power_preserver_witness(
    n: int,
    alpha: float,
    seed: int = 0,
    trials: int = 200,
) -> Optional[PowerWitness]:
    """Search Jain matrices for a counterexample to x^alpha preserving psd.

    For non-integer alpha < n-2 every matrix (1 + x_i x_j) with distinct
    positive x_i fails to stay psd under the entrywise alpha-power; the
    search samples x over several scales. For alpha in Z>=0 or
    alpha >= n-2 the power genuinely preserves psd-ness and the search
    comes back empty. A witness is only reported when its negative
    eigenvalue lies below 100 n eps times the largest eigenvalue, a
    margin over the rounding error of ``eigvalsh``. Where the true
    negative eigenvalue is below double precision (for example n = 12,
    alpha = 9.5) the search finds nothing although a witness exists.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not math.isfinite(alpha):
        raise ValueError(f"power must be finite, got {alpha}")
    gate = 100 * n * np.finfo(float).eps
    rng = np.random.default_rng(seed)
    scales = (1.0, 0.25, 0.05, 4.0, 0.01)
    for trial in range(trials):
        scale = scales[trial % len(scales)]
        x = np.sort(rng.uniform(0.2, 1.8, size=n)) * scale
        if np.min(np.diff(x)) <= 1e-9 * scale:
            continue
        a = 1.0 + np.outer(x, x)
        powered = np.power(a, alpha)
        vals = np.linalg.eigvalsh(powered)
        if vals[0] < -gate * vals[-1]:
            return PowerWitness(tuple(x), SymMatrix(n, a), float(vals[0]))
    return None


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many positive point masses."""

    atoms: tuple[tuple[float, float], ...]  # (location, mass)

    def __post_init__(self):
        locs = [a[0] for a in self.atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")
        if any(mass <= 0 for _, mass in self.atoms):
            raise ValueError("atom masses must be positive")

    def to_json_dict(self) -> dict:
        return {"atoms": [[loc, mass] for loc, mass in self.atoms]}

    @staticmethod
    def from_json_dict(d: dict) -> "AtomicMeasure":
        return AtomicMeasure(tuple((float(l), float(m)) for l, m in d["atoms"]))


def moment_matrix(kind: str, measure: AtomicMeasure, size: int) -> SymMatrix:
    """Hankel (s_{i+j}) or Toeplitz (c_{i-j}) moment matrix of a measure.

    hankel: H_ij = sum_a mass_a loc_a^{i+j}, the moment matrix of a
    measure on the line; psd of rank = number of atoms (generically).
    toeplitz: T_ij = sum_a mass_a cos((i-j) loc_a), atom locations read
    as angles in [0, pi]; the real symmetric Fourier--Stieltjes matrix.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if not measure.atoms:
        raise ValueError("measure must have at least one atom")
    idx = np.arange(size)
    out = np.zeros((size, size))
    if kind == "hankel":
        for loc, mass in measure.atoms:
            out += mass * np.power(loc, idx[:, None] + idx[None, :])
    elif kind == "toeplitz":
        for loc, mass in measure.atoms:
            out += mass * np.cos((idx[:, None] - idx[None, :]) * loc)
    else:
        raise ValueError(f"unknown moment matrix kind: {kind!r}")
    return SymMatrix(size, out)


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


def _pinned_coordinates(gram: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    # Reproducible coordinates: eigenvalues descending, each eigenvector's
    # first nonzero component made positive.
    vals, vecs = np.linalg.eigh(gram)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    r = int((vals > tol).sum())
    vals, vecs = vals[:r], vecs[:, :r]
    for j in range(r):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > _EIG_SIGN_TOL)[0]
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    return vecs * np.sqrt(vals)[None, :], r


def modified_cayley_menger(d: DistanceMatrix) -> SymMatrix:
    """CM'_ij = d_i0^2 + d_j0^2 - d_ij^2 for i, j = 1..n; psd iff the
    metric embeds in Euclidean space, with rank = embedding dimension."""
    sq = d.dists**2
    base = sq[0, 1:]
    cm = base[:, None] + base[None, :] - sq[1:, 1:]
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
    coords, r = _pinned_coordinates(cm.entries / 2.0, report.tol / 2.0)
    points = np.vstack([np.zeros((1, r)), coords])
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
    coords, r = _pinned_coordinates(g.entries, report.tol)
    norms = np.linalg.norm(coords, axis=1)
    coords = coords / np.where(norms > 0, norms, 1.0)[:, None]
    return EmbeddingResult(True, coords, r, None)


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
    for i in range(len(xs)):
        for j in range(i, len(xs)):
            g = math.sqrt(xs[i]) * math.sqrt(xs[j])  # the product may overflow
            for k, xk in enumerate(xs):
                if abs(xk - g) <= 1e-12 * max(1.0, g):
                    # exact on the floats' values: their squares may overflow
                    lhs, rhs = Fraction(fs[k]) ** 2, Fraction(fs[i]) * Fraction(fs[j])
                    if lhs > rhs + Fraction(1e-12) * max(1, abs(rhs)):
                        midconv = False
                        violation = violation or ("mult_midconvex", xs[i], xs[j], xk)
                    break
    return VasudevaReport(nonneg, nondec, midconv, violation)
