"""Named lattices, the binary Golay code, and exact short-vector counts.

Lattices are carried by exact rational Gram matrices (never floating
bases): A1-A3, D4, D5, E6-E8 through their root-system Cartan matrices,
E8 additionally through the integer/half-integer coordinate description,
Z^k, and the Leech lattice built by lifting the extended binary Golay
code through the standard mod-2 / mod-4 congruence conditions. Short
vectors are enumerated depth-first under a quadratic-form bound
(Fincke--Pohst style): the Cholesky-type completion is computed exactly
over the rationals, a float copy with conservative slack drives the
pruning, and every candidate is re-verified with exact integer
arithmetic, so the returned set is exact.

The Golay generator matrix is the standard [I | B] form with B the
complement of the icosahedron adjacency (computed here exactly in
Q(sqrt 5) rather than hard-coded); its correctness is established by the
4096-word, minimum-weight-8 enumeration, not by provenance.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .polycore import det_exact, rat, rat_str

# ---------------------------------------------------------------------------
# exact linear algebra helpers

def _ldl_exact(gram: Sequence[Sequence[Fraction]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Exact quadratic completion Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2.

    Raises if a pivot is nonpositive, which doubles as an exact positive
    definiteness test (equivalent to all leading principal minors > 0).
    """
    n = len(gram)
    q = [[rat(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = q[i][i]
        if d[i] <= 0:
            raise ValueError(f"Gram matrix is not positive definite (pivot {i})")
        for j in range(i + 1, n):
            u[i][j] = q[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                q[j][k] -= q[i][j] * q[i][k] / d[i]
                q[k][j] = q[j][k]
    return d, u


# ---------------------------------------------------------------------------
# lattices

@dataclass(frozen=True)
class Lattice:
    """Rank-n lattice with exact rational Gram matrix.

    ``basis_rows``, when present, are exact coordinates of a basis whose
    Gram matrix is basis_rows . basis_rows^T / basis_scale_sq; the true
    basis vectors are basis_rows / sqrt(basis_scale_sq). This keeps
    half-integer (E8) and 1/sqrt(8)-scaled (Leech) bases exactly
    representable.
    """

    name: str
    rank: int
    gram: tuple[tuple[Fraction, ...], ...]
    basis_rows: Optional[tuple[tuple[Fraction, ...], ...]] = None
    basis_scale_sq: Fraction = Fraction(1)

    def __post_init__(self):
        g = tuple(tuple(rat(x) for x in row) for row in self.gram)
        if len(g) != self.rank or any(len(row) != self.rank for row in g):
            raise ValueError("Gram matrix shape does not match rank")
        if any(g[i][j] != g[j][i] for i in range(self.rank) for j in range(self.rank)):
            raise ValueError("Gram matrix must be symmetric")
        _ldl_exact(g)  # exact positive definiteness
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "basis_scale_sq", rat(self.basis_scale_sq))
        if self.basis_rows is not None:
            rows = tuple(tuple(rat(x) for x in row) for row in self.basis_rows)
            object.__setattr__(self, "basis_rows", rows)
            for i in range(self.rank):
                for j in range(self.rank):
                    ip = sum(a * b for a, b in zip(rows[i], rows[j])) / self.basis_scale_sq
                    if ip != g[i][j]:
                        raise ValueError("basis rows do not reproduce the Gram matrix")

    @property
    def covolume_sq(self) -> Fraction:
        return det_exact(self.gram)

    def embed(self, coords: Sequence[Sequence[int]]) -> np.ndarray:
        """Map basis-coordinate vectors to floating ambient coordinates."""
        if self.basis_rows is None:
            raise ValueError(f"lattice {self.name} carries no explicit basis")
        b = np.array([[float(x) for x in row] for row in self.basis_rows])
        b /= math.sqrt(float(self.basis_scale_sq))
        return np.asarray(coords, dtype=float) @ b

    def gram_json(self) -> list[list[str]]:
        return [[rat_str(x) for x in row] for row in self.gram]


def _cartan_gram(n: int, edges: Sequence[tuple[int, int]]) -> tuple[tuple[Fraction, ...], ...]:
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = Fraction(2)
    for i, j in edges:
        g[i][j] = g[j][i] = Fraction(-1)
    return tuple(tuple(row) for row in g)


def _path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


# Bourbaki diagrams: D_n is a path 0..n-2 with node n-1 hung off node n-3;
# E_n is a path 0,2,3,...,n-1 with node 1 hung off node 3.
_CARTAN_EDGES = {
    "A1": (1, []),
    "A2": (2, _path_edges(2)),
    "A3": (3, _path_edges(3)),
    "D4": (4, [(0, 1), (1, 2), (1, 3)]),
    "D5": (5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
    "E6": (6, [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]),
    "E7": (7, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)]),
    "E8": (8, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]),
}


def e8_coordinate_lattice() -> Lattice:
    """E8 as integer/half-integer coordinates with even coordinate sum.

    Basis: (2, 0^7), the chain (-1, 1, 0...) differences, and the
    all-halves vector; det(Gram) = 1 with even diagonal, matching the
    root-basis construction invariant for invariant.
    """
    half = Fraction(1, 2)
    rows: list[list[Fraction]] = [[Fraction(0)] * 8 for _ in range(8)]
    rows[0][0] = Fraction(2)
    for i in range(1, 7):
        rows[i][i - 1] = Fraction(-1)
        rows[i][i] = Fraction(1)
    rows[7] = [half] * 8
    gram = tuple(
        tuple(sum(a * b for a, b in zip(rows[i], rows[j])) for j in range(8))
        for i in range(8)
    )
    return Lattice("E8-coords", 8, gram, tuple(tuple(r) for r in rows))


# Largest k accepted in Z<k>. Building Z^k checks its basis exactly in
# O(k^3) rational operations: `poscert lattice info` takes 2.6 s on Z64
# and 19 s on Z128 (2-vCPU Xeon VM), and building Z256 alone takes 100 s.
MAX_Z_RANK = 64


def standard_lattice(name: str) -> Lattice:
    """Construct a named lattice: A1-A3, D4, D5, E6-E8, Leech, or Z<k>, k <= MAX_Z_RANK."""
    if name in _CARTAN_EDGES:
        n, edges = _CARTAN_EDGES[name]
        return Lattice(name, n, _cartan_gram(n, edges))
    if name == "Leech":
        return leech_lattice()
    m = re.fullmatch(r"Z(\d+)", name)
    if m:
        k = int(m.group(1))
        if not 1 <= k <= MAX_Z_RANK:
            raise ValueError(f"Z lattice rank must be between 1 and {MAX_Z_RANK}, got {k}")
        eye = tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(k)) for i in range(k)
        )
        return Lattice(name, k, eye, eye)
    raise KeyError(f"unknown lattice name: {name!r}")


# ---------------------------------------------------------------------------
# binary codes

HAMMING_EXAMPLE_CODEWORDS = (
    (1, 1, 0, 1, 0, 0, 0),
    (0, 1, 1, 0, 1, 0, 0),
    (0, 0, 1, 1, 0, 1, 0),
    (0, 0, 0, 1, 1, 0, 1),
)


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of coordinates where the two words differ."""
    if len(a) != len(b):
        raise ValueError("words must have equal length")
    return sum(1 for x, y in zip(a, b) if x != y)


class BinaryCode:
    """Binary linear code spanned by generator rows (words as bitmasks)."""

    def __init__(self, length: int, generator_rows: Sequence[int]):
        self.length = length
        self.generator_rows = tuple(int(r) for r in generator_rows)
        self._words: Optional[tuple[int, ...]] = None

    @property
    def words(self) -> tuple[int, ...]:
        if self._words is None:
            acc = {0}
            for row in self.generator_rows:
                acc |= {w ^ row for w in acc}
            self._words = tuple(sorted(acc))
        return self._words

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: int) -> bool:
        return word in set(self.words)

    def word_tuple(self, word: int) -> tuple[int, ...]:
        return tuple((word >> i) & 1 for i in range(self.length))


def min_weight(code: BinaryCode) -> int:
    """Minimum Hamming weight over all nonzero codewords, by enumeration."""
    return min(w.bit_count() for w in code.words if w)


def _icosahedron_adjacency() -> list[list[int]]:
    # Vertices are the cyclic shifts of (0, +-1, +-phi), handled exactly in
    # Q(sqrt 5) as pairs (a, b) = a + b sqrt 5; adjacency <=> dot = phi.
    def mul(x, y):
        return (x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    phi = (Fraction(1, 2), Fraction(1, 2))
    zero = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))

    def neg(x):
        return (-x[0], -x[1])

    base = [(zero, s1, s2) for s1 in (one, neg(one)) for s2 in (phi, neg(phi))]
    verts = set()
    for v in base:
        verts.update({v, (v[2], v[0], v[1]), (v[1], v[2], v[0])})
    ordered = sorted(verts)

    def dot(u, v):
        out = zero
        for a, b in zip(u, v):
            p = mul(a, b)
            out = (out[0] + p[0], out[1] + p[1])
        return out

    return [
        [1 if (i != j and dot(ordered[i], ordered[j]) == phi) else 0 for j in range(12)]
        for i in range(12)
    ]


@lru_cache(maxsize=1)
def golay_code() -> BinaryCode:
    """The [24, 12, 8] extended binary Golay code, 4096 words."""
    adj = _icosahedron_adjacency()
    rows = []
    for i in range(12):
        word = 1 << i
        for j in range(12):
            bij = 1 if i == j else 1 - adj[i][j]
            if bij:
                word |= 1 << (12 + j)
        rows.append(word)
    return BinaryCode(24, rows)


def _golay_generator_vectors() -> list[list[int]]:
    code = golay_code()
    return [list(code.word_tuple(row)) for row in code.generator_rows]


# ---------------------------------------------------------------------------
# Leech lattice

def _hnf_basis(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite reduction of integer generators to a basis."""
    m = len(rows[0])
    basis = []
    rest = [r[:] for r in rows]
    for col in range(m):
        live = [r for r in rest if r[col] != 0]
        rest = [r for r in rest if r[col] == 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            keep = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                rr = [a - q * b for a, b in zip(r, p)]
                (keep if rr[col] != 0 else rest).append(rr)
            live = keep
        piv = live[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
    return basis


def _pair_reduce(basis: list[list[int]]) -> list[list[int]]:
    """Exact pairwise size reduction (unimodular row operations only).

    Repeatedly replaces b_i by b_i - round(<b_i,b_j>/<b_j,b_j>) b_j when
    that strictly shortens b_i; norms are integers bounded below, so the
    sweep terminates. Enumeration preprocessing only, not a public API.
    """
    basis = [r[:] for r in basis]

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            ni = dot(basis[i], basis[i])
            for j in range(len(basis)):
                if i == j:
                    continue
                njj = dot(basis[j], basis[j])
                q = (2 * dot(basis[i], basis[j]) + njj) // (2 * njj)
                if q:
                    cand = [a - q * b for a, b in zip(basis[i], basis[j])]
                    nc = dot(cand, cand)
                    if nc < ni:
                        basis[i], ni, changed = cand, nc, True
    return basis


@lru_cache(maxsize=1)
def leech_lattice() -> Lattice:
    """The Leech lattice from the Golay code, with integral unimodular Gram.

    Working at scale sqrt(8): integer vectors x with all coordinates of
    one parity, the mod-4 residue pattern a Golay word, and coordinate
    sum congruent to 4*(parity) mod 8. Generators: doubled Golay rows,
    4(e_i +- e_j), and (-3, 1, ..., 1); a Hermite basis of these is
    size-reduced for enumeration quality. The construction is accepted
    only if det = 1, the diagonal is even, and (downstream, in tests)
    minimum norm 4 with 196560 minimal vectors.
    """
    gens: list[list[int]] = [[2 * x for x in g] for g in _golay_generator_vectors()]
    v = [0] * 24
    v[0] = v[1] = 4
    gens.append(v[:])
    for i in range(23):
        v = [0] * 24
        v[i], v[i + 1] = 4, -4
        gens.append(v[:])
    gens.append([-3] + [1] * 23)

    basis = _pair_reduce(_hnf_basis(gens))
    gram_scaled = [
        [sum(a * b for a, b in zip(basis[i], basis[j])) for j in range(24)] for i in range(24)
    ]
    if any(gram_scaled[i][j] % 8 for i in range(24) for j in range(24)):
        raise AssertionError("Leech Gram is not integral at scale 8")
    gram = [[Fraction(gram_scaled[i][j] // 8) for j in range(24)] for i in range(24)]
    if det_exact(gram) != 1:
        raise AssertionError("Leech construction is not unimodular")
    if any(gram[i][i] % 2 for i in range(24)):
        raise AssertionError("Leech construction is not even")
    return Lattice(
        "Leech",
        24,
        tuple(tuple(row) for row in gram),
        tuple(tuple(Fraction(x) for x in row) for row in basis),
        basis_scale_sq=Fraction(8),
    )


# ---------------------------------------------------------------------------
# short-vector enumeration

def _half_space_candidates(
    d: list[float], u: list[list[float]], bound: float
) -> list[tuple[int, ...]]:
    """Depth-first search over the canonical half-space of {x : Q(x) <= bound}.

    Q(x) = sum_i d[i] (x_i + sum_{j>i} u[i][j-i-1] x_j)^2, levels running
    from the last coordinate down. While every fixed coordinate above is
    zero the range is clamped to x_i >= 0, so each +-pair is seen exactly
    once and the zero vector never. Pruning is in floats with 1e-6 slack
    on the budget and 1e-9 margins on each rounded coordinate range; the
    caller re-verifies every candidate exactly.
    """
    n = len(d)
    slack = 1e-6
    found: list[tuple[int, ...]] = []
    x = [0] * n

    def level(i: int, budget: float, zero_above: bool) -> None:
        di = d[i]
        c = sum(map(operator.mul, u[i], x[i + 1:]))
        rad = math.sqrt(max(budget, 0.0) / di)
        lo = math.ceil(-rad - c - 1e-9)
        if zero_above and lo < 0:
            lo = 0
        hi = math.floor(rad - c + 1e-9)
        if i == 0:
            rest = x[1:]
            for xi in range(lo, hi + 1):
                if budget - di * (xi + c) ** 2 >= -slack and (xi or not zero_above):
                    found.append((xi, *rest))
            return
        for xi in range(lo, hi + 1):
            t = budget - di * (xi + c) ** 2
            if t >= -slack:
                x[i] = xi
                level(i - 1, t, zero_above and xi == 0)

    level(n - 1, bound + slack, True)
    return found


def _short_vectors_with_norms(
    lat: Lattice, bound_sq
) -> tuple[list[tuple[int, ...]], list[Fraction]]:
    bound = rat(bound_sq)
    if bound <= 0:
        return [], []
    n = lat.rank
    # Scale the Gram matrix to integers so candidate norms are integers.
    scale = 1
    for row in lat.gram:
        for x in row:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
    gz = np.array([[int(x * scale) for x in row] for row in lat.gram], dtype=np.int64)
    bound_scaled = bound * scale
    bound_int = bound_scaled.numerator // bound_scaled.denominator  # floor

    d_exact, u_exact = _ldl_exact([[x * scale for x in row] for row in lat.gram])
    dd = [float(x) for x in d_exact]
    uu = [[float(x) for x in row[i + 1:]] for i, row in enumerate(u_exact)]

    # int64 safety: |x_i| <= sqrt(bound/d_min) + 1 per coordinate.
    max_coord = int(math.sqrt(float(bound_scaled) / min(dd))) + 2
    if n * n * max_coord * max_coord * int(np.abs(gz).max()) >= 2**62:
        raise OverflowError("enumeration bound too large for int64 verification")

    cands = np.array(_half_space_candidates(dd, uu, float(bound_scaled)), dtype=np.int64)
    cands = cands.reshape(-1, n)
    if cands.size:
        # exact int64-safety certificate for the norm verification below
        coord_max = int(np.abs(cands).max())
        if n * n * coord_max * coord_max * int(np.abs(gz).max()) >= 2**62:
            raise OverflowError("candidate coordinates too large for int64 verification")
    norms = np.einsum("ij,jk,ik->i", cands, gz, cands)
    keep = (norms > 0) & (norms <= bound_int)
    cands, norms = cands[keep], norms[keep]

    vecs: list[tuple[int, ...]] = []
    out_norms: list[Fraction] = []
    for row, nrm in zip(cands.tolist(), norms.tolist()):
        q = Fraction(int(nrm), scale)
        vecs.append(tuple(row))
        out_norms.append(q)
        vecs.append(tuple(-x for x in row))
        out_norms.append(q)
    order = sorted(range(len(vecs)), key=lambda k: vecs[k])
    return [vecs[k] for k in order], [out_norms[k] for k in order]


def short_vectors(lat: Lattice, bound_sq) -> list[tuple[int, ...]]:
    """All nonzero lattice vectors with v^T Gram v <= bound_sq, exactly.

    Coordinates are with respect to the lattice basis; each +- pair
    appears as two vectors; the list is canonically sorted.
    """
    vecs, _ = _short_vectors_with_norms(lat, bound_sq)
    return vecs


@dataclass(frozen=True)
class LatticeInvariants:
    lambda1_sq: Fraction
    covolume_sq: Fraction
    kissing: int
    density: float
    hermite: float
    hermite_pow_n: Fraction  # gamma^n = lambda1^(2n) / det(gram), exact


def unit_ball_volume(n: int) -> float:
    """nu_n = pi^{n/2} / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def lattice_invariants(lat: Lattice) -> LatticeInvariants:
    """lambda_1^2, kissing number, covolume, packing density, Hermite form.

    lambda_1^2 comes from enumerating below the smallest Gram diagonal
    entry (a basis vector realizes it, so the search never comes back
    empty); density and the Hermite constant use
    Delta = nu_n (lambda_1/2)^n / covolume and gamma = lambda_1^2 / covol^{2/n}.
    """
    n = lat.rank
    start = min(lat.gram[i][i] for i in range(n))
    _, norms = _short_vectors_with_norms(lat, start)
    lam = min(norms)
    kissing = sum(1 for q in norms if q == lam)
    det = lat.covolume_sq
    density = (
        unit_ball_volume(n) * (float(lam) / 4.0) ** (n / 2) / math.sqrt(float(det))
    )
    hermite = float(lam) / float(det) ** (1.0 / n)
    return LatticeInvariants(
        lambda1_sq=lam,
        covolume_sq=det,
        kissing=kissing,
        density=density,
        hermite=hermite,
        hermite_pow_n=lam**n / det,
    )


# ---------------------------------------------------------------------------
# the classical tables

_TABLE_LATTICE = {1: "A1", 2: "A2", 3: "A3", 4: "D4", 5: "D5", 6: "E6", 7: "E7", 8: "E8", 24: "Leech"}

_TABLE_GAMMA_POW_N = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
    6: Fraction(64, 3),
    7: Fraction(64),
    8: Fraction(256),
    24: Fraction(4) ** 24,
}

_TABLE_DENSITY = {
    1: 1.0,
    2: math.pi / (2 * math.sqrt(3)),
    3: math.pi / (3 * math.sqrt(2)),
    4: math.pi**2 / 16,
    5: math.pi**2 / (15 * math.sqrt(2)),
    6: math.pi**3 / (48 * math.sqrt(3)),
    7: math.pi**3 / 105,
    8: math.pi**4 / 384,
    24: math.pi**12 / math.factorial(12),
}

_TABLE_KISSING = {1: 2, 2: 6, 3: 12, 4: 24, 8: 240, 24: 196560}

_DENSITY_RTOL = 1e-12


def table_report(dims: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8, 24)) -> dict:
    """Recompute the classical Hermite/density/kissing tables with match flags.

    Each row compares the exact gamma^n against the tabulated rational,
    the floating density against its closed form (1e-12 relative), and
    the count of minimal vectors against the known kissing number where
    one is known. Mordell's inequality gamma_n <= gamma_{n-1}^{(n-1)/(n-2)}
    is checked across consecutive computed rows.
    """
    unsupported = [n for n in dims if n not in _TABLE_LATTICE]
    if unsupported:
        raise ValueError(
            f"unsupported table dimension(s) {unsupported}; supported dimensions are 1-8 and 24"
        )
    rows = []
    gammas: dict[int, float] = {}
    for n in dims:
        name = _TABLE_LATTICE[n]
        lat = standard_lattice(name)
        inv = lattice_invariants(lat)
        gamma_expected = _TABLE_GAMMA_POW_N[n]
        density_expected = _TABLE_DENSITY[n]
        kiss_expected = _TABLE_KISSING.get(n)
        density_match = (
            abs(inv.density - density_expected) <= _DENSITY_RTOL * density_expected
        )
        row = {
            "n": n,
            "lattice": name,
            "lambda1_sq": rat_str(inv.lambda1_sq),
            "covolume_sq": rat_str(inv.covolume_sq),
            "gamma_pow_n": rat_str(inv.hermite_pow_n),
            "gamma_pow_n_expected": rat_str(gamma_expected),
            "gamma_match": inv.hermite_pow_n == gamma_expected,
            "nu_n": unit_ball_volume(n),
            "density": inv.density,
            "density_expected": density_expected,
            "density_match": density_match,
            "kissing": inv.kissing,
            "kissing_expected": kiss_expected,
            "kissing_match": (inv.kissing == kiss_expected) if kiss_expected else None,
        }
        rows.append(row)
        gammas[n] = inv.hermite
    mordell = []
    for n in sorted(gammas):
        if n - 1 in gammas and n >= 3:
            bound = gammas[n - 1] ** ((n - 1) / (n - 2))
            mordell.append(
                {"n": n, "gamma_n": gammas[n], "bound": bound, "ok": gammas[n] <= bound + 1e-12}
            )
    all_match = all(
        r["gamma_match"] and r["density_match"] and r["kissing_match"] is not False
        for r in rows
    ) and all(m["ok"] for m in mordell)
    return {"rows": rows, "mordell": mordell, "all_match": all_match}
