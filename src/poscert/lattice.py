"""Named lattices, the binary Golay code, and exact short-vector counts.

Lattices are carried by exact rational Gram matrices (never floating
bases): A1-A3, D4, D5, E6-E8 through their root-system Cartan matrices,
E8 additionally through the integer/half-integer coordinate description,
Z^k, and the Leech lattice built by lifting the extended binary Golay
code through the standard mod-2 / mod-4 congruence conditions. Short
vectors are enumerated under a quadratic-form bound (Fincke--Pohst
style), one level at a time over numpy blocks of search-tree nodes: one
fraction-free elimination per lattice gives the exact quadratic completion,
float ranges, widened by slack, prune no node on its float budget, and every
candidate is re-verified in integer-valued float64 products below 2^53, so the
set is exact.

The Golay code is the extended quadratic-residue code of length 23; its
correctness is established by the 4096-word, minimum-weight-8
enumeration, not by provenance. The Leech basis is LLL-reduced, and the
exact checks on its Gram matrix certify the result.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .polycore import bareiss_steps, clear_denominators, integer, rat, rat_str

# ---------------------------------------------------------------------------
# lattices

@dataclass(frozen=True)
class Lattice:
    """Rank-n lattice with exact rational Gram matrix.

    ``_pivot_rows`` are the Bareiss pivot rows of the integer Gram matrix
    gram * _scale: lead_i = row_i[0] is its leading minor of order i + 1, and
    its quadratic form is sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2 with
    d_i = lead_i / lead_{i-1} (lead_{-1} = 1) and u_ij = row_i[j - i] / lead_i.
    """

    name: str
    rank: int
    gram: tuple[tuple[Fraction, ...], ...]
    _scale: int = field(init=False, repr=False, compare=False)
    _gram_int: tuple[int, ...] = field(init=False, repr=False, compare=False)  # gram * _scale, row-major
    _pivot_rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = integer(self.rank, 1, "rank")  # a Python int: covolume_sq takes _scale to this power
        g = tuple(tuple(rat(x) for x in row) for row in self.gram)
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("Gram matrix shape does not match rank")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise ValueError("Gram matrix must be symmetric")
        flat, scale = clear_denominators([x for row in g for x in row])
        # positive definite iff no step swaps rows and every lead is > 0
        steps = bareiss_steps([flat[i * n:(i + 1) * n] for i in range(n)])
        pivot_rows = tuple(tuple(top) for _, top in takewhile(lambda s: not s[0] and s[1][0] > 0, steps))
        if len(pivot_rows) < n:
            raise ValueError(f"Gram matrix is not positive definite (pivot {len(pivot_rows)})")
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_gram_int", tuple(flat))
        object.__setattr__(self, "_pivot_rows", pivot_rows)

    @property
    def covolume_sq(self) -> Fraction:
        return Fraction(self._pivot_rows[-1][0], self._scale**self.rank)

    def gram_json(self) -> list[list[str]]:
        return [[rat_str(x) for x in row] for row in self.gram]


def _cartan_gram(n: int, edges: Sequence[tuple[int, int]]) -> tuple[tuple[Fraction, ...], ...]:
    g = [[Fraction(2 if i == j else 0) for j in range(n)] for i in range(n)]
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


def _gram(rows: Sequence[Sequence[int]], den: int) -> tuple[tuple[Fraction, ...], ...]:
    """The exact Gram matrix (sum_k a_k b_k / den) of the integer rows a, b."""
    return tuple(tuple(Fraction(sum(map(mul, a, b)), den) for b in rows) for a in rows)


def e8_coordinate_lattice() -> Lattice:
    """E8 as integer/half-integer coordinates with even coordinate sum.

    Basis: (2, 0^7), the chain (-1, 1, 0...) differences, and the
    all-halves vector; det(Gram) = 1 with even diagonal, matching the
    root-basis construction invariant for invariant.
    """
    rows = [[4] + [0] * 7] + [[0] * (i - 1) + [-2, 2] + [0] * (7 - i) for i in range(1, 7)] + [[1] * 8]
    return Lattice("E8-coords", 8, _gram(rows, 4))  # the rows doubled, so over 2^2


# Largest k accepted in Z<k>. Building Z^k checks its Gram matrix positive
# definite in O(k^3) integer operations: Z256 builds in 0.12-0.15 s, and
# `poscert lattice info` on Z256 takes 0.32-0.38 s and 43 MB (2-vCPU Xeon VM).
MAX_Z_RANK = 256


def standard_lattice(name: str) -> Lattice:
    """Construct a named lattice: A1-A3, D4, D5, E6-E8, Leech, or Z<k>, k <= MAX_Z_RANK."""
    if name in _CARTAN_EDGES:
        n, edges = _CARTAN_EDGES[name]
        return Lattice(name, n, _cartan_gram(n, edges))
    if name == "Leech":
        return leech_lattice()
    m = re.fullmatch(r"Z(0|[1-9][0-9]*)", name)
    if m:
        k = int(m.group(1))
        if not 1 <= k <= MAX_Z_RANK:
            raise ValueError(f"Z lattice rank must be between 1 and {MAX_Z_RANK}, got {k}")
        eye = tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(k)) for i in range(k)
        )
        return Lattice(name, k, eye)
    raise KeyError(f"unknown lattice name: {name!r}")


# ---------------------------------------------------------------------------
# binary codes

class BinaryCode:
    """Binary linear code spanned by generator rows; ``words``, as bitmasks, is built on each read."""

    def __init__(self, length: int, generator_rows: Sequence[int]):
        self.length = integer(length, 1, "code length")
        self.generator_rows = tuple(integer(r, 0, "generator row") for r in generator_rows)
        if (top := max(self.generator_rows, default=0)) >> self.length:
            raise ValueError(f"generator row must be < 2^{self.length}, got {top}")

    @property
    def words(self) -> tuple[int, ...]:
        acc = {0}
        for row in self.generator_rows:
            acc |= {w ^ row for w in acc}
        return tuple(sorted(acc))

    def __len__(self) -> int:
        return len(self.words)

    def word_tuple(self, word: int) -> tuple[int, ...]:
        return tuple((word >> i) & 1 for i in range(self.length))


def golay_code() -> BinaryCode:
    """The [24, 12, 8] extended binary Golay code, 4096 words.

    The extended quadratic-residue code of length 23 (SPLAG ch. 3): spanned
    by the 23 cyclic shifts of the indicator of the nonzero squares mod 23,
    each with a parity bit.
    """
    squares = {i * i % 23 for i in range(1, 23)}
    return BinaryCode(24, [sum(1 << (r + s) % 23 for r in squares) | 1 << 23 for s in range(23)])


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


def _lll(basis: list[list[int]]) -> list[list[int]]:
    """LLL reduction (Lenstra, Lenstra and Lovasz 1982) at delta = 0.99.

    A float QR of the rows so far decides each size reduction and each
    swap; the rows change only by exact integer operations, so the output
    is always a basis of the same lattice.
    """
    b = [r[:] for r in basis]
    k = 1
    while k < len(b):
        r = np.linalg.qr(np.array(b[:k + 1], dtype=float).T, mode="r")
        for j in reversed(range(k)):
            q = round(r[j, k] / r[j, j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                r[:j + 1, k] -= q * r[:j + 1, j]
        if r[k, k] ** 2 >= 0.99 * r[k - 1, k - 1] ** 2 - r[k - 1, k] ** 2:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            k = max(k - 1, 1)
    return b


def leech_lattice() -> Lattice:
    """The Leech lattice from the Golay code, with integral unimodular Gram.

    Working at scale sqrt(8): integer vectors x with all coordinates of
    one parity, the mod-4 residue pattern a Golay word, and coordinate
    sum congruent to 4*(parity) mod 8. Generators: doubled Golay rows,
    4(e_i +- e_j), and (-3, 1, ..., 1); a Hermite basis of these is
    LLL-reduced for enumeration quality (every basis norm is 4 and every
    LDL pivot at least 1/4). The construction is accepted only if det = 1,
    the diagonal is even, and (downstream, in tests) minimum norm 4 with
    196560 minimal vectors.
    """
    code = golay_code()
    gens = [[2 * x for x in code.word_tuple(row)] for row in code.generator_rows]
    v = [0] * 24
    v[0] = v[1] = 4
    gens.append(v[:])
    for i in range(23):
        v = [0] * 24
        v[i], v[i + 1] = 4, -4
        gens.append(v[:])
    gens.append([-3] + [1] * 23)

    basis = _lll(_hnf_basis(gens))
    gram = _gram(basis, 8)
    if any(x.denominator != 1 for row in gram for x in row):
        raise AssertionError("Leech Gram is not integral at scale 8")
    if any(gram[i][i] % 2 for i in range(24)):
        raise AssertionError("Leech construction is not even")
    lat = Lattice("Leech", 24, gram)
    if lat.covolume_sq != 1:
        raise AssertionError("Leech construction is not unimodular")
    return lat


# ---------------------------------------------------------------------------
# short-vector enumeration

# Most nodes one block of the enumeration stack holds.
_BLOCK = 1 << 15
_SLACK = 1e-6  # float slack on the search budget: it only widens the rounded ranges


def _half_space_candidates(d: np.ndarray, u: list[np.ndarray], bound: float, dtype) -> np.ndarray:
    """Level-by-level search over the canonical half-space of {x : Q(x) <= bound}.

    Q(x) = sum_i d[i] (x_i + sum_{j>i} u[i][j-i-1] x_j)^2, levels running
    from the last coordinate down. The stack holds blocks of up to _BLOCK
    nodes at one level, their fixed coordinates and remaining budgets; a
    block is expanded one level in numpy, the last level into the output.
    Children ascend from each node's lower end, so the one all-zero node
    is row 0 of its level's first block, which carries a flag: that row's
    range starts at 0, so each +-pair is seen once, and the last level
    drops it, the zero vector. Ranges are rounded in floats with _SLACK on
    the budget and 1e-9 margins; no child is pruned on its float budget,
    as the caller checks every candidate exactly. ``dtype`` is a signed
    integer type the caller proves holds every coordinate the search reaches.
    """
    n = len(d)
    found = []
    stack = [(n - 1, np.zeros((1, n), dtype=dtype), np.array([bound + _SLACK]), True)]
    while stack:
        i, x, budget, zero = stack.pop()
        c = x[:, i + 1:] @ u[i]
        rad = np.sqrt(np.maximum(budget, 0.0) / d[i])
        lo = np.ceil(-rad - c - 1e-9)
        if zero:
            lo[0] = 0
        hi = np.floor(rad - c + 1e-9)
        # no clip: fl(-rad - c) <= fl(rad - c) gives lo <= hi + 1, the flagged row has hi >= 0; np.repeat raises on < 0
        count = (hi - lo + 1).astype(np.int64)
        parent = np.repeat(np.arange(len(x)), count)
        xi = lo[parent] + (np.arange(len(parent)) - np.repeat(np.cumsum(count) - count, count))
        x = x[parent]
        x[:, i] = xi
        if i == 0:
            found.append(x[1:] if zero else x)
            continue
        t = budget[parent] - d[i] * (xi + c[parent]) ** 2
        for s in range(0, len(x), _BLOCK):
            stack.append((i - 1, x[s:s + _BLOCK], t[s:s + _BLOCK], zero and s == 0))
    return np.concatenate(found)


def _short_vectors_with_norms(lat: Lattice, bound_sq) -> tuple[np.ndarray, np.ndarray]:
    """One vector of each +-pair with v^T Gram v <= bound_sq, unsorted.

    Returns the coordinates, in the narrowest signed integer type that holds
    -1 - X for the proven coordinate bound X, and their int64 norms under
    the integer Gram matrix gram * lat._scale.
    """
    n, scale = lat.rank, lat._scale
    bound = rat(bound_sq)
    if bound <= 0:
        return np.zeros((0, n), dtype=np.int8), np.zeros(0, dtype=np.int64)
    gmax = max(map(abs, lat._gram_int))
    bound_scaled = bound * scale
    bound_int = bound_scaled.numerator // bound_scaled.denominator  # floor

    leads = [1] + [row[0] for row in lat._pivot_rows]
    # int / int rounds the exact quotient correctly, as float(Fraction(...)) does
    dd = np.array([leads[i + 1] / leads[i] for i in range(n)])
    uu = [np.array([x / row[0] for x in row[1:]]) for row in lat._pivot_rows]

    # |x_i + sum_{j>i} u_ij x_j| <= sqrt((bound + _SLACK)/d_i) in the search, so
    # |x_i| <= X_i = sqrt((bound + _SLACK)/d_i) + 1 + sum_{j>i} |u_ij| X_j, the 1
    # covering the rounding; the search then fits the dtype chosen from max X_i.
    xmax = np.zeros(n)
    for i in reversed(range(n)):
        xmax[i] = math.sqrt((float(bound_scaled) + _SLACK) / dd[i]) + 1 + np.abs(uu[i]) @ xmax[i + 1:]
    if not xmax.max() < math.sqrt(2**53 / (n * n * gmax)):  # a nan bound fails too
        raise OverflowError(f"enumeration bound allows candidate coordinates up to {xmax.max():.0f}, "
                            "too large for exact float64 norms below 2^53")

    cands = _half_space_candidates(dd, uu, float(bound_scaled), np.min_scalar_type(-1 - int(xmax.max())))
    coord_max = max(int(cands.max(initial=0)), -int(cands.min(initial=0)))  # certifies the float64 norms below
    if n * n * coord_max * coord_max * gmax >= 2**53:
        raise OverflowError("candidate coordinates too large for exact float64 norms below 2^53")
    # every partial sum is an integer of magnitude at most n^2 coord_max^2 max|gz| < 2^53
    gz = np.array(lat._gram_int, dtype=np.float64).reshape(n, n)
    c = cands.astype(np.float64)
    norms = np.einsum("ij,ij->i", c @ gz, c).astype(np.int64)
    keep = (norms > 0) & (norms <= bound_int)
    if keep.all():
        return cands, norms
    return cands[keep], norms[keep]


def short_vectors(lat: Lattice, bound_sq) -> np.ndarray:
    """All nonzero lattice vectors with v^T Gram v <= bound_sq, exactly.

    Returns one C-contiguous int64 array of shape (2m, n), one row per vector in
    coordinates with respect to the lattice basis, and shape (0, n) when there
    are none; ``.tolist()`` gives lists of Python ints. The rows are sorted
    lexicographically, first coordinate most significant, and rows i and
    2m - 1 - i are negatives of each other.
    """
    half, _ = _short_vectors_with_norms(lat, bound_sq)
    # L holds each pair's member whose first nonzero entry is < 0 (in a type holding -1 - max|x|, negation
    # cannot overflow); negation reverses the order and 0 is not in the set, so the rows are L, then -L reversed
    half *= -np.sign(half[np.arange(len(half)), (half != 0).argmax(1)])[:, None]
    out = np.empty((2 * len(half), lat.rank), dtype=np.int64)
    out[:len(half)] = half[np.lexsort(half.T[::-1])]
    np.negative(out[len(half) - 1::-1], out=out[len(half):])
    return out


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
    low = norms.min()
    lam = Fraction(int(low), lat._scale)
    kissing = 2 * int((norms == low).sum())
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

# n: (lattice, gamma^n exactly, kissing number where it is known)
_TABLE = {
    1: ("A1", Fraction(1), 2),
    2: ("A2", Fraction(4, 3), 6),
    3: ("A3", Fraction(2), 12),
    4: ("D4", Fraction(4), 24),
    5: ("D5", Fraction(8), None),
    6: ("E6", Fraction(64, 3), None),
    7: ("E7", Fraction(64), None),
    8: ("E8", Fraction(256), 240),
    24: ("Leech", Fraction(4) ** 24, 196560),
}


def table_report(dims: Optional[Sequence[int]] = None) -> dict:
    """Recompute the classical Hermite/density/kissing tables with match flags.

    `dims` defaults to every tabulated dimension (so does an empty one). Each
    row compares the exact gamma^n with the tabulated rational and the count of
    minimal vectors with the kissing number where one is known; the density
    nu_n (gamma^n)^{1/2} / 2^n follows from gamma^n and is only reported.
    Mordell's inequality gamma_n <= gamma_{n-1}^{(n-1)/(n-2)} is decided
    exactly across consecutive computed rows.
    """
    dims = list(dict.fromkeys(integer(n, 1, "dimension") for n in dims or _TABLE))  # each lattice once, first-seen order
    unsupported = [n for n in dims if n not in _TABLE]
    if unsupported:
        starts = [n for n in _TABLE if n - 1 not in _TABLE]
        ends = [n for n in _TABLE if n + 1 not in _TABLE]
        spans = " and ".join(f"{a}-{b}" if a < b else str(a) for a, b in zip(starts, ends))
        raise ValueError(
            f"unsupported table dimension(s) {unsupported}; supported dimensions are {spans}"
        )
    rows = []
    invs: dict[int, LatticeInvariants] = {}
    for n in dims:
        name, gamma_expected, kiss_expected = _TABLE[n]
        inv = invs[n] = lattice_invariants(standard_lattice(name))
        gamma_match = inv.hermite_pow_n == gamma_expected
        kissing_match = (inv.kissing == kiss_expected) if kiss_expected else None
        rows.append({
            "n": n,
            "lattice": name,
            "lambda1_sq": rat_str(inv.lambda1_sq),
            "covolume_sq": rat_str(inv.covolume_sq),
            "gamma_pow_n": rat_str(inv.hermite_pow_n),
            "gamma_pow_n_expected": rat_str(gamma_expected),
            "gamma_match": gamma_match,
            "nu_n": unit_ball_volume(n),
            "density": inv.density,
            "kissing": inv.kissing,
            "kissing_expected": kiss_expected,
            "kissing_match": kissing_match,
            "match": gamma_match and kissing_match is not False,
        })
    mordell = [  # ok: both sides to the power n(n-2), g_n^{n-2} <= g_{n-1}^n with g = gamma^n
        {"n": n, "gamma_n": inv.hermite, "bound": prev.hermite ** ((n - 1) / (n - 2)),
         "ok": inv.hermite_pow_n ** (n - 2) <= prev.hermite_pow_n**n}
        for n, inv in sorted(invs.items()) if n >= 3 and (prev := invs.get(n - 1))
    ]
    all_match = all(r["match"] for r in rows) and all(m["ok"] for m in mordell)
    return {"rows": rows, "mordell": mordell, "all_match": all_match}
