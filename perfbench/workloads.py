"""The four workloads: seeded inputs and the fixed operation list of a round.

A run executes whole rounds of one list; the list is a function of the
workload and the seed only, so two runs with the same seed do identical
work. Every LP case below was checked once against the oracles; cases on
which poscert fails (LP infeasible, repair ladder exhausted) are left
out, except the one failing operation named in ``FAILING_LP``.

Callers reach poscert through its submodules (``importlib``), because the
traced run replaces functions at the names their callers look them up;
``poscert.gegenbauer`` itself is the function, not the submodule.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

delsarte = importlib.import_module("poscert.delsarte")
lattice = importlib.import_module("poscert.lattice")
schurdet = importlib.import_module("poscert.schurdet")

WORKLOADS = ("lp_coarse_grid", "lp_fine_grid", "lattice_shells", "schur_identity")

# Operations of lattice_shells whose calibrated time is below this are
# timed REPEATS times in each round, and the least time counts: a single
# 3 ms enumeration varied by up to 40% between rounds, and the median
# operation (about 4 ms) spread by 18% over five seeds. Repeats are not
# counted as operations; poscert keeps no cache that they would hit.
REPEAT_BELOW_S = {"lattice_shells": 0.02}
REPEATS = 3

# A run executes round(--seconds / SECONDS_PER_ROUND) rounds, at least
# one; no clock decides how many. At the 12 s run length that is 3
# rounds, and 5 for schur_identity, whose time sits in a few large
# instances that need more tries to catch the machine at a quiet moment.
SECONDS_PER_ROUND = {"lp_coarse_grid": 4.0, "lp_fine_grid": 4.0, "lattice_shells": 4.0, "schur_identity": 2.4}

HALF = Fraction(1, 2)

# lp_bound(3, 1/2, 60, 2000) evaluates G_k on the grid from monomial
# coefficients; its float optimum collapses to 12.09 (HiGHS: 13.158) and
# the repair ladder fails. Kept so that mending it shows as fewer failures.
FAILING_LP = (3, HALF, 60, 2000)


@dataclass(frozen=True)
class Op:
    """One timed call into poscert: ``kind`` names the call, ``args`` its inputs."""

    kind: str
    args: tuple
    label: str


# ---------------------------------------------------------------------------
# LP workloads


# Coarse grid (2000 points): every dimension 3-24 at a degree in 6-18,
# and dimensions 3-15 and 24 also at one in 19-40. The set is fixed; the
# seed sets the order. Drawing cases per seed instead moved the work of a
# round by 12% (quartile spread of the summed per-case times, 200 seeds),
# which would swamp the bounds. (23, 13) has the loosest certificate of
# all degrees 6-40 at grid 2000 (7,874 ppm above the grid optimum), so
# delsarte.cert_gap_ppm reads the same operation in every run.
# Left out: (20, 8), which is feasible but the repair ladder fails
# (CHANGES.md), and degrees below the lowest feasible one per dimension.
COARSE_CASES = [
    (3, 8), (3, 40), (4, 12), (4, 24), (5, 16), (5, 28), (6, 10), (6, 20),
    (7, 6), (7, 24), (8, 10), (8, 32), (9, 14), (9, 22), (10, 18), (10, 26),
    (11, 7), (11, 20), (12, 11), (12, 24), (13, 15), (13, 36), (14, 9), (14, 19),
    (15, 8), (15, 22), (16, 12), (17, 7), (18, 16), (19, 12), (20, 9), (21, 13),
    (22, 10), (23, 13), (24, 10), (24, 40),
]
# Cosines with an exactly known optimum: 2n at cos 0 (cross-polytope) and
# n + 1 at cos -1/n (regular simplex).
COARSE_EXACT = [
    (5, Fraction(0), 8), (12, Fraction(0), 10), (24, Fraction(0), 6),
    (4, Fraction(-1, 4), 6), (10, Fraction(-1, 10), 8), (20, Fraction(-1, 20), 12),
]

# Fine grids: each degree 8-16 at grids in 20,000-40,000, 50,000-60,000
# and 80,000-100,000, over dimensions 3-24. Left out: dimension 8 at grids
# 30,000 and 60,000, where the simplex takes 5-27 s per operation
# (CHANGES.md), longer than a whole run.
FINE_CASES = [
    (3, 8, 20000), (10, 8, 20000), (12, 8, 50000), (16, 8, 80000),
    (4, 9, 30000), (6, 9, 30000), (20, 9, 20000), (20, 9, 60000), (5, 9, 100000),
    (6, 10, 40000), (20, 10, 40000), (16, 10, 20000), (24, 10, 50000), (10, 10, 80000),
    (8, 11, 20000), (24, 11, 20000), (3, 11, 60000), (12, 11, 100000),
    (16, 12, 30000), (3, 12, 30000), (10, 12, 30000), (4, 12, 50000), (20, 12, 80000),
    (24, 13, 30000), (5, 13, 40000), (5, 13, 60000), (6, 13, 100000),
    (10, 14, 40000), (12, 14, 20000), (8, 14, 50000), (5, 14, 50000), (3, 14, 80000),
    (12, 15, 20000), (6, 15, 40000), (16, 15, 60000), (4, 15, 100000),
    (20, 16, 40000), (6, 16, 50000), (4, 16, 50000), (24, 16, 80000),
]


def _lp_op(n: int, s: Fraction, d: int, grid: int) -> Op:
    return Op("lp_bound", (n, s, d, grid), f"lp_bound({n}, {s}, {d}, {grid})")


def _coarse_ops(rng: random.Random) -> list[Op]:
    ops = [_lp_op(n, HALF, d, 2000) for n, d in COARSE_CASES]
    ops += [_lp_op(n, s, d, 2000) for n, s, d in COARSE_EXACT]
    ops.append(_lp_op(*FAILING_LP))
    for name in delsarte.KNOWN_CERTIFICATE_NAMES:
        known = delsarte.known_certificate(name)
        ops.append(Op("verify_certificate", (known.dim, known.cos_angle, known.poly), f"verify_certificate({name})"))
    return ops


def _fine_ops(rng: random.Random) -> list[Op]:
    return [_lp_op(n, HALF, d, grid) for n, d, grid in FINE_CASES]


# ---------------------------------------------------------------------------
# lattice workload

# (lattice, norm bounds). E8 to norm 10 or more and Z12 to norm 5 pass the
# kernel's first output capacity (2^14 half-pairs) and force a restart;
# E8 to norm 8 or less does not.
LATTICE_SHELLS = [
    ("E8", (2, 4, 6, 8, 10, 12)),
    ("E8-coords", (2, 4, 6, 8, 10)),
    ("D4", (2, 4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64)),
] + [(f"Z{k}", (1, 2, 3)) for k in range(4, 17)] + [
    ("Z4", (4, 8, 12)), ("Z5", (4,)), ("Z6", (4, 5)), ("Z7", (4,)), ("Z8", (4, 5)), ("Z10", (4,)),
    ("Z12", (4, 5)), ("Z14", (4,)),
]
INVARIANT_LATTICES = ("A1", "A2", "A3", "D4", "D5", "E6", "E7", "E8") + tuple(f"Z{k}" for k in range(1, 17))


def _sign_flipped(lat, rng: random.Random, name: str):
    """The same lattice with a seeded set of basis vectors negated.

    Shell counts do not change, and neither does the enumeration's work:
    negating basis vectors mirrors the search tree. The seed thus changes
    the coordinates poscert returns without changing what a run costs; a
    seeded basis permutation moved single E8 shells by up to 12% in cost.
    """
    n = lat.rank
    sign = [rng.choice((-1, 1)) for _ in range(n)]
    gram = tuple(tuple(lat.gram[i][j] * sign[i] * sign[j] for j in range(n)) for i in range(n))
    return lattice.Lattice(name, n, gram)


def _lattice_ops(rng: random.Random) -> list[Op]:
    ops = []
    for name, bounds in LATTICE_SHELLS:
        base = lattice.e8_coordinate_lattice() if name == "E8-coords" else lattice.standard_lattice(name)
        for b in bounds:
            lat = base if name.startswith("Z") else _sign_flipped(base, rng, name)
            ops.append(Op("short_vectors", (lat, b), f"short_vectors({name}, {b})"))
    ops.extend(
        Op("lattice_invariants", (lattice.standard_lattice(name),), f"lattice_invariants({name})")
        for name in INVARIANT_LATTICES
    )
    return ops


# ---------------------------------------------------------------------------
# Schur workload

# (N, degree of f) per instance; cutoff C(N,2) + 6 as in `poscert schur verify`.
# One N = 6 instance (about 1 s, a third of a round) keeps a run within
# its time; two made a run take 33 s of wall time.
SCHUR_SLOTS = [(6, 12)] + [(5, d) for d in range(10, 14)] * 3


def _schur_ops(rng: random.Random) -> list[Op]:
    """Seeded (f, u, v): each slot fixes the numbers, the seed orders u and v.

    The cost of the series determinant follows the sizes of the numbers
    and of the cancellations between them, so the slot fixes magnitudes
    and signs, and the seed permutes the entries of u and of v (which
    changes the determinant by a sign only). The work of a round then
    stays the same from seed to seed: an N = 6 instance cost within 5%
    over five seeds (degrees 11 and 13). With seeded signs it moved
    between 0.78 s and 1.73 s, and ops_per_s spread by 20% over five
    seeds. Entries are nonzero, which also makes the
    t^C(N,2) coefficient V(u)V(v) f_0...f_{N-1} nonzero.
    """
    ops = []
    for slot, (n, deg) in enumerate(SCHUR_SLOTS):
        fixed = random.Random(slot)
        u = [Fraction(m * fixed.choice((-1, 1))) for m in fixed.sample(range(1, 9), n)]
        v = [Fraction(m * fixed.choice((-1, 1))) for m in fixed.sample(range(1, 9), n)]
        f = tuple(Fraction(fixed.randint(1, 4) * fixed.choice((-1, 1))) for _ in range(deg + 1))
        rng.shuffle(u)
        rng.shuffle(v)
        ops.append(Op("schur", (f, tuple(u), tuple(v), n * (n - 1) // 2 + 6), f"schur(N={n}, deg={deg})"))
    return ops


def warmup_ops(workload: str) -> list[Op]:
    """Untimed calls a worker makes before its round, on inputs outside the round.

    A fresh interpreter runs its first calls into numpy and poscert
    slowly (lazy initialisation, memory not yet mapped): in lp_coarse_grid
    the first half of a round varied by up to 1.6x between rounds, the
    last quarter by up to 1.2x. The LP warm-ups use dimensions no LP case
    uses, so that they fill no cache entry a timed operation would hit.
    """
    if workload == "lp_coarse_grid":
        return [_lp_op(26, HALF, 12, 2000), _lp_op(32, HALF, 14, 2000)]
    if workload == "lp_fine_grid":
        return [_lp_op(25, HALF, 12, 20000), _lp_op(30, HALF, 14, 20000)]
    if workload == "lattice_shells":
        return [Op("short_vectors", (lattice.standard_lattice("E7"), 6), "short_vectors(E7, 6)"),
                Op("lattice_invariants", (lattice.standard_lattice("D5"),), "lattice_invariants(D5)")]
    f = tuple(Fraction(k % 3 + 1) for k in range(11))
    u = tuple(Fraction(k) for k in (1, 2, 4, 7, 8))
    return [Op("schur", (f, u, u, 16), "schur(N=5, deg=10)")]


_BUILDERS: dict[str, Callable[[random.Random], list[Op]]] = {
    "lp_coarse_grid": _coarse_ops,
    "lp_fine_grid": _fine_ops,
    "lattice_shells": _lattice_ops,
    "schur_identity": _schur_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of one round, in a seeded order.

    In the LP workloads the operations of one dimension keep their list
    order among the places the shuffle gives them. poscert caches the
    Gegenbauer polynomials per (dimension, degree) in the process, and
    the first call of a dimension pays for the degrees it needs; with
    the order within a dimension seeded, that cost moved between
    operations, and the median operation time spread by 17% over five
    seeds while the total stayed within 8%.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    shuffled = rng.sample(ops, len(ops))
    if workload.startswith("lp_"):
        in_order = {}
        for op in ops:
            in_order.setdefault(op.args[0], []).append(op)
        shuffled = [in_order[op.args[0]].pop(0) for op in shuffled]
    return shuffled


# ---------------------------------------------------------------------------
# execution


def execute(op: Op) -> Any:
    """Run one operation and return its output for the oracles.

    Raises whatever poscert raises; an LP whose repair fails returns a
    result without a certificate, which the caller counts as failed.
    """
    if op.kind == "lp_bound":
        res = delsarte.lp_bound(*op.args)
        cert = res.certificate
        return (res.float_bound, cert.poly.coeffs if cert else None, cert.bound if cert else None, res.rejection)
    if op.kind == "verify_certificate":
        cert = delsarte.verify_certificate(*op.args)
        return (cert.poly.coeffs, cert.bound)
    if op.kind == "short_vectors":
        lat, bound = op.args
        return lattice.short_vectors(lat, bound)
    if op.kind == "lattice_invariants":
        (lat,) = op.args
        inv = lattice.lattice_invariants(lat)
        return (inv.lambda1_sq, inv.covolume_sq, inv.kissing, inv.hermite_pow_n)
    if op.kind == "schur":
        f, u, v, cutoff = op.args
        direct = schurdet.det_series_direct(f, u, v, cutoff)
        formula = schurdet.det_series_formula(f, u, v, cutoff)
        return (direct.coeffs, formula.coeffs)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def compact(op: Op, out: Any) -> Any:
    """The output as it travels to the parent process, converted outside the timing.

    A short-vector list becomes one integer array, about half the memory
    of a list of tuples; the parent holds every round's outputs until it
    has compared them.
    """
    if op.kind == "short_vectors":
        return np.array(out, dtype=np.int64).reshape(len(out), op.args[0].rank)
    return out
