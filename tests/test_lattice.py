import dataclasses
import gc
import itertools
import json
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from poscert import lattice, polycore
from poscert.lattice import (
    Lattice,
    e8_coordinate_lattice,
    golay_code,
    lattice_invariants,
    leech_lattice,
    short_vectors,
    standard_lattice,
    table_report,
    unit_ball_volume,
)


def as_tuples(sv):
    """The rows of a short-vector array as tuples of Python ints."""
    return [tuple(r) for r in sv.tolist()]


def brute_force_count(gram, bound):
    """Cube-search oracle for small lattices: count nonzero v with v^T G v <= bound."""
    n = len(gram)
    radius = int(math.isqrt(int(bound * 4))) + 2
    count = 0
    for v in itertools.product(range(-radius, radius + 1), repeat=n):
        if all(x == 0 for x in v):
            continue
        q = sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        if 0 < q <= bound:
            count += 1
    return count


def test_a2():
    a2 = standard_lattice("A2")
    assert a2.gram == ((Q(2), Q(-1)), (Q(-1), Q(2)))
    assert a2.covolume_sq == 3
    assert len(short_vectors(a2, 2)) == 6
    inv = lattice_invariants(a2)
    assert inv.hermite_pow_n == Q(4, 3)  # gamma_2^2 = 4/3 exactly
    assert inv.density == pytest.approx(math.pi / (2 * math.sqrt(3)), rel=1e-14)


def test_zn_against_cube_oracle():
    for name, bound in (("Z1", 4), ("Z2", 5), ("Z3", 3)):
        lat = standard_lattice(name)
        for b in range(1, bound + 1):
            got = len(short_vectors(lat, b))
            want = brute_force_count([[int(x) for x in r] for r in lat.gram], b)
            assert got == want, (name, b)


def test_z1_invariants():
    inv = lattice_invariants(standard_lattice("Z1"))
    assert inv.lambda1_sq == 1 and inv.kissing == 2
    assert inv.density == pytest.approx(1.0)


def test_a3_d4_d5():
    for name, kissing, det in (("A3", 12, 4), ("D4", 24, 4), ("D5", 40, 4)):
        lat = standard_lattice(name)
        inv = lattice_invariants(lat)
        assert inv.lambda1_sq == 2
        assert inv.kissing == kissing
        assert inv.covolume_sq == det
    assert lattice_invariants(standard_lattice("D4")).hermite == pytest.approx(math.sqrt(2))


def test_e6_e7():
    for name, kissing, det in (("E6", 72, 3), ("E7", 126, 2)):
        inv = lattice_invariants(standard_lattice(name))
        assert inv.lambda1_sq == 2 and inv.kissing == kissing and inv.covolume_sq == det


def test_e8_root_basis():
    e8 = standard_lattice("E8")
    assert e8.covolume_sq == 1
    assert all(e8.gram[i][i] % 2 == 0 for i in range(8))
    assert all(x.denominator == 1 for row in e8.gram for x in row)
    inv = lattice_invariants(e8)
    assert inv.lambda1_sq == 2 and inv.kissing == 240
    assert inv.hermite_pow_n == 256
    assert inv.density == pytest.approx(math.pi**4 / 384, rel=1e-14)


def test_e8_cross_construction():
    a = lattice_invariants(standard_lattice("E8"))
    b = lattice_invariants(e8_coordinate_lattice())
    assert (a.lambda1_sq, a.covolume_sq, a.kissing) == (b.lambda1_sq, b.covolume_sq, b.kissing)


def test_e8_embedding_norms():
    # the coordinate basis as its own reference: (2, 0^7), the chain
    # differences e_i - e_{i-1}, and the all-halves vector
    rows = [[Q(0)] * 8 for _ in range(8)]
    rows[0][0] = Q(2)
    for i in range(1, 7):
        rows[i][i - 1], rows[i][i] = Q(-1), Q(1)
    rows[7] = [Q(1, 2)] * 8
    lat = e8_coordinate_lattice()
    assert lat.gram == tuple(tuple(sum(a * b for a, b in zip(ri, rj)) for rj in rows) for ri in rows)
    # the ambient vectors v = x B, in exact arithmetic
    pts = {tuple(sum(c * b for c, b in zip(x, col)) for col in zip(*rows)) for x in short_vectors(lat, 2)}
    assert len(pts) == 240
    assert {sum(v * v for v in p) for p in pts} == {2}


def test_short_vectors_pairing_and_sorting():
    sv = as_tuples(short_vectors(standard_lattice("A2"), 2))
    assert sorted(sv) == sv
    as_set = set(sv)
    assert all(tuple(-x for x in v) in as_set for v in sv)
    assert len(as_set) == len(sv)  # even count via +- pairing, no duplicates


def test_short_vectors_empty_below_minimum():
    assert short_vectors(standard_lattice("E8"), Q(1)).shape == (0, 8)
    assert short_vectors(standard_lattice("E8"), 0).shape == (0, 8)
    assert short_vectors(standard_lattice("A2"), Q(-1, 2)).shape == (0, 2)


def test_positive_definiteness_required():
    with pytest.raises(ValueError):
        Lattice("bad", 2, ((Q(1), Q(2)), (Q(2), Q(1))))


def test_short_vectors_random_integer_gram_vs_oracle():
    import random

    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 4)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        gram = [
            [sum(b[k][i] * b[k][j] for k in range(n)) + (2 if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        lat = Lattice("rand", n, tuple(tuple(Q(x) for x in row) for row in gram))
        bound = rng.randint(2, 8)
        got = len(short_vectors(lat, bound))
        want = brute_force_count(gram, bound)
        assert got == want, (gram, bound)


def test_short_vectors_rational_gram():
    # non-integer rational Gram: scaling must keep the test exact
    gram = ((Q(1), Q(1, 2)), (Q(1, 2), Q(1)))
    lat = Lattice("hex-ish", 2, gram)
    got = set(as_tuples(short_vectors(lat, 1)))
    # v^T G v = x^2 + xy + y^2 <= 1: the six shortest hexagonal vectors
    want = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
    assert got == want
    # strictly below 1 nothing survives
    assert short_vectors(lat, Q(99, 100)).shape == (0, 2)


def test_unknown_name():
    with pytest.raises(KeyError):
        standard_lattice("F4")


@pytest.mark.parametrize("name", ["Z01", "Z00", "Z\u0663"])
def test_z_rank_is_ascii_digits_without_leading_zeros(name):
    with pytest.raises(KeyError):
        standard_lattice(name)


def test_z0_is_out_of_range_not_unknown():
    with pytest.raises(ValueError, match="between 1 and 256, got 0"):
        standard_lattice("Z0")


def test_golay_code_basic():
    code = golay_code()
    assert code.length == 24
    assert len(code) == 4096
    assert min(w.bit_count() for w in code.words if w) == 8
    words = code.words
    assert 0 in words
    assert (1 << 24) - 1 in words  # all-ones word
    assert all(w.bit_count() % 4 == 0 for w in words)


def test_golay_self_dual():
    code = golay_code()
    rows = code.generator_rows
    for r1 in rows:
        for r2 in rows:
            assert (r1 & r2).bit_count() % 2 == 0


def test_leech_construction_invariants():
    lat = leech_lattice()
    assert lat.rank == 24
    assert lat.covolume_sq == 1
    assert all(x.denominator == 1 for row in lat.gram for x in row)
    assert all(lat.gram[i][i] % 2 == 0 for i in range(24))
    assert min(lat.gram[i][i] for i in range(24)) == 4


def test_leech_basis_is_reduced():
    lat = leech_lattice()
    assert all(lat.gram[i][i] == 4 for i in range(24))
    leads = [1] + [row[0] for row in lat._pivot_rows]
    pivots = [Q(leads[i + 1], leads[i] * lat._scale) for i in range(24)]
    assert min(pivots) >= Q(1, 4)


def inverse_exact(b):
    """B^-1 over Fraction by Gauss-Jordan elimination."""
    n = len(b)
    a = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(b)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def test_lll_is_unimodular_and_reduced():
    rng = random.Random(14)
    for n in [2, 3, 4, 5, 6, 7, 8] * 6:
        b = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        if polycore.det_exact(b) == 0:
            continue
        c = lattice._lll(b)
        # C = U B with U integral and det U = +-1
        binv = inverse_exact(b)
        u = [[sum(x * y for x, y in zip(row, col)) for col in zip(*binv)] for row in c]
        assert all(x.denominator == 1 for row in u for x in row)
        assert abs(polycore.det_exact(u)) == 1
        # exact Gram-Schmidt: |mu_ij| <= 0.51 and the Lovasz condition at 0.98
        star, norms = [], []
        for k, row in enumerate(c):
            mu = [sum(x * y for x, y in zip(row, s)) / ns for s, ns in zip(star, norms)]
            assert all(abs(m) <= Q(51, 100) for m in mu)
            v = [Q(x) for x in row]
            for m, s in zip(mu, star):
                v = [x - m * y for x, y in zip(v, s)]
            star.append(v)
            norms.append(sum(x * x for x in v))
            if k:
                assert norms[k] >= (Q(98, 100) - mu[k - 1] ** 2) * norms[k - 1]


def test_unit_ball_volumes():
    # the full classical nu_n row
    expected = {
        1: 2.0,
        2: math.pi,
        3: 4 * math.pi / 3,
        4: math.pi**2 / 2,
        5: 8 * math.pi**2 / 15,
        6: math.pi**3 / 6,
        7: 16 * math.pi**3 / 105,
        8: math.pi**4 / 24,
        24: math.pi**12 / math.factorial(12),
    }
    for n, v in expected.items():
        assert unit_ball_volume(n) == pytest.approx(v, rel=1e-14)


def test_invariant_sanity_all_named():
    for name in ("A1", "A2", "A3", "D4", "D5", "E6", "E7", "E8"):
        inv = lattice_invariants(standard_lattice(name))
        assert inv.kissing % 2 == 0
        assert 0 < inv.density <= 1
        assert inv.lambda1_sq > 0


def test_hermite_density_relation():
    # gamma_n = 4 (Delta / nu_n)^{2/n} ties the three invariants together
    for name, n in (("A1", 1), ("A2", 2), ("D4", 4), ("E8", 8)):
        inv = lattice_invariants(standard_lattice(name))
        assert inv.hermite == pytest.approx(
            4 * (inv.density / unit_ball_volume(n)) ** (2 / n), rel=1e-12
        )


def test_table_report_low_dims():
    report = table_report(dims=(1, 2, 3, 4, 5, 6, 7, 8))
    assert report["all_match"]
    rows = {r["n"]: r for r in report["rows"]}
    assert rows[2]["gamma_pow_n"] == "4/3"
    assert rows[8]["kissing"] == 240
    assert rows[3]["kissing"] == 12
    for m in report["mordell"]:
        assert m["ok"]
    # mordell at n=3: 2^{1/3} <= 4/3
    m3 = next(m for m in report["mordell"] if m["n"] == 3)
    assert m3["gamma_n"] == pytest.approx(2 ** (1 / 3))
    assert m3["bound"] == pytest.approx(4 / 3)


def theta_zk(k, nmax):
    """Coefficients r_k(0..nmax) of theta_Z^k, by convolving r_1 k times."""
    r1 = [1 if m == 0 else 2 if math.isqrt(m) ** 2 == m else 0 for m in range(nmax + 1)]
    r = [1] + [0] * nmax
    for _ in range(k):
        r = [sum(r[a] * r1[m - a] for a in range(m + 1)) for m in range(nmax + 1)]
    return r


@pytest.mark.parametrize("make", [lambda: standard_lattice("E8"), e8_coordinate_lattice])
def test_e8_theta_series_shells(make):
    # theta_E8 = E_4: 240 sigma_3(m) vectors of norm 2m
    lat = make()
    cumulative = 0
    for m in range(1, 7):
        cumulative += 240 * sum(d**3 for d in range(1, m + 1) if m % d == 0)
        assert len(short_vectors(lat, 2 * m)) == cumulative, (lat.name, 2 * m)
    # norm 12 has more half-pairs than one enumeration block holds
    assert cumulative == 117360 and cumulative // 2 > lattice._BLOCK


def test_z12_theta_series_shells():
    lat = standard_lattice("Z12")
    r = theta_zk(12, 5)
    for bound, want in ((4, 9992), (5, 35864)):
        assert sum(r[1 : bound + 1]) == want
        assert len(short_vectors(lat, bound)) == want


def exact_inverse(gram):
    """Gauss-Jordan inverse over the rationals."""
    n = len(gram)
    a = [list(row) + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(gram)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def box_radii(gram, bound):
    """Half-widths of a box holding every x with x^T G x <= bound.

    By Cauchy-Schwarz in the G-inner product, x^T G x <= bound forces
    x_i^2 <= bound * (G^-1)_ii.
    """
    inv = exact_inverse(gram)
    return [math.isqrt(math.floor(bound * inv[i][i])) for i in range(len(gram))]


def brute_force_vectors(gram, bound):
    """Sorted nonzero x with x^T G x <= bound, and their least norm (None if there are none)."""
    n = len(gram)
    axes = [np.arange(-r, r + 1, dtype=np.int64) for r in box_radii(gram, bound)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    den = math.lcm(*(x.denominator for row in gram for x in row))
    gz = np.array([[int(x * den) for x in row] for row in gram], dtype=np.int64)
    norms = np.einsum("ij,jk,ik->i", pts, gz, pts)
    hit = (norms > 0) & (norms * bound.denominator <= bound.numerator * den)
    least = Q(int(norms[hit].min()), den) if hit.any() else None
    return sorted(map(tuple, pts[hit].tolist())), least


def skewed_gram(rng, n):
    """B B^T / den for a lower-triangular B with off-diagonal entries up to +-6."""
    b = [[rng.randint(1, 3) if i == j else rng.randint(-6, 6) if j < i else 0 for j in range(n)]
         for i in range(n)]
    den = rng.randint(1, 6)
    return tuple(
        tuple(Q(sum(b[i][k] * b[j][k] for k in range(n)), den) for j in range(n)) for i in range(n)
    )


def test_short_vectors_complete_against_box_search():
    # 40 skewed bases of each rank 1-5; a bound whose search box would pass
    # 100,000 points is halved until it fits, which keeps the suite fast
    rng = random.Random(2024)
    nonempty = 0
    for n in [1, 2, 3, 4, 5] * 40:
        gram = skewed_gram(rng, n)
        bound = Q(rng.randint(1, 40), rng.randint(1, 4))
        while math.prod(2 * r + 1 for r in box_radii(gram, bound)) > 100_000:
            bound /= 2
        lat = Lattice("skewed", n, gram)
        want, lam = brute_force_vectors(gram, bound)
        assert as_tuples(short_vectors(lat, bound)) == want, (gram, bound)
        if lam is not None:
            nonempty += 1
            below = lam - Q(1, 1000 * lam.denominator)
            assert short_vectors(lat, below).shape == (0, n), (gram, below)
            assert as_tuples(short_vectors(lat, lam)) == brute_force_vectors(gram, lam)[0], (gram, lam)
    assert nonempty >= 150


@pytest.mark.parametrize("make, bound", [
    pytest.param(lambda: standard_lattice("E8"), 6, id="E8-6"),
    pytest.param(e8_coordinate_lattice, 4, id="E8-coords-4"),
    pytest.param(lambda: standard_lattice("D4"), 64, id="D4-64"),
    pytest.param(lambda: standard_lattice("Z12"), 3, id="Z12-3"),
])
def test_short_vectors_canonical_order_on_large_shells(make, bound):
    # lexicographic, and positions i and 2m - 1 - i are negatives of each other
    sv = as_tuples(short_vectors(make(), bound))
    assert len(sv) > 2000
    assert sv == sorted(sv)
    assert all(sv[i] == tuple(-x for x in sv[-1 - i]) for i in range(len(sv)))


@pytest.mark.parametrize("r", [127, 128, 129, 32767, 32768, 32769])
def test_short_vectors_order_where_coordinates_leave_int8_and_int16(r):
    # r = 127 ... 32769 takes the half-set through the int8, int16 and int32 widths
    expected = [(x,) for x in range(-r, r + 1) if x]
    sv = short_vectors(standard_lattice("Z1"), r * r)
    assert as_tuples(sv) == sorted(expected)
    assert all(type(x) is int for v in sv.tolist() for x in v)
    assert json.loads(json.dumps(sv.tolist())) == [list(v) for v in expected]


@pytest.mark.parametrize("k", [126, 127, 128])
def test_short_vectors_order_with_large_positive_trailing_coordinates(k):
    # Q(x) = x0^2 + (x1 + k x0)^2 <= 2: the half with a negative first
    # coordinate holds (-1, k - 1), (-1, k) and (-1, k + 1)
    gram = ((Q(1 + k * k), Q(k)), (Q(k), Q(1)))
    expected = [(a, b) for a in range(-2, 3) for b in range(-k - 3, k + 4)
                if 0 < a * a + (b + k * a) ** 2 <= 2]
    assert as_tuples(short_vectors(Lattice("sheared", 2, gram), 2)) == sorted(expected)


def test_short_vector_norms_are_exact():
    rng = random.Random(99)
    cases = [(standard_lattice("E8"), 8)]
    for n in [1, 2, 3, 4, 5] * 10:
        cases.append((Lattice("skewed", n, skewed_gram(rng, n)), Q(rng.randint(1, 40), rng.randint(1, 4))))
    nonempty = 0
    for lat, bound in cases:
        vecs, norms = lattice._short_vectors_with_norms(lat, bound)
        g = [[int(x * lat._scale) for x in row] for row in lat.gram]
        want = [sum(gij * v[i] * v[j] for i, row in enumerate(g) for j, gij in enumerate(row))
                for v in vecs.tolist()]
        assert norms.tolist() == want, (lat.gram, bound)
        assert all(0 < q <= bound * lat._scale for q in want)
        nonempty += len(want) > 0
    assert nonempty >= 40


def test_half_set_has_one_row_per_pair_at_exact_shell_norms():
    # the bound is the largest norm a box-search vector reaches below a random
    # bound, so the outermost shell's leaves end on a float budget of about 0
    rng = random.Random(49)
    shells = 0
    for n in [1, 2, 3, 4, 5] * 12:
        gram = skewed_gram(rng, n)
        bound = Q(rng.randint(1, 30), rng.randint(1, 4))
        while math.prod(2 * r + 1 for r in box_radii(gram, bound)) > 20_000:
            bound /= 2
        want, lam = brute_force_vectors(gram, bound)
        if lam is None:
            continue
        shell = max(sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n)) for v in want)
        lat = Lattice("skewed", n, gram)
        half = [tuple(v) for v in lattice._short_vectors_with_norms(lat, shell)[0].tolist()]
        assert (0,) * n not in half, (gram, shell)
        both = set(half) | {tuple(-x for x in v) for v in half}
        assert len(both) == 2 * len(half) and sorted(both) == want == brute_force_vectors(gram, shell)[0], (gram, shell)
        assert as_tuples(short_vectors(lat, shell)) == want, (gram, shell)
        shells += 1
    assert shells >= 40


@pytest.mark.parametrize("make, bound", [
    pytest.param(lambda: standard_lattice("E8"), 6, id="E8-6"),
    pytest.param(lambda: standard_lattice("Z5"), 3, id="Z5-3"),
    pytest.param(lambda: standard_lattice("D4"), 8, id="D4-8"),
    pytest.param(e8_coordinate_lattice, 4, id="E8-coords-4"),
])
def test_short_vectors_do_not_depend_on_the_block_size(monkeypatch, make, bound):
    # blocks of 3 nodes split every level, so the all-zero node must stay in
    # the first block of each level for the zero vector to be dropped
    lat = make()
    want = short_vectors(lat, bound)
    monkeypatch.setattr(lattice, "_BLOCK", 3)
    got = short_vectors(lat, bound)
    assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all()


@pytest.mark.parametrize("make, bound, half", [
    pytest.param(lambda: standard_lattice("E8"), 12, 58680, id="E8-12"),
    pytest.param(leech_lattice, 4, 98280, id="Leech-4"),
])
def test_kernel_yields_only_the_kept_candidates(monkeypatch, make, bound, half):
    # no zero row and no candidate beyond the shells: the exact check keeps every row
    seen = []
    kernel = lattice._half_space_candidates

    def record(*args):
        seen.append(kernel(*args))
        return seen[-1]

    monkeypatch.setattr(lattice, "_half_space_candidates", record)
    vecs, _ = lattice._short_vectors_with_norms(make(), bound)
    assert len(seen[0]) == len(vecs) == half


def test_short_vectors_are_one_int64_array():
    sv = short_vectors(standard_lattice("E8"), 2)
    assert sv.dtype == np.int64 and sv.shape == (240, 8) and sv.flags.c_contiguous
    rows = json.loads(json.dumps(sv.tolist()))
    assert len(rows) == 240
    assert all(len(v) == 8 and all(type(x) is int for x in v) for v in rows)


def test_kept_candidates_come_back_as_the_gather_would_give_them(monkeypatch):
    # at 4 - 10^-7 the float slack admits the norm-4 candidates of Z3 and the
    # exact check drops them; fed only the kept rows, the search skips the gather
    lat, bound = standard_lattice("Z3"), 4 - Q(1, 10**7)
    seen = []
    kernel = lattice._half_space_candidates

    def record(*args):
        seen.append(kernel(*args))
        return seen[-1]

    monkeypatch.setattr(lattice, "_half_space_candidates", record)
    vecs, norms = lattice._short_vectors_with_norms(lat, bound)
    assert len(seen[0]) > len(vecs) == 13
    fed = vecs.copy()
    monkeypatch.setattr(lattice, "_half_space_candidates", lambda *args: fed)
    kept, kept_norms = lattice._short_vectors_with_norms(lat, bound)
    assert kept is fed
    assert kept.dtype == vecs.dtype and kept.tolist() == vecs.tolist()
    assert kept_norms.dtype == norms.dtype and kept_norms.tolist() == norms.tolist()


def test_int64_guard_rejects_large_bound_before_enumerating(monkeypatch):
    def never(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(lattice, "_half_space_candidates", never)
    with pytest.raises(OverflowError, match="enumeration bound"):
        short_vectors(standard_lattice("Z2"), 2**61)


def test_gram_beyond_int64_raises_before_enumerating():
    # the lattice builds; its integer Gram matrix does not fit int64
    lat = Lattice("wide", 2, ((Q(2**70), Q(0)), (Q(0), Q(2**70))))
    with pytest.raises(OverflowError):
        short_vectors(lat, 2**70)


def test_int64_guard_checks_candidate_coordinates():
    # Q(x) = (x0 + 2^16 x1)^2 + x1^2: both LDL pivots are 1, but x0 reaches
    # 2^17; the coordinate bound the guard derives from u_01 = 2^16 sees it
    k = 2**16
    lat = Lattice("skewed", 2, ((Q(1), Q(k)), (Q(k), Q(k * k + 1))))
    with pytest.raises(OverflowError, match="candidate coordinates"):
        short_vectors(lat, 4)


def test_int64_guard_bounds_skewed_coordinates_before_enumerating(monkeypatch):
    # X_1 = sqrt(4) + 1 = 3 and X_0 = sqrt(4) + 1 + 2^16 X_1 = 196611
    def never(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(lattice, "_half_space_candidates", never)
    k = 2**16
    lat = Lattice("skewed", 2, ((Q(1), Q(k)), (Q(k), Q(k * k + 1))))
    with pytest.raises(OverflowError, match="candidate coordinates up to 196611, too large"):
        short_vectors(lat, 4)


def test_float64_norms_exact_just_inside_the_2_53_guard():
    # Q(x) = g x^2 with g = 2^41 - 1: the guard admits |x| < sqrt(2^53 / g) - 1 ~ 63.00002,
    # and the norm g 63^2 sits within 3% of 2^53
    g = 2**41 - 1
    lat = Lattice("wide", 1, ((Q(g),),))
    vecs, norms = lattice._short_vectors_with_norms(lat, g * 63**2)
    assert sorted(abs(x) for x in vecs[:, 0].tolist()) == list(range(1, 64))
    assert norms.tolist() == [g * x * x for x in vecs[:, 0].tolist()]
    assert max(norms.tolist()) == g * 63**2


def test_float64_guard_rejects_the_next_coordinate_before_enumerating(monkeypatch):
    def never(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(lattice, "_half_space_candidates", never)
    g = 2**41 - 1
    with pytest.raises(OverflowError, match="enumeration bound"):
        short_vectors(Lattice("wide", 1, ((Q(g),),)), g * 64**2)


@pytest.mark.parametrize("r, itemsize", [(126, 1), (127, 2), (32766, 2), (32767, 4)])
def test_kernel_dtype_switch_matches_box_search(monkeypatch, r, itemsize):
    # the coordinate bound is r + 1, so the kernel needs a type holding -r - 2
    widths = []
    kernel = lattice._half_space_candidates

    def record(d, u, bound, dtype):
        widths.append(np.dtype(dtype).itemsize)
        return kernel(d, u, bound, dtype)

    monkeypatch.setattr(lattice, "_half_space_candidates", record)
    gram = ((Q(1),),)
    assert as_tuples(short_vectors(Lattice("Z1", 1, gram), r * r)) == brute_force_vectors(gram, Q(r * r))[0]
    assert widths == [itemsize]


@pytest.mark.parametrize("enabled", [True, False])
def test_short_vectors_leaves_the_collector_as_it_found_it(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert len(short_vectors(standard_lattice("E8"), 2)) == 240
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_table_report_enumerates_each_repeated_dimension_once(monkeypatch):
    calls = []
    invariants = lattice.lattice_invariants

    def count(lat):
        calls.append(lat.name)
        return invariants(lat)

    monkeypatch.setattr(lattice, "lattice_invariants", count)
    report = table_report(dims=(3, 1, 3, 1, 2))
    assert [r["n"] for r in report["rows"]] == [3, 1, 2]
    assert calls == ["A3", "A1", "A2"]
    assert report["all_match"]


def test_table_report_decides_mordell_exactly(monkeypatch):
    # E8 sits on equality, g_8^6 = g_7^8 = 2^48 (g = gamma^n); a nudge of g_8 that the
    # float hermite never sees must still violate the inequality
    invariants = lattice.lattice_invariants

    def nudge_e8(lat):
        inv = invariants(lat)
        if lat.name != "E8":
            return inv
        return dataclasses.replace(inv, hermite_pow_n=256 + Q(1, 10**20))

    monkeypatch.setattr(lattice, "lattice_invariants", nudge_e8)
    report = table_report((7, 8))
    assert [m["ok"] for m in report["mordell"]] == [False]
    assert report["mordell"][0]["n"] == 8
    assert report["all_match"] is False


@pytest.mark.parametrize(
    "rank, gram, message",
    [
        (2, ((1, 0),), "shape does not match rank"),
        (2, ((2, 1), (0, 2)), "must be symmetric"),
        (2, ((0, 1), (1, 0)), r"not positive definite \(pivot 0\)"),  # Bareiss would swap rows
        (2, ((1, 1), (1, 1)), r"not positive definite \(pivot 1\)"),  # singular PSD
        (3, ((2, 1, 0), (1, 2, 2), (0, 2, 1)), r"not positive definite \(pivot 2\)"),  # det -5
        (0, (), "rank must be >= 1"),
    ],
    ids=["shape", "asymmetric", "zero-lead", "singular", "third-pivot", "rank-0"],
)
def test_lattice_validation(rank, gram, message):
    with pytest.raises(ValueError, match=message):
        Lattice("bad", rank, gram)


def ldl_reference(gram):
    """The rational LDL completion Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2, step by step."""
    n = len(gram)
    q = [list(row) for row in gram]
    d, u = [], []
    for i in range(n):
        d.append(q[i][i])
        u.append([q[i][j] / d[i] for j in range(i + 1, n)])
        for j in range(i + 1, n):
            for k in range(j, n):
                q[j][k] -= q[i][j] * q[i][k] / d[i]
                q[k][j] = q[j][k]
    return d, u


def test_pivot_floats_and_covolume_match_rational_ldl(monkeypatch):
    # random B B^T with rational B, so the Gram entries are not integers
    seen = []

    def record(d, u, bound, dtype):
        seen.append((d, u))
        return np.zeros((0, len(d)), dtype=np.int64)

    monkeypatch.setattr(lattice, "_half_space_candidates", record)
    rng = random.Random(5)
    for n in [1, 2, 3, 4, 5, 6] * 10:
        b = [[Q(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        if polycore.det_exact(b) == 0:
            continue
        gram = tuple(tuple(sum(x * y for x, y in zip(bi, bj)) for bj in b) for bi in b)
        lat = Lattice("rational", n, gram)
        assert lat.covolume_sq == polycore.det_exact(gram)
        assert short_vectors(lat, 1).shape == (0, n)
        scale = math.lcm(*(x.denominator for row in gram for x in row))
        d, u = ldl_reference([[x * scale for x in row] for row in gram])
        got_d, got_u = seen.pop()
        assert got_d.tolist() == [float(x) for x in d]
        assert [row.tolist() for row in got_u] == [[float(x) for x in row] for row in u]


def test_elimination_runs_once_per_lattice(monkeypatch):
    lat = standard_lattice("E8")

    def eliminate(*args):
        raise AssertionError("exact elimination after construction")

    monkeypatch.setattr(polycore, "bareiss_steps", eliminate)
    monkeypatch.setattr(lattice, "bareiss_steps", eliminate)
    assert len(short_vectors(lat, 2)) == 240
    inv = lattice_invariants(lat)
    assert (inv.kissing, inv.covolume_sq, inv.lambda1_sq) == (240, 1, 2)
