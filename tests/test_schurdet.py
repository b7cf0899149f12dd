import random
from fractions import Fraction as Q
from itertools import combinations, permutations

import pytest

from poscert import schurdet
from poscert.polycore import Poly
from poscert.schurdet import (
    TruncatedSeries,
    det_series_direct,
    det_series_formula,
    schur_eval,
    validate_strict_tuple,
    vandermonde,
)


def test_strict_tuple_validation():
    assert validate_strict_tuple((3, 1, 0)) == (3, 1, 0)
    assert validate_strict_tuple([4, 2.0, 0]) == (4, 2, 0)
    for bad in ((), (1, 1), (0, 1), (2, -1), (3, 1, 1), (5, 2, 3)):
        with pytest.raises(ValueError):
            validate_strict_tuple(bad)
        if bad:
            with pytest.raises(ValueError):
                schur_eval(bad, range(1, len(bad) + 1))


def test_schur_staircase_is_one():
    rng = random.Random(0)
    for n in (1, 2, 3, 4):
        stair = tuple(range(n - 1, -1, -1))
        xs = rng.sample(range(-9, 10), n)
        assert schur_eval(stair, xs) == 1


def test_schur_small_example():
    # exponents (2, 0) give the complete homogeneous h_1 = x1 + x2
    assert schur_eval((2, 0), [1, 2]) == 3
    assert schur_eval((2, 0), [Q(1, 2), 3]) == Q(7, 2)


def test_schur_repeated_entries_error():
    with pytest.raises(ValueError):
        schur_eval((2, 0), [1, 1])


def test_schur_is_symmetric_function():
    rng = random.Random(1)
    for _ in range(10):
        xs = rng.sample(range(-8, 9), 3)
        tpl = (5, 2, 0)
        base = schur_eval(tpl, xs)
        for p in permutations(xs):
            assert schur_eval(tpl, list(p)) == base


def test_direct_n1():
    s = det_series_direct([2, 3, 5], [Q(2)], [Q(3)], 4)
    assert s.coeffs == (2, 3 * 6, 5 * 36, 0, 0)


def test_direct_n2_hand_example():
    s = det_series_direct([1, 1], [1, 2], [1, 2], 7)
    assert s.coeffs == (0, 1, 0, 0, 0, 0, 0, 0)


def test_direct_proportional_rows_vanish():
    s = det_series_direct([1, 1, 1], [2, 2], [1, 3], 7)
    assert s == TruncatedSeries.make(7)
    assert vandermonde([2, 2]) == 0


def test_formula_matches_direct_hand_example():
    f = det_series_formula([1, 1], [1, 2], [1, 2], 7)
    assert f.coeffs == (0, 1, 0, 0, 0, 0, 0, 0)


def test_formula_f0_zero_shifts_lowest_weight():
    # with f_0 = 0 and N = 2 the lightest surviving tuple is (2, 1)
    s = det_series_formula([0, 1, 1, 1], [1, 2], [3, 4], 8)
    assert s.coeffs[0] == s.coeffs[1] == s.coeffs[2] == 0
    assert s.coeffs[3] != 0
    assert s == det_series_direct([0, 1, 1, 1], [1, 2], [3, 4], 8)


def test_cauchy_case_all_ones():
    # truncated geometric series: the classical Cauchy determinant case
    fc = [1] * 13
    a = det_series_direct(fc, [1, 2, 3], [1, -2, 4], 9)
    b = det_series_formula(fc, [1, 2, 3], [1, -2, 4], 9)
    assert a == b


def test_identity_randomized():
    rng = random.Random(2)
    for n in (1, 2, 3, 4):
        cut = n * (n - 1) // 2 + 6
        for _ in range(5):
            u = rng.sample(range(-7, 8), n)
            v = rng.sample(range(-7, 8), n)
            fc = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(9)]
            a = det_series_direct(fc, u, v, cut)
            b = det_series_formula(fc, u, v, cut)
            assert a == b
            assert all(c == 0 for c in a.coeffs[: n * (n - 1) // 2])


def test_swap_u_v_symmetry():
    rng = random.Random(3)
    for _ in range(5):
        u = rng.sample(range(-9, 10), 3)
        v = rng.sample(range(-9, 10), 3)
        fc = [rng.randint(-4, 4) for _ in range(8)]
        assert det_series_direct(fc, u, v, 9) == det_series_direct(fc, v, u, 9)
        assert det_series_formula(fc, u, v, 9) == det_series_formula(fc, v, u, 9)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        det_series_direct([1], [1, 2, 3], [1, 2, 3], 2)
    with pytest.raises(ValueError):
        det_series_formula([1], [1, 2, 3], [1, 2, 3], 2)
    with pytest.raises(ValueError):
        det_series_formula([1, 1], [1, 1], [1, 2], 7)


def _leibniz(fc, u, v, cutoff):
    # sum over permutations of sign * prod_i f(t u_i v_sigma(i)), as full
    # polynomials truncated once at the end: truncation is a ring map
    n = len(u)
    total = Poly()
    for perm in permutations(range(n)):
        term = Poly.constant(1)
        for i, j in enumerate(perm):
            term = term * Poly([c * (Q(u[i]) * Q(v[j])) ** m for m, c in enumerate(fc)])
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total = total - term if inversions % 2 else total + term
    return TruncatedSeries.make(cutoff, total.coeffs)


def test_direct_matches_leibniz_brute_force():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        cut = n * (n - 1) // 2 + 4
        for rational in (False, True):
            if rational:
                u = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                v = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                fc = [Q(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(8)]
            else:
                u = [rng.randint(-5, 5) for _ in range(n)]  # repeats allowed
                v = [rng.randint(-5, 5) for _ in range(n)]
                fc = [rng.randint(-3, 3) for _ in range(8)]
            assert det_series_direct(fc, u, v, cut) == _leibniz(fc, u, v, cut)


def test_identity_randomized_larger_n():
    # N = 5-9 over integers and over rationals, whose common denominator
    # the direct side clears before its integer determinant
    rng = random.Random(6)
    pool_u = sorted({Q(p, q) for p in range(-9, 10) for q in (1, 2, 3, 5)})
    pool_v = sorted({Q(p, q) for p in range(1, 19) for q in (1, 4, 7)})
    for n in range(5, 10):
        cut = n * (n - 1) // 2 + 6
        u = rng.sample(range(-8, 9), n)
        v = rng.sample(range(-8, 9), n)
        fc = [rng.randint(-4, 4) for _ in range(n + 3)]
        assert det_series_direct(fc, u, v, cut) == det_series_formula(fc, u, v, cut)
        u, v = rng.sample(pool_u, n), rng.sample(pool_v, n)
        fc = [Q(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n + 3)]
        a = det_series_direct(fc, u, v, cut)
        assert a == det_series_formula(fc, u, v, cut)
        assert any(c.denominator > 1 for c in a.coeffs)


def test_f0_zero_lowest_term_in_closed_form():
    # f_0 = 0: the lightest tuple is (N, ..., 1), whose Schur polynomial is
    # e_N = prod x_i, so the series starts at t^{N(N+1)/2} with the
    # coefficient V(u) V(v) prod u_i prod v_i prod_{j=1..N} f_j
    rng = random.Random(7)
    for n in (3, 4, 5, 6):
        cut = n * (n - 1) // 2 + 6
        u = rng.sample(range(-8, 9), n)
        v = rng.sample(range(-8, 9), n)
        fc = [0] + [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n + 2)]
        a = det_series_direct(fc, u, v, cut)
        assert a == det_series_formula(fc, u, v, cut)
        low = n * (n + 1) // 2
        lead = vandermonde(u) * vandermonde(v)
        for j in range(n):
            lead *= u[j] * v[j] * fc[j + 1]
        assert all(c == 0 for c in a.coeffs[:low])
        assert a.coeffs[low] == lead


def test_n_beyond_support_of_f_vanishes():
    # f[t u v^T] = sum_m f_m t^m (u^m)(v^m)^T has rank at most |supp f|
    fc = [2, 0, -1, 0, 0, 3]
    for n in (4, 5, 6):
        u, v = list(range(1, n + 1)), list(range(-n, 0))
        cutoff = n * (n - 1) // 2 + 6
        assert det_series_direct(fc, u, v, cutoff) == TruncatedSeries.make(cutoff)
    assert det_series_direct(fc, [1, 2, 3], [-3, -2, -1], 9) != TruncatedSeries.make(9)


def _formula_by_combinations(fc, u, v, cutoff):
    # the expansion as written: every N-subset of supp f, kept when light,
    # s_n(u) s_n(v) prod f_{n_j} summed per weight, then times V(u) V(v)
    fs = [Q(c) for c in fc]
    support = [m for m in range(min(len(fs), cutoff + 1)) if fs[m] != 0]
    out = [Q(0)] * (cutoff + 1)
    for combo in combinations(support, len(u)):
        if sum(combo) <= cutoff:
            tpl = combo[::-1]
            term = schur_eval(tpl, u) * schur_eval(tpl, v)
            for e in tpl:
                term *= fs[e]
            out[sum(combo)] += term
    vuv = vandermonde(u) * vandermonde(v)
    return TruncatedSeries.make(cutoff, [vuv * c for c in out])


def test_formula_matches_combination_reference():
    rng = random.Random(8)
    pool_u = sorted({Q(p, q) for p in range(-9, 10) for q in (1, 2, 3, 7)})
    pool_v = sorted({Q(p, q) for p in range(-9, 10) for q in (1, 4, 5)})
    for n in range(1, 8):
        for extra in range(0, 11):
            cut = n * (n - 1) // 2 + extra
            u, v = rng.sample(pool_u, n), rng.sample(pool_v, n)
            fc = [rng.choice((0, Q(rng.randint(-5, 5), rng.randint(1, 6))))
                  for _ in range(min(cut + 2, n + 7))]
            got = det_series_formula(fc, u, v, cut)
            assert got == _formula_by_combinations(fc, u, v, cut), (n, cut)
            if n <= 4:
                assert got == det_series_direct(fc, u, v, cut)


def _light_subset_count(exponents, n, cutoff):
    # count[k][w]: k-subsets of the exponents seen so far with weight w
    count = [[0] * (cutoff + 1) for _ in range(n + 1)]
    count[0][0] = 1
    for e in exponents:
        for k in range(n, 0, -1):
            for w in range(cutoff, e - 1, -1):
                count[k][w] += count[k - 1][w - e]
    return sum(count[n])


def test_formula_takes_two_determinants_per_light_tuple(monkeypatch):
    # N = 12 with a dense degree-24 f, as `schur verify --N 12 --degree 24`:
    # only the tuples of weight <= cutoff cost determinants
    calls, det_exact = [], schurdet.det_exact

    def counting(mat):
        calls.append(len(mat))
        return det_exact(mat)

    monkeypatch.setattr(schurdet, "det_exact", counting)
    rng = random.Random(12)
    n, cut = 12, 12 * 11 // 2 + 6
    u, v = rng.sample(range(-8, 9), n), rng.sample(range(-8, 9), n)
    fc = [rng.choice((-2, -1, 1, 2)) for _ in range(25)]
    det_series_formula(fc, u, v, cut)
    light = _light_subset_count(range(25), n, cut)
    assert light == 1 + 1 + 2 + 3 + 5 + 7 + 11  # partitions of 0..6, the weight above C(12, 2)
    assert calls == [n] * (2 * light)
    calls.clear()
    fc[3] = fc[10] = 0
    det_series_formula(fc, u, v, cut)
    assert len(calls) == 2 * _light_subset_count([m for m in range(25) if fc[m]], n, cut)
