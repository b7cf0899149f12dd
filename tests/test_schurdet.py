import math
import random
from fractions import Fraction as Q
from itertools import combinations, permutations

import pytest
from oracle_formulas import _det_berkowitz, det_series_full_berkowitz

from poscert import schurdet
from poscert.polycore import Poly
from poscert.schurdet import (
    TruncatedSeries,
    det_series_direct,
    det_series_formula,
    schur_eval,
)


def test_strict_tuple_validation():
    xs = [Q(1, 2), -3, 5]
    assert schur_eval([4, 2.0, "0"], xs) == schur_eval((4, 2, 0), xs) != 0
    # a non-integer exponent is refused, not truncated to the value at (2, 0)
    for bad in ((), (1, 1), (0, 1), (2, -1), (3, 1, 1), (5, 2, 3), (2.5, 0), ("5/2", 0)):
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
    # a repeat in u: both sides take it, and the series is 0
    f = det_series_formula([1, 1], [1, 1], [1, 2], 7)
    assert f == det_series_direct([1, 1], [1, 1], [1, 2], 7) == TruncatedSeries.make(7)


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
            want = _leibniz(fc, u, v, cut)
            assert det_series_direct(fc, u, v, cut) == want == det_series_formula(fc, u, v, cut)


def test_direct_matches_full_length_berkowitz():
    # N = 0-9 at cutoffs C(N, 2) to C(N, 2) + 10 (each one up to N = 6, every
    # fifth above, where the oracle is slow). Case k takes integer or rational
    # entries by k % 2; u and v distinct, with a zero, with a repeat in u (the
    # series is 0) or both by k // 2 % 4; f with f_0 = 0, with gaps or dense
    # by k % 3; and empty f every time
    rng = random.Random(15)
    ints, rats = list(range(-8, 9)), sorted({Q(p, q) for p in range(-9, 10) for q in (1, 2, 3, 5)})
    k = nonzero = 0
    for n in range(10):
        low = n * (n - 1) // 2
        for extra in range(0, 11, 1 if n <= 6 else 5):
            cut, pool = low + extra, rats if k % 2 else ints
            u, v = rng.sample(pool, n), rng.sample(pool, n)
            if n and k // 2 % 4 in (1, 3):
                u[-1] = v[0] = 0
            if n > 1 and k // 2 % 4 in (2, 3):
                u[0] = u[1]
            fc = [rng.choice([c for c in pool if c]) for _ in range(rng.randint(n + 2, cut + 3))]
            if k % 3 == 0:
                fc[0] = 0
            elif k % 3 == 1:
                fc = [c if rng.randrange(3) else 0 for c in fc]
            got = det_series_direct(fc, u, v, cut)
            assert got == det_series_full_berkowitz(fc, u, v, cut), (n, cut, k)
            assert det_series_direct([], u, v, cut) == det_series_full_berkowitz([], u, v, cut)
            nonzero += any(got.coeffs)
            k += 1
    assert k == 86 and nonzero >= 30


def test_direct_eliminates_series_cut_above_binom(monkeypatch):
    # det_series_direct takes t^C(N, 2) out of the determinant, so its one
    # elimination runs in Z[t]/(t^K), K = cutoff - C(N, 2) + 1, on entries of
    # K coefficients; entries carried to the full cutoff fail here
    seen, det_series = [], schurdet._det_series

    def recording(a, k):
        seen.append((k, {len(x) for row in a for x in row}))
        return det_series(a, k)

    monkeypatch.setattr(schurdet, "_det_series", recording)
    rng = random.Random(16)
    for n, extra in ((1, 0), (2, 10), (5, 3), (12, 6)):
        u, v = rng.sample(range(-8, 9), n), rng.sample(range(-8, 9), n)
        fc = [rng.randint(-4, 4) for _ in range(25)]
        cut = n * (n - 1) // 2 + extra
        seen.clear()
        assert det_series_direct(fc, u, v, cut) == det_series_formula(fc, u, v, cut)
        assert seen == [(extra + 1, {extra + 1})]


def test_series_det_without_unit_pivot_matches_berkowitz():
    # Entries t^w x with w drawn per row, column or entry, so that often no
    # remaining entry has a nonzero constant term and rows are divided by t;
    # t I of size N has det t^N, which is 0 once the precision K is at most N
    rng = random.Random(17)
    for k in range(1, 6):
        for n in range(1, 6):
            eye = [[[0, 1] if i == j else [] for j in range(n)] for i in range(n)]
            assert schurdet._det_series(eye, k) == [int(m == n) for m in range(k)]
    for case in range(300):
        n, k = rng.randint(1, 5), rng.randint(1, 6)
        shape = case % 3
        wr, wc = [rng.randint(0, 2) for _ in range(n)], [rng.randint(0, 2) for _ in range(n)]
        a = []
        for i in range(n):
            row = []
            for j in range(n):
                w = wr[i] if shape == 0 else wc[j] if shape == 1 else rng.choice((0, 1, 1, 2, 3))
                row.append([0] * w + [rng.choice((-2, -1, 0, 1, 3)) for _ in range(rng.randint(0, k))])
            a.append(row)
        got = schurdet._det_series(a, k)
        assert len(got) == k and got == (_det_berkowitz(a, k - 1) + [0] * k)[:k], (case, a, k)


def test_direct_without_unit_pivot_matches_oracles():
    # f_0 = ... = f_m = 0, a repeat in u, a 0 in v: cases where the reduced
    # matrix runs out of entries with a nonzero constant term; with f_0 = f_1
    # = 0 and cutoff C(N, 2) + 1 every coefficient below t^C(N + 1, 2) vanishes
    rng = random.Random(18)
    for case in range(40):
        n = 1 + case % 4
        cut = n * (n - 1) // 2 + rng.randint(0, 5)
        u, v = rng.sample(range(-6, 7), n), rng.sample(range(-6, 7), n)
        fc = [rng.choice((-3, -1, 1, 2)) for _ in range(cut + 2)]
        fc[: case % 3 + 1] = [0] * (case % 3 + 1)
        if n > 1 and case % 2:
            u[1] = u[0]
        if case % 4 < 2:
            v[-1] = 0
        got = det_series_direct(fc, u, v, cut)
        assert got == _leibniz(fc, u, v, cut) == det_series_full_berkowitz(fc, u, v, cut), case
    for n in (2, 3, 4):
        u, v = rng.sample(range(1, 9), n), rng.sample(range(1, 9), n)
        cut = n * (n - 1) // 2 + 1
        fc = [0, 0] + [rng.choice((-3, -1, 1, 2)) for _ in range(cut)]
        assert det_series_direct(fc, u, v, cut) == TruncatedSeries.make(cut) == _leibniz(fc, u, v, cut)


def test_identity_at_the_cli_size_limit():
    # the fourth trial of `schur verify --N 17 --degree 24 --seed 1`: u and v
    # are all of -8..8 in some order, so each has a 0, the series is nonzero,
    # and the elimination twice finds no entry with a nonzero constant term
    rng, cut = random.Random(1), 17 * 16 // 2 + 6
    for _ in range(4):
        u, v = rng.sample(range(-8, 9), 17), rng.sample(range(-8, 9), 17)
        fc = [rng.randint(-4, 4) for _ in range(25)]
    a = det_series_direct(fc, u, v, cut)
    assert a == det_series_formula(fc, u, v, cut) and any(a.coeffs)


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
        lead = math.prod(x[i] - x[j] for x in (u, v) for i, j in combinations(range(n), 2))
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
    vuv = math.prod(x[i] - x[j] for x in (u, v) for i, j in combinations(range(len(u)), 2))
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


def _light_tuples(exponents, n, cutoff):
    # the n-subsets of weight <= cutoff; an exponent above cutoff - C(n-1, 2)
    # is in none, since the other n - 1 weigh at least 0 + 1 + ... + (n - 2)
    usable = [e for e in exponents if e <= cutoff - (n - 1) * (n - 2) // 2]
    return [c for c in combinations(usable, n) if sum(c) <= cutoff]


def test_formula_takes_one_step_per_side_per_light_prefix(monkeypatch):
    # N = 12 with a dense degree-24 f, as `schur verify --N 12 --degree 24`:
    # only the proper prefixes of the tuples of weight <= cutoff cost
    # elimination steps, one per side, and no tuple costs a determinant
    calls, bareiss_step = [], schurdet.bareiss_step

    def counting(rows, col, prev):
        calls.append(len(rows))
        return bareiss_step(rows, col, prev)

    def no_determinant(mat):
        raise AssertionError("a determinant per tuple")

    monkeypatch.setattr(schurdet, "bareiss_step", counting)
    rng = random.Random(12)
    n, cut = 12, 12 * 11 // 2 + 6
    fc = [rng.choice((-2, -1, 1, 2)) for _ in range(25)]
    light = _light_subset_count(range(25), n, cut)
    assert light == 1 + 1 + 2 + 3 + 5 + 7 + 11  # partitions of 0..6, the weight above C(12, 2)
    assert len(_light_tuples(range(25), n, cut)) == light
    # positive distinct u and v: every minor of (x_i^e) is nonzero, so no
    # prefix is skipped and each takes exactly one step per side. Without f_11
    # the light tuples number 13; without f_3 and f_10 there is none, since
    # the lightest tuple left, 0-2, 4-9 and 11-13, weighs 78 > 72
    u, v = rng.sample(range(1, 17), n), rng.sample(range(1, 17), n)
    for zeros, count in (((), light), ((11,), 13), ((3, 10), 0)):
        fz = [0 if m in zeros else c for m, c in enumerate(fc)]
        support = [m for m in range(25) if fz[m]]
        assert len(_light_tuples(support, n, cut)) == _light_subset_count(support, n, cut) == count
        prefixes = {t[:k] for t in _light_tuples(support, n, cut) for k in range(1, n)}
        want = _formula_by_combinations(fz, u, v, cut)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(schurdet, "det_exact", no_determinant)
            assert det_series_formula(fz, u, v, cut) == want
        assert sorted(calls) == sorted(n - len(p) + 1 for p in prefixes for _ in "uv")
    # signed entries, as `schur verify` draws them: at most one step per side and prefix
    prefixes = {t[:k] for t in _light_tuples(range(25), n, cut) for k in range(1, n)}
    u, v = rng.sample(range(-8, 9), n), rng.sample(range(-8, 9), n)
    calls.clear()
    det_series_formula(fc, u, v, cut)
    assert 0 < len(calls) <= 2 * len(prefixes)


def test_formula_and_direct_at_n0_and_n1():
    # N = 0: the empty determinant, the series 1, whatever f and the cutoff
    for fc in ([], [0, 2], [Q(3, 7), -1, 5]):
        for cut in (0, 1, 4):
            one = TruncatedSeries.make(cut, [1])
            assert det_series_direct(fc, [], [], cut) == one
            assert det_series_formula(fc, [], [], cut) == one
    # N = 1: det f(t u v) = sum_e f_e (u v)^e t^e, cut at the cutoff
    rng = random.Random(13)
    for _ in range(20):
        fc = [rng.choice((0, Q(rng.randint(-5, 5), rng.randint(1, 6)))) for _ in range(rng.randint(0, 8))]
        u, v = Q(rng.randint(-9, 9), rng.randint(1, 5)), Q(rng.randint(-9, 9), rng.randint(1, 5))
        cut = rng.randint(0, 9)
        want = TruncatedSeries.make(cut, [c * (u * v) ** e for e, c in enumerate(fc)])
        assert det_series_direct(fc, [u], [v], cut) == want
        assert det_series_formula(fc, [u], [v], cut) == want


def test_formula_skips_a_prefix_whose_lead_column_vanishes(monkeypatch):
    # on u = (1, -1, 2, -2, 3) an even power depends only on x^2, which takes
    # 3 values, so the columns of x^0, x^2, x^4 and x^6 have rank 3: after the
    # prefix (0, 2, 4) the column of 6 is zero in both rows left (-1 and -2),
    # and no tuple through (0, 2, 4, 6) is computed
    zero_columns, bareiss_step = [], schurdet.bareiss_step

    def recording(rows, col, prev):
        step = bareiss_step(rows, col, prev)
        if step is None:
            zero_columns.append(len(rows))
        return step

    monkeypatch.setattr(schurdet, "bareiss_step", recording)
    rng = random.Random(14)
    u = [1, -1, 2, -2, 3]
    for v in (u, [Q(1, 2), 3, -2, 5, Q(-7, 3)]):
        cut = 10 + 14
        fc = [Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(cut + 1)]
        zero_columns.clear()
        got = det_series_formula(fc, u, v, cut)
        assert 2 in zero_columns
        assert got == _formula_by_combinations(fc, u, v, cut)
        assert got == det_series_direct(fc, u, v, cut)
        assert any(got.coeffs)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: schur_eval((1, 0), [1, 2, 3]), "tuple length must match the number of variables",
                 id="schur-eval-lengths"),
    pytest.param(lambda: det_series_direct([1, 1, 1], [1, 2], [1], 2), "u and v must have equal length",
                 id="direct-lengths"),
    pytest.param(lambda: det_series_formula([1, 1, 1], [1], [1, 2], 2), "u and v must have equal length",
                 id="formula-lengths"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
