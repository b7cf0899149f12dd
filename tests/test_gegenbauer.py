import importlib
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from poscert.gegenbauer import (
    dim_spherical_harmonics,
    expand_gegenbauer,
    gegenbauer,
    gegenbauer_gram_check,
    gegenbauer_values,
    gegenbauer_via_generating_series,
    inner_product_normalized,
    jacobi_normalization_factor,
    normalized_moment,
    to_gegenbauer_basis,
    to_jacobi_basis,
)
from poscert.polycore import Poly

# the package exports the function gegenbauer under the submodule's name
gegenbauer_module = importlib.import_module("poscert.gegenbauer")


def test_base_cases():
    for n in (2, 3, 8, 24):
        assert gegenbauer(n, 0) == Poly([1])
        assert gegenbauer(n, 1) == Poly([0, 1])


def test_request_order_does_not_change_polynomials(monkeypatch):
    # the table for a dimension grows with the highest degree requested;
    # every order of requests yields the same polynomials
    def build(n, ks):
        monkeypatch.setattr(gegenbauer_module, "_TABLES", {})
        return {k: gegenbauer(n, k) for k in ks}

    for n in (2, 3, 7, 24):
        ks = list(range(13))
        shuffled = ks[:]
        random.Random(n).shuffle(shuffled)
        ascending = build(n, ks)
        assert build(n, ks[::-1]) == ascending
        assert build(n, shuffled) == ascending


def test_expand_ignores_trailing_zero_coefficients(monkeypatch):
    # a degree-0 expansion written with 500 zero coefficients after it must
    # not build G_2..G_500; the table always starts as G_0, G_1
    monkeypatch.setattr(gegenbauer_module, "_TABLES", {})
    assert expand_gegenbauer(11, [1] + [0] * 500) == Poly([1])
    assert len(gegenbauer_module._TABLES[11]) == 2
    assert expand_gegenbauer(11, [0] * 3) == Poly()


def test_float_values_match_exact_polynomials():
    ts = np.linspace(-1.0, 1.0, 41)
    for n in (2, 3, 8, 24):
        vals = gegenbauer_values(n, 30, ts)
        for k in range(31):
            g = gegenbauer(n, k)
            # Q(t) is the exact value of the float t
            exact = [float(g(Q(t))) for t in ts]
            assert np.allclose(vals[k], exact, rtol=0, atol=1e-12)
        # |G_k| <= 1 on [-1, 1] holds in floats up to degree 200, where
        # monomial coefficients converted to floats cancel catastrophically
        high = gegenbauer_values(n, 200, np.linspace(-1.0, 1.0, 2001))
        assert np.abs(high).max() <= 1.0 + 1e-12


def test_float_values_follow_the_recurrence_bit_for_bit():
    # the row-by-row recurrence in its float operation order, one array per row
    def reference(n, kmax, ts):
        out = [np.ones_like(ts), ts]
        for k in range(2, kmax + 1):
            out.append(((2 * k + n - 4) * ts * out[k - 1] - (k - 1) * out[k - 2]) / (k + n - 3))
        return np.array(out[: kmax + 1])

    rng = np.random.default_rng(7)
    for ts in (np.linspace(-1.0, 0.5, 1001), rng.uniform(-1.0, 1.0, (7, 9))):
        for n, kmax in ((2, 0), (3, 1), (12, 11), (3, 40), (24, 16)):
            vals = gegenbauer_values(n, kmax, ts)
            assert vals.shape == (kmax + 1,) + ts.shape
            assert np.array_equal(vals, reference(n, kmax, ts))


def test_classical_families():
    # n=3 gives Legendre, n=2 Chebyshev (first kind)
    assert gegenbauer(3, 2) == Poly([Q(-1, 2), 0, Q(3, 2)])
    assert gegenbauer(2, 2) == Poly([-1, 0, 2])
    assert gegenbauer(2, 3) == Poly([0, -3, 0, 4])
    assert gegenbauer(4, 2) == Poly([Q(-1, 3), 0, Q(4, 3)])  # U_2 / U_2(1)


def test_normalization_and_parity():
    for n in (2, 3, 5, 11):
        for k in range(9):
            g = gegenbauer(n, k)
            assert g.degree == k
            assert g(1) == 1
            flipped = Poly([c * (-1) ** i for i, c in enumerate(g.coeffs)])
            assert flipped == (g if k % 2 == 0 else -g)


def test_dimension_rejection():
    with pytest.raises(ValueError):
        gegenbauer(1, 3)


def test_generating_series_cross_check():
    # n = 2 takes the recurrence through k + n - 3 = 0 at k = 1
    for n in (2, 3, 4, 7, 12, 24):
        series = gegenbauer_via_generating_series(n, 60)
        assert series[0] == Poly([1])
        for k in range(61):
            v = series[k](1)
            assert v != 0
            assert series[k] * Poly.constant(1 / v) == gegenbauer(n, k)


def test_generating_series_n2_and_n3_low_order():
    s2 = gegenbauer_via_generating_series(2, 1)
    assert s2[1] == Poly([0, 1])  # coefficient of r^1 is t
    s3 = gegenbauer_via_generating_series(3, 1)
    assert s3[1] == Poly([0, 1])  # Legendre C_1 = t


def test_to_basis_basis_element():
    c = to_gegenbauer_basis(5, gegenbauer(5, 3))
    assert c.coeffs == (0, 0, 0, 1)


def test_to_basis_round_trip_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 10)
        p = Poly([Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))])
        c = to_gegenbauer_basis(n, p)
        assert expand_gegenbauer(n, c.coeffs) == p


def test_to_basis_round_trip_dyadic_degree_200():
    # dense multiples of 2^-32, the coefficients lp_bound rounds to
    rng = random.Random(200)
    for n in (3, 24):
        c = [Q(1)] + [Q(rng.randint(-2**32, 2**32), 2**32) for _ in range(200)]
        assert list(to_gegenbauer_basis(n, expand_gegenbauer(n, c)).coeffs) == c


def test_classical_coefficient_tables():
    from poscert.delsarte import known_certificate

    j8 = to_jacobi_basis(to_gegenbauer_basis(8, known_certificate("paper-8").poly))
    assert list(j8.coeffs) == [
        Q(1), Q(16, 7), Q(200, 63), Q(832, 231), Q(1216, 429), Q(5120, 3003), Q(2560, 4641),
    ]
    j24 = to_jacobi_basis(to_gegenbauer_basis(24, known_certificate("paper-24").poly))
    assert list(j24.coeffs) == [
        Q(1), Q(48, 23), Q(1144, 425), Q(12992, 3825), Q(73888, 22185),
        Q(2169856, 687735), Q(59062016, 25365285), Q(4472832, 2753575),
        Q(23855104, 28956015), Q(7340032, 20376455), Q(7340032, 80848515),
    ]


def test_jacobi_normalization_factor():
    # the degree-0 element is 1 in both normalizations
    assert jacobi_normalization_factor(8, 0) == 1
    assert jacobi_normalization_factor(8, 1) == Q(7, 2)
    assert jacobi_normalization_factor(24, 1) == Q(23, 2)


def test_jacobi_normalization_factor_is_binomial():
    # binom(k + a, k) with a = (n-3)/2, term by term in Fractions
    for n in (2, 3, 4, 8, 24):
        a, binom = Q(n - 3, 2), Q(1)
        for k in range(41):
            assert jacobi_normalization_factor(n, k) == binom
            binom = binom * (a + k + 1) / (k + 1)


def test_spherical_harmonic_dimensions():
    for n in range(2, 10):
        assert dim_spherical_harmonics(n, 0) == 1
    for k in range(1, 8):
        assert dim_spherical_harmonics(2, k) == 2
    assert dim_spherical_harmonics(3, 2) == 5
    for n in range(3, 9):
        prev = 0
        for k in range(0, 10):
            cur = dim_spherical_harmonics(n, k)
            assert cur >= 1
            assert cur >= prev
            prev = cur


def test_moments():
    for n in (2, 3, 5, 9):
        assert normalized_moment(n, 0) == 1
        assert normalized_moment(n, 1) == 0
        assert normalized_moment(n, 7) == 0
    assert normalized_moment(3, 2) == Q(1, 3)
    assert normalized_moment(2, 2) == Q(1, 2)
    assert normalized_moment(3, 4) == Q(1, 5)  # int t^4 / int 1 on [-1,1]


def test_orthogonality_examples():
    for n in (2, 4, 7):
        assert inner_product_normalized(n, gegenbauer(n, 1), gegenbauer(n, 2)) == 0
        assert inner_product_normalized(n, gegenbauer(n, 0), gegenbauer(n, 0)) == 1
    assert inner_product_normalized(3, gegenbauer(3, 2), gegenbauer(3, 3)) == 0


def test_orthogonality_sampled():
    for n in (2, 5, 12):
        fam = [gegenbauer(n, k) for k in range(7)]
        for j in range(7):
            for k in range(7):
                ip = inner_product_normalized(n, fam[j], fam[k])
                if j != k:
                    assert ip == 0
                else:
                    assert ip > 0


def test_gram_check_standard_basis():
    for n in (3, 5, 8):
        pts = np.eye(n)
        for k in range(5):
            assert gegenbauer_gram_check(n, k, pts) >= -1e-9


def test_gram_check_k0_all_ones():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((6, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert abs(gegenbauer_gram_check(4, 0, pts)) < 1e-12


def test_gram_check_random_sphere():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((50, 8))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for k in range(1, 7):
        assert gegenbauer_gram_check(8, k, pts) >= -1e-9


def test_gram_check_rejects_non_unit():
    with pytest.raises(ValueError):
        gegenbauer_gram_check(3, 2, np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
