import random
from fractions import Fraction as Q

import pytest

from poscert.polycore import (
    Interval,
    Poly,
    certify_nonpositive,
    count_roots_open,
    det_exact,
    nonpositivity_witness,
    parse_rat,
    poly_divmod,
    poly_eval,
    poly_mul,
    rat_str,
    sturm_chain,
)


def rand_rat(rng, span=50):
    return Q(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, max_deg=6, span=9):
    return Poly([rand_rat(rng, span) for _ in range(rng.randint(0, max_deg + 1))])


def test_rational_serialization():
    assert rat_str(Q(3, 7)) == "3/7"
    assert rat_str(Q(-3, 7)) == "-3/7"
    assert rat_str(Q(5)) == "5"
    assert parse_rat("3/7") == Q(3, 7)
    assert parse_rat("-4") == Q(-4)
    # normalization invariant: gcd-reduced, positive denominator
    q = Q(6, -8)
    assert q == Q(-3, 4) and q.denominator == 4
    assert parse_rat(rat_str(q)) == q


def test_rational_field_axioms():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rand_rat(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        s = a + b
        assert s.denominator >= 1
        from math import gcd

        assert gcd(abs(s.numerator), s.denominator) == 1


def test_poly_degree_and_normalization():
    assert Poly().degree is None
    assert Poly([0, 0, 0]).degree is None
    assert Poly([Q(1), Q(0)]).coeffs == (Q(1),)
    assert Poly([1, 2, 3]).degree == 2


def test_degree_additivity_and_eval_homomorphism():
    rng = random.Random(1)
    for _ in range(100):
        p, q = rand_poly(rng), rand_poly(rng)
        if not p.is_zero and not q.is_zero:
            assert (p * q).degree == p.degree + q.degree
        x = rand_rat(rng)
        assert poly_eval(p * q, x) == poly_eval(p, x) * poly_eval(q, x)
        assert poly_eval(p + q, x) == poly_eval(p, x) + poly_eval(q, x)


def test_poly_mul_examples():
    t = Poly.identity()
    one = Poly.constant(1)
    assert (t + one) * (t - one) == Poly([-1, 0, 1])
    assert poly_mul(rand_poly(random.Random(2)), Poly()) == Poly()


def test_poly_eval_examples():
    assert poly_eval(Poly([-1, 0, 1]), 1) == 0
    from poscert.delsarte import known_certificate

    f = known_certificate("paper-8").poly
    assert f.degree == 6
    assert f.leading() == Q(320, 3)
    assert poly_eval(f, Q(1, 2)) == 0
    assert poly_eval(f, 1) == 240


def test_poly_pow_and_divmod():
    t = Poly.identity()
    p = (t + Poly.constant(1)) ** 3
    assert p == Poly([1, 3, 3, 1])
    q, r = poly_divmod(p, t + Poly.constant(1))
    assert r.is_zero and q == Poly([1, 2, 1])


def test_det_exact():
    assert det_exact([]) == 1
    assert det_exact([[0, 1], [1, 0]]) == -1  # pivot swap
    assert det_exact([["1/2", 1], [1, 2]]) == 0
    assert det_exact([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4  # A3 Cartan
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = [[rand_rat(rng, 9) for _ in range(n)] for _ in range(n)]
        b = [[rand_rat(rng, 9) for _ in range(n)] for _ in range(n)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert det_exact(ab) == det_exact(a) * det_exact(b)


def test_squarefree_part():
    t = Poly.identity()
    p = (t - Poly.constant(1)) ** 3 * (t + Poly.constant(2))
    s = sturm_chain(p)[0]
    assert s.degree == 2
    assert s(1) == 0 and s(-2) == 0


def test_squarefree_part_and_root_counts_randomized():
    # products of (t - r_i)^{m_i} with known roots: the squarefree part has
    # exactly the r_i, each simple, and the chain counts them (also when an
    # endpoint is a multiple root)
    rng = random.Random(5)
    t = Poly.identity()
    for _ in range(60):
        roots = sorted({Q(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))})
        p = Poly.constant(rand_rat(rng, 9) or 1)
        for r in roots:
            p = p * (t - Poly.constant(r)) ** rng.randint(1, 3)
        chain = sturm_chain(p)
        s = chain[0]
        assert s.degree == len(roots)
        ds = s.derivative()
        assert all(s(r) == 0 and ds(r) != 0 for r in roots)
        marks = roots + [Q(rng.randint(-30, 30), 7) for _ in range(4)]
        for _ in range(10):
            a, b = sorted(rng.sample(marks, 2))
            assert count_roots_open(chain, a, b) == sum(1 for r in roots if a < r < b)


def test_certify_examples():
    assert certify_nonpositive(Poly([0, 0, -1]), Interval(Q(-1), Q(1)))
    assert not certify_nonpositive(Poly([0, 1]), Interval(Q(-1), Q(1, 2)))
    assert not certify_nonpositive(Poly([1]), Interval(Q(-1), Q(1, 2)))
    assert certify_nonpositive(Poly(), Interval(Q(0), Q(1)))
    # degenerate interval: endpoint sign decides
    assert certify_nonpositive(Poly([1, 1]), Interval(Q(-1), Q(-1)))
    assert not certify_nonpositive(Poly([1, 1]), Interval(Q(0), Q(0)))


def test_certify_known_certificates():
    from poscert.delsarte import known_certificate

    for name in ("paper-8", "paper-24"):
        f = known_certificate(name).poly
        assert certify_nonpositive(f, Interval(Q(-1), Q(1, 2)))
        assert not certify_nonpositive(f, Interval(Q(-1), Q(3, 4)))


def test_certify_touching_roots():
    t = Poly.identity()
    # -(t - 1/2)^2 touches zero inside the interval
    p = -((t - Poly.constant(Q(1, 2))) ** 2)
    assert certify_nonpositive(p, Interval(Q(-1), Q(1)))
    # and its negation fails with a witness
    ok, witness = nonpositivity_witness(-p, Interval(Q(-1), Q(1)))
    assert not ok and witness is not None
    a, b = witness
    assert Q(-1) <= a <= b <= Q(1)


def test_certify_double_root_at_first_midpoint():
    # the first bisection midpoint of [-1, 1/2] is -1/4, a double root of p
    t = Poly.identity()
    sq = (t + Poly.constant(Q(1, 4))) ** 2
    iv = Interval(Q(-1), Q(1, 2))
    assert certify_nonpositive(-(sq * (t - Poly.constant(Q(1, 4))) ** 2), iv)
    # positive on (1/4, 1/3) only
    p = -(sq * (t - Poly.constant(Q(1, 4))) * (t - Poly.constant(Q(1, 3))))
    ok, witness = nonpositivity_witness(p, iv)
    assert not ok
    a, b = witness
    assert Q(-1) <= a < Q(1, 3) and Q(1, 4) < b <= Q(1, 2)


def test_certify_roots_closer_than_python_frame_limit():
    # positive only between 1/3 and 1/3 + 2^-1100: separating the roots
    # takes about 1,100 bisection levels
    t = Poly.identity()
    r = Poly.constant(Q(1, 3))
    p = -((t - r) * (t - r - Poly.constant(Q(1, 2**1100))))
    ok, witness = nonpositivity_witness(p, Interval(Q(-1), Q(1)))
    assert not ok
    a, b = witness
    assert Q(-1) <= a < b <= Q(1) and p((a + b) / 2) > 0


def test_certify_soundness_spot_check():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_poly(rng, max_deg=5, span=4)
        iv = Interval(Q(-2), Q(2))
        if certify_nonpositive(p, iv):
            for _ in range(40):
                x = Q(rng.randint(-200, 200), 100)
                assert p(x) <= 0
    # a certified certificate polynomial stays <= 0 at 1000 random rationals
    from poscert.delsarte import known_certificate

    f = known_certificate("paper-8").poly
    assert certify_nonpositive(f, Interval(Q(-1), Q(1, 2)))
    for _ in range(1000):
        x = Q(rng.randint(-1000, 500), 1000)
        assert f(x) <= 0


def test_certify_completeness_on_negated_squares():
    rng = random.Random(4)
    for _ in range(50):
        p = rand_poly(rng, max_deg=4, span=5)
        assert certify_nonpositive(-(p * p), Interval(Q(-3), Q(2)))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(Q(1), Q(0))


def test_certify_fuzz_against_dense_sampling():
    # whenever certification succeeds, a fine grid never sees a positive value
    rng = random.Random(99)
    certified = 0
    for _ in range(200):
        p = rand_poly(rng, max_deg=6, span=3)
        lo = Q(rng.randint(-20, 19), 10)
        hi = lo + Q(rng.randint(1, 20), 10)
        if certify_nonpositive(p, Interval(lo, hi)):
            certified += 1
            for i in range(201):
                x = lo + (hi - lo) * Q(i, 200)
                assert p(x) <= 0, (p, lo, hi, x)
    assert certified > 10  # the fuzz actually exercised the True branch
