import os
import random
import re
import subprocess
import sys
from fractions import Fraction as Q
from itertools import permutations

import numpy as np
import pytest

import poscert
from oracle_formulas import sturm_sequence_by_fractions
from poscert.polycore import (
    Interval,
    Poly,
    certify_nonpositive,
    clear_denominators,
    det_exact,
    nonpositivity_witness,
    rat,
    rat_str,
    sturm_chain,
    _primitive,
    _sturm_record,
)


def rand_rat(rng, span=50):
    return Q(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, max_deg=6, span=9):
    return Poly([rand_rat(rng, span) for _ in range(rng.randint(0, max_deg + 1))])


def primitive(p):
    # the integer polynomial nonpositivity_witness hands to sturm_chain
    return _primitive(clear_denominators(p.coeffs)[0])


def test_rational_serialization():
    assert rat_str(Q(3, 7)) == "3/7"
    assert rat_str(Q(-3, 7)) == "-3/7"
    assert rat_str(Q(5)) == "5"
    assert rat("3/7") == Q(3, 7)
    assert rat("-4") == Q(-4)
    # normalization invariant: gcd-reduced, positive denominator
    q = Q(6, -8)
    assert q == Q(-3, 4) and q.denominator == 4
    assert rat(rat_str(q)) == q


@pytest.mark.parametrize("value", [float("nan"), float("-inf"), "nan", "Infinity"])
def test_rat_names_non_finite_input(value):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(value))} is not a finite number$"):
        rat(value)


@pytest.mark.parametrize("value, exact", [
    (0.1, Q(1, 10)), (1e-300, Q(1, 10**300)), (5e-324, Q(5, 10**324)),
    pytest.param(np.float64(0.1), Q(1, 10), id="np.float64-0.1"),  # its repr() is 'np.float64(0.1)' in numpy 2
    pytest.param(10**5000, Q(10**5000), id="int-5001-digits"),
])
def test_rat_reads_floats_as_printed_and_ints_exactly(value, exact):
    assert rat(value) == exact


def test_rat_refuses_exponents_at_the_int_to_string_limit():
    limit = sys.get_int_max_str_digits()
    assert rat(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert rat(f"-2.5E-{limit - 1} ") == Q(-25, 10**limit)
    # an exponent written with as many digits as the limit is refused whatever its value,
    # before int() refuses it without naming the input; _ is not a digit
    assert rat("1e" + "0" * (limit - 2) + "1") == 10
    if sys.version_info >= (3, 11):  # Fraction reads _ in an exponent from 3.11 on
        assert rat("1e" + "0_" * (limit - 2) + "1") == 10
    for s in (f"1e{limit}", f"1e-{limit}", f"3E+{limit}", "1e-999_999_999",
              "1e" + "0" * (limit - 1) + "1", "2E-" + "0" * limit, "1e" + "0_" * (limit - 1) + "1"):
        with pytest.raises(ValueError, match=f"^the exponent of {re.escape(repr(s))} reaches {limit} in magnitude"):
            rat(s)


def test_rat_refuses_digit_runs_at_the_int_to_string_limit():
    limit = sys.get_int_max_str_digits()
    ones = "1" * (limit - 1)
    assert rat(ones) == int(ones)
    assert rat(f"-{ones}.{ones}") == -(int(ones) + Q(int(ones), 10 ** (limit - 1)))
    assert rat(f"1/{ones}") == Q(1, int(ones))
    # the integer part, the decimal part and the denominator each reach int() alone
    for s in ("1" * limit, "0." + "1" * limit, "1/" + "7" * limit, "-1" + "1_" * limit + "1e5", "1" * 5000):
        with pytest.raises(ValueError, match=f"^a run of digits in {re.escape(repr(s))} reaches {limit} digits"):
            rat(s)


@pytest.mark.parametrize("call", [
    "delsarte.lp_bound(3, X, 4)",
    "delsarte.verify_certificate(3, X, Poly([-1]))",
    "Poly([1, X])",
    "lattice.Lattice('L', 1, ((X,),))",
    "lattice.short_vectors(lattice.standard_lattice('D4'), X)",
    "schurdet.det_series_direct([1, X], [1], [1], 2)",
])
def test_library_entry_points_refuse_runaway_exponents_at_once(call):
    # 10**9999999 has no bound on its cost: a child that hangs fails at the timeout
    code = ("from poscert import delsarte, lattice, schurdet; from poscert.polycore import Poly; "
            f"X = '1e-9999999'; {call}")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(poscert.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 1
    assert "ValueError: the exponent of '1e-9999999' reaches" in proc.stderr


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
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)


def test_poly_mul_examples():
    t = Poly([0, 1])
    one = Poly.constant(1)
    assert (t + one) * (t - one) == Poly([-1, 0, 1])
    assert rand_poly(random.Random(2)) * Poly() == Poly()


def test_poly_eval_examples():
    assert Poly([-1, 0, 1])(1) == 0
    from poscert.delsarte import known_certificate

    f = known_certificate("paper-8").poly
    assert f.degree == 6
    assert f.coeffs[-1] == Q(320, 3)
    assert f(Q(1, 2)) == 0
    assert f(1) == 240
    # the integer Horner over cleared denominators against the power sum, the zero polynomial included
    assert Poly()(Q(2, 3)) == 0 and Poly([Q(5, 7)])("1/3") == Q(5, 7)
    rng = random.Random(2)
    for _ in range(200):
        p, x = rand_poly(rng, max_deg=9), rand_rat(rng, 40)
        assert p(x) == sum(c * x**i for i, c in enumerate(p.coeffs))


def test_poly_pow_and_divmod():
    t = Poly([0, 1])
    p = (t + Poly.constant(1)) ** 3
    assert p == Poly([1, 3, 3, 1])


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


def _leibniz_det(mat):
    n = len(mat)
    total = Q(0)
    for perm in permutations(range(n)):
        term = Q(1)
        for i, j in enumerate(perm):
            term *= Q(mat[i][j])
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += -term if inversions % 2 else term
    return total


def test_det_exact_matches_leibniz():
    # int, Fraction and "p/q" entries, mixed within rows; singular matrices
    # (a repeated or combined row) and zero leading pivots that force swaps
    rng = random.Random(11)

    def entry(kind):
        if kind == "int":
            return rng.randint(-9, 9)
        q = rand_rat(rng, 9)
        return q if kind == "frac" else f"{q.numerator}/{q.denominator}"

    kinds = ("int", "frac", "str", "mixed")
    for case in range(210):
        n, kind = case % 7, kinds[case // 7 % 4]
        mat = [[entry(rng.choice(kinds[:3]) if kind == "mixed" else kind) for _ in range(n)]
               for _ in range(n)]
        if case % 5 == 1 and n >= 2:  # singular: a row repeats a multiple of another
            i, j = rng.sample(range(n), 2)
            mat[i] = [Q(3, 2) * Q(x) for x in mat[j]]
        if case % 5 == 2 and n >= 2:  # zero leading pivots
            for i in range(n - 1):
                mat[i][0] = 0
            mat[0][1] = 0
        want = _leibniz_det(mat)
        got = det_exact(mat)
        assert got == want and isinstance(got, Q), (mat, got, want)
        if case % 5 == 1 and n >= 2:
            assert got == 0


@pytest.mark.parametrize(
    "mat, shape",
    [
        ([[1, 2, 3], [4, 5, 6]], "2 rows of lengths [3, 3]"),
        ([[1, 2], [3, 4], [5, 6]], "3 rows of lengths [2, 2, 2]"),
        ([[1, 2], [3]], "2 rows of lengths [2, 1]"),
        ([[1], [2, 3]], "2 rows of lengths [1, 2]"),
        ([["1/2", 1, 0], [1, 2]], "2 rows of lengths [3, 2]"),
        ([[]], "1 rows of lengths [0]"),
    ],
)
def test_det_exact_rejects_non_square(mat, shape):
    with pytest.raises(ValueError, match=re.escape(f"matrix must be square, got {shape}")):
        det_exact(mat)


def test_squarefree_part():
    t = Poly([0, 1])
    p = (t - Poly.constant(1)) ** 3 * (t + Poly.constant(2))
    s = Poly(sturm_chain(primitive(p))[0])
    assert s.degree == 2
    assert s(1) == 0 and s(-2) == 0


def test_squarefree_part_and_root_counts_randomized():
    # products of (t - r_i)^{m_i} with known roots: the squarefree part has
    # exactly the r_i, each simple, and the chain counts them (also when an
    # endpoint is a multiple root)
    rng = random.Random(5)
    t = Poly([0, 1])
    for _ in range(60):
        roots = sorted({Q(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))})
        p = Poly.constant(rand_rat(rng, 9) or 1)
        for r in roots:
            p = p * (t - Poly.constant(r)) ** rng.randint(1, 3)
        chain = sturm_chain(primitive(p))
        s = Poly(chain[0])
        assert s.degree == len(roots)
        ds = Poly([i * c for i, c in enumerate(s.coeffs)][1:])
        assert all(s(r) == 0 and ds(r) != 0 for r in roots)
        marks = roots + [Q(rng.randint(-30, 30), 7) for _ in range(4)]
        for _ in range(10):
            a, b = sorted(rng.sample(marks, 2))
            (va, _), (vb, hb) = _sturm_record(chain, a), _sturm_record(chain, b)
            assert va - vb - (hb == 0) == sum(1 for r in roots if a < r < b)


def test_sturm_chain_matches_fraction_remainder_sequence():
    # repeated rational roots, and squared irreducible quadratics, make the
    # gcd g of p and p' nonconstant, so every member is divided by g; each
    # member must be a positive multiple of the plain Fraction sequence's
    rng = random.Random(13)
    t = Poly([0, 1])
    divided = 0
    for _ in range(200):
        p = Poly.constant(rand_rat(rng, 30) or 1)
        for _ in range(rng.randint(1, 4)):
            p = p * (t - Poly.constant(rand_rat(rng, 20))) ** rng.randint(1, 4)
        if rng.random() < 0.4:
            p = p * (t * t + Poly.constant(rng.randint(1, 9))) ** rng.randint(1, 2)
        chain, oracle = sturm_chain(primitive(p)), sturm_sequence_by_fractions(p)
        assert len(chain) == len(oracle), p
        for member, exact in zip(chain, oracle):
            assert len(member) == len(exact) and member[-1] * exact[-1] > 0, p
            assert [c * exact[-1] for c in member] == [c * member[-1] for c in exact], p
        divided += len(oracle[0]) < len(p.coeffs)
    assert divided > 100


def test_witness_matches_root_oracle():
    # p = c * prod (t - r_i)^{m_i} has only the roots r_i, so its sign on
    # [lo, hi] is read off with Poly.__call__ at the roots and at the
    # midpoints between them; the oracle needs no Sturm chain
    rng = random.Random(8)
    t = Poly([0, 1])

    def positive_points(p, roots, lo, hi):
        marks = sorted({lo, hi} | {r for r in roots if lo < r < hi})
        mids = [(u + v) / 2 for u, v in zip(marks, marks[1:])]
        return [x for x in marks + mids if p(x) > 0]

    certified = witnessed = 0
    for _ in range(300):
        roots = sorted({Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 4))})
        p = Poly.constant(rng.choice((-1, 1)) * Q(rng.randint(1, 9), rng.randint(1, 9)))
        for r in roots:
            p = p * (t - Poly.constant(r)) ** rng.randint(1, 4)
        ends = [rng.choice(roots) if roots and rng.random() < 0.6 else Q(rng.randint(-20, 20), 7)
                for _ in range(2)]
        lo, hi = min(ends), max(ends)
        ok, witness = nonpositivity_witness(p, Interval(lo, hi))
        assert ok == (not positive_points(p, roots, lo, hi)), (p, lo, hi)
        if ok:
            certified += 1
        else:
            witnessed += 1
            a, b = witness
            assert a == b and lo <= a <= hi and p(a) > 0, (p, lo, hi, witness)
    assert certified > 50 and witnessed > 50


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


def test_bisection_evaluates_each_chain_member_once_per_point(monkeypatch):
    # paper-24 touches zero inside [-1, 1/2], so the bisection splits around
    # its double roots; every midpoint is an end of two intervals and of
    # their children, yet the chain is evaluated there only once
    from poscert import polycore
    from poscert.delsarte import known_certificate

    f = known_certificate("paper-24").poly
    members = set(sturm_chain(primitive(f)))
    calls = []
    sign = polycore._sign
    monkeypatch.setattr(polycore, "_sign", lambda cs, x: calls.append((tuple(cs), x)) or sign(cs, x))
    assert nonpositivity_witness(f, Interval(Q(-1), Q(1, 2))) == (True, None)
    pairs = [c for c in calls if c[0] in members]
    assert len({x for _, x in pairs}) > 2
    assert len(pairs) == len(set(pairs))


def test_witness_clears_denominators_once(monkeypatch):
    # p is cleared to primitive integers once; the chain and every sign
    # after it run on those integers and their remainders
    from poscert import polycore
    from poscert.delsarte import known_certificate

    t = Poly([0, 1])
    touching = known_certificate("paper-24").poly
    positive_inside = -((t - Poly.constant(Q(1, 4))) * (t - Poly.constant(Q(1, 3))))
    calls = []
    clear = polycore.clear_denominators
    monkeypatch.setattr(polycore, "clear_denominators", lambda xs: calls.append(xs) or clear(xs))
    for f, ok in ((touching, True), (positive_inside, False)):
        calls.clear()
        assert nonpositivity_witness(f, Interval(Q(-1), Q(1, 2)))[0] is ok
        assert calls == [f.coeffs]


def test_certify_touching_roots():
    t = Poly([0, 1])
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
    t = Poly([0, 1])
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
    t = Poly([0, 1])
    r = Poly.constant(Q(1, 3))
    p = -((t - r) * (t - r - Poly.constant(Q(1, 2**1100))))
    ok, witness = nonpositivity_witness(p, Interval(Q(-1), Q(1)))
    assert not ok
    a, b = witness
    assert a == b and Q(1, 3) < a < Q(1, 3) + Q(1, 2**1100) and p(a) > 0


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


@pytest.mark.parametrize("x, expected", [
    (np.float32(0.5), Q(1, 2)), (np.float32(0.1), Q(1, 10)), (np.float16(0.1), Q(1, 10)), (np.float64(0.1), Q(1, 10)),
])
def test_rat_reads_every_numpy_float_as_the_decimal_it_prints(x, expected):
    assert rat(x) == expected


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Poly([1, 1]) ** -1, "negative polynomial power", id="poly-negative-power"),
    pytest.param(lambda: rat("1/2/3"), "Invalid literal for Fraction: '1/2/3'", id="rat-two-slashes"),
    pytest.param(lambda: rat(np.float32("nan")), f"{np.float32('nan')!r} is not a finite number",
                 id="rat-float32-nan"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
