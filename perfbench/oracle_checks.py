"""Tests of the benchmark's oracles on values known in closed form.

Run with ``python3 perfbench/oracle_checks.py`` or
``python3 -m pytest perfbench/oracle_checks.py``. The file is not named
``test_*.py`` so that the repository's own test run does not collect it.
"""

from __future__ import annotations

from fractions import Fraction

import oracles

HALF = Fraction(1, 2)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _product(scale, factors):
    """Monomial coefficients of scale * prod (t - root)^mult."""
    f = [Fraction(scale)]
    for root, mult in factors:
        for _ in range(mult):
            f = _poly_mul(f, [-Fraction(root), Fraction(1)])
    return f


def test_theta_series():
    assert oracles.theta_e8(8)[2::2] == [240, 2160, 6720, 17520]
    assert oracles.theta_e8(8)[1::2] == [0, 0, 0, 0]
    assert oracles.theta_zk(4, 5) == [1, 8, 24, 32, 24, 48]
    assert oracles.theta_zk(2, 5)[5] == 8
    assert oracles.theta_zk(8, 1)[1] == 16
    assert oracles.theta_d4(4) == [1, 0, 24, 0, 24]


def test_grid_lp_optimum():
    assert abs(oracles.grid_lp_optimum(8, HALF, 6, 2000) - 240) < 1e-3
    assert abs(oracles.grid_lp_optimum(5, Fraction(0), 6, 2000) - 10) < 1e-6
    assert abs(oracles.grid_lp_optimum(4, Fraction(-1, 4), 3, 2000) - 5) < 1e-6


def test_known_code_size():
    assert oracles.known_code_size(24, HALF) == 196560
    assert oracles.known_code_size(10, HALF) == 180
    assert oracles.known_code_size(7, Fraction(0)) == 14
    assert oracles.known_code_size(7, Fraction(-1, 7)) == 8
    assert oracles.known_code_size(7, Fraction(1, 3)) is None


def test_certificate_checker_on_the_kissing_certificates():
    checker = oracles.CertificateChecker()
    paper8 = _product(Fraction(320, 3), [(-1, 1), (-HALF, 2), (0, 2), (HALF, 1)])
    q = Fraction(1, 4)
    paper24 = _product(Fraction(1490944, 15), [(-1, 1), (-HALF, 2), (-q, 2), (0, 2), (q, 2), (HALF, 1)])
    assert checker.bound(8, HALF, paper8) == (240, [])
    assert checker.bound(24, HALF, paper24) == (196560, [])


def test_certificate_checker_rejects():
    checker = oracles.CertificateChecker()
    # (t+1)(t-1/2) <= 0 on [-1, 1/2], but c_0 = -1/6 in the Legendre basis.
    bound, problems = checker.bound(3, HALF, [Fraction(-1, 2), HALF, Fraction(1)])
    assert bound is None and problems == ["negative Gegenbauer coefficient at k=0", "c_0 is not positive"]
    # t^2 has nonnegative coefficients but is positive on [-1, 1/2].
    bound, problems = checker.bound(3, HALF, [Fraction(0), Fraction(0), Fraction(1)])
    assert bound is None and problems == ["f is positive somewhere on [-1, s]"]
    # 1/25 - t^2 is positive between its two roots, both inside [-1, 1/2].
    bump = _product(-1, [(Fraction(-1, 5), 1), (Fraction(1, 5), 1)])
    assert "f is positive somewhere on [-1, s]" in checker.bound(3, HALF, bump)[1]


def test_check_short_vectors():
    gram = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    theta = oracles.theta_zk(2, 2)
    vectors = [(a, b) for a in range(-1, 2) for b in range(-1, 2) if (a, b) != (0, 0)]
    assert oracles.check_short_vectors(gram, Fraction(2), vectors, theta) == []
    assert oracles.check_short_vectors(gram, Fraction(2), vectors[1:], theta)
    assert oracles.check_short_vectors(gram, Fraction(2), vectors + [vectors[0]], theta)
    assert oracles.check_short_vectors(gram, Fraction(1), vectors, oracles.theta_zk(2, 1))


def test_check_invariants():
    assert oracles.check_invariants("E8", Fraction(2), Fraction(1), 240, Fraction(256)) == []
    assert oracles.check_invariants("Z5", Fraction(1), Fraction(1), 10, Fraction(1)) == []
    assert oracles.check_invariants("D4", Fraction(2), Fraction(4), 20, Fraction(4))


def test_check_schur_identity():
    # det [[f(t u1 v1), f(t u1 v2)], [f(t u2 v1), f(t u2 v2)]] by hand, truncated at t^3.
    f = [Fraction(c) for c in (2, 3, 5, 7)]
    u, v = [Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)]

    def series(z):
        return [f[m] * z**m for m in range(4)]

    def mul(a, b):
        return _poly_mul(a, b)[:4]

    det = [x - y for x, y in zip(mul(series(u[0] * v[0]), series(u[1] * v[1])),
                                  mul(series(u[0] * v[1]), series(u[1] * v[0])))]
    assert det[0] == 0 and det[1] == (1 - 2) * (1 - 3) * 2 * 3
    assert oracles.check_schur_identity(f, u, v, det, det) == []
    wrong = det[:2] + [det[2] + 1] + det[3:]
    assert oracles.check_schur_identity(f, u, v, det, wrong)
    assert oracles.check_schur_identity(f, u, v, [Fraction(1)] + det[1:], [Fraction(1)] + det[1:])


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
