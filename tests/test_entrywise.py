import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from poscert import entrywise
from poscert.entrywise import (
    DiameterError,
    DistanceMatrix,
    SymMatrix,
    _iroot,
    euclidean_embed,
    modified_cayley_menger,
    power_preserver_witness,
    psd_check,
    sphere_embed,
    vasudeva_2x2_check,
)
from random_matrices import random_psd


def test_psd_identity():
    rep = psd_check(SymMatrix.from_rows(np.eye(3)))
    assert rep.is_psd and rep.rank == 3 and rep.inertia == (0, 0, 3)


def test_psd_indefinite():
    rep = psd_check(SymMatrix.from_rows([[1, 2], [2, 1]]))
    assert not rep.is_psd
    assert rep.min_eigenvalue == pytest.approx(-1.0)
    assert rep.inertia == (1, 0, 1)


def test_psd_rank_deficient():
    rep = psd_check(SymMatrix.from_rows([[1, -0.5, -0.5], [-0.5, 1, -0.5], [-0.5, -0.5, 1]]))
    assert rep.is_psd and rep.rank == 2
    assert sum(rep.inertia) == 3


def test_psd_rejects_non_finite():
    with pytest.raises(ValueError):
        psd_check(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_psd_reads_an_array_as_a_sym_matrix():
    # the upper triangle is authoritative in both forms; the lower one would make this psd
    a = np.array([[1.0, 5.0], [0.0, 1.0]])
    assert psd_check(a) == psd_check(SymMatrix(2, a))
    assert not psd_check(a).is_psd


def test_psd_quadratic_form_characterization():
    # eigenvalue criterion and quadratic-form nonnegativity agree
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = SymMatrix(n, rng.standard_normal((n, n)))
        rep = psd_check(a)
        if rep.is_psd:
            for _ in range(20):
                x = rng.standard_normal(n)
                assert x @ a.entries @ x >= -1e-9 * (x @ x)
        else:
            vals, vecs = np.linalg.eigh(a.entries)
            x = vecs[:, 0]
            assert x @ a.entries @ x < 0


def test_gram_matrix_rank_matches_span():
    # Gram matrices of vectors drawn from R^r have rank min(n, r) generically
    rng = np.random.default_rng(7)
    for _ in range(30):
        n, r = int(rng.integers(2, 9)), int(rng.integers(1, 9))
        g = random_psd(n, rng, rank=r)
        rep = psd_check(g)
        assert rep.is_psd
        assert rep.rank == min(n, r)


def test_symmetry_validation():
    with pytest.raises(ValueError):
        SymMatrix.from_rows([[1, 2], [2.1, 1]])
    m = SymMatrix.from_rows([[1, 2], [2, 1]])
    assert np.array_equal(m.entries, m.entries.T)


def test_schur_closure_trials():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        a, b = random_psd(n, rng), random_psd(n, rng)
        rep = psd_check(SymMatrix(n, a.entries * b.entries))
        assert rep.min_eigenvalue >= -1e-8


def test_nonneg_poly_preserves_psd():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        a = random_psd(n, rng)
        d = np.sqrt(np.maximum(np.diag(a.entries), 1e-9))
        corr = SymMatrix(n, a.entries / np.outer(d, d))
        coeffs = rng.uniform(0, 1, size=int(rng.integers(1, 6)))
        out = SymMatrix(n, np.polynomial.polynomial.polyval(corr.entries, coeffs))
        assert psd_check(out).min_eigenvalue >= -1e-8


def test_power_witness_explicit_matrix():
    # x = (1, 2, 3): entrywise sqrt of [[2,3,4],[3,5,7],[4,7,10]] is not psd
    a = np.power(1.0 + np.outer([1.0, 2, 3], [1.0, 2, 3]), 0.5)
    assert np.linalg.eigvalsh(a)[0] < -1e-8


def test_power_witness_search():
    w = power_preserver_witness(3, 0.5)
    assert w is not None
    assert w.upper < 0
    assert len(w.x) == 3 and len(set(w.x)) == 3
    # integer power and above the n-2 threshold: no witness exists
    assert power_preserver_witness(3, 2.0) is None
    assert power_preserver_witness(4, 2.5) is None


def test_power_witness_search_dim_6():
    # at n = 6 the failure at alpha = 3.5 is about 1e-9 of the spectral scale
    w = power_preserver_witness(6, 3.5)
    assert w is not None and w.upper < 0
    for alpha in (3.0, 4.0, 4.5):  # integer, or >= n - 2: psd is preserved
        assert power_preserver_witness(6, alpha) is None


def test_power_witness_deterministic():
    a = power_preserver_witness(4, 0.7)
    b = power_preserver_witness(4, 0.7)
    assert a == b


def test_iroot_brackets_the_root():
    rng = random.Random(5)
    for _ in range(3000):
        q = rng.randint(1, 100)
        a = rng.choice([0, 1, rng.getrandbits(rng.randint(1, 4000)), rng.randint(2, 10**6) ** q + rng.randint(-1, 1)])
        r = _iroot(a, q)
        assert r ** q <= a < (r + 1) ** q, (a, q)


def _certified(n, alpha):
    w = power_preserver_witness(n, alpha)
    m = max(2, math.floor(alpha) + 3)
    assert w.upper < 0 and w.power == alpha and len(w.x) == len(w.w) == n
    assert all(w.w[:m]) and not any(w.w[m:]), (n, alpha)
    return w


def test_power_witness_certified_for_half_integers():
    for n in range(3, 13):
        for k in range(1, 2 * n - 4, 2):
            _certified(n, Fraction(k, 2))
    for n in range(13, 31):  # the largest half-integer below n - 2, which needs all n rows
        _certified(n, Fraction(2 * n - 5, 2))


def test_power_witness_negative_powers_fail_on_two_rows():
    for alpha in (Fraction(-1, 2), Fraction(-3, 2), -2):
        _certified(5, alpha)


def test_power_witness_bound_against_float_evaluation():
    w = _certified(6, Fraction(7, 2))
    x = np.array([float(v) for v in w.x])
    p = np.power(1.0 + np.outer(x, x), 3.5)
    v = np.array([float(c) for c in w.w])
    value = v @ p @ v
    # slack for float rounding of the sum, about 1/4000 of |upper|
    assert value < 0 and value <= float(w.upper) + 1e-12 * (np.abs(v) @ p @ np.abs(v))


def test_power_witness_bound_against_300_digit_evaluation():
    w = _certified(12, Fraction(19, 2))
    with decimal.localcontext() as ctx:
        ctx.prec = 300
        x = [Decimal(v.numerator) / v.denominator for v in w.x]
        value = sum(wi * wj * (1 + xi * xj) ** Decimal("9.5")
                    for wi, xi in zip(w.w, x) for wj, xj in zip(w.w, x))
        assert value < 0 and value <= Decimal(w.upper.numerator) / w.upper.denominator


def test_power_witness_reads_the_power_exactly():
    assert (power_preserver_witness(12, 9.5) == power_preserver_witness(12, "19/2")
            == power_preserver_witness(12, "9.5") == power_preserver_witness(12, Fraction(19, 2)))
    assert power_preserver_witness(3, 0.1).power == Fraction(1, 10)
    assert power_preserver_witness(5, np.float64(2.5)) == power_preserver_witness(5, 2.5) is not None
    with pytest.raises(ValueError, match="denominator <= 100"):
        power_preserver_witness(5, 1 / 3)  # read as 3333333333333333/10^16


def test_cayley_menger_collinear():
    d = DistanceMatrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert np.array_equal(modified_cayley_menger(d).entries, [[2, 4], [4, 8]])
    res = euclidean_embed(d)
    assert res.embeddable and res.dim == 1


def test_euclidean_embed_triangle():
    d = DistanceMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    res = euclidean_embed(d)
    assert res.embeddable and res.dim == 2
    assert np.array_equal(modified_cayley_menger(d).entries, [[2, 1], [1, 2]])


def test_euclidean_embed_star_fails():
    # unit star K_{1,3}: CM' = 4I - 2J has eigenvalue -2
    d = DistanceMatrix([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]])
    res = euclidean_embed(d)
    assert not res.embeddable
    assert res.witness_eigenvalue == pytest.approx(-2.0)


def test_euclidean_embed_simplex_whose_eigenvalue_overflows():
    # CM' of the regular simplex with edge 9e153 has the eigenvalue 3.24e308
    d = DistanceMatrix([[0 if i == j else 9e153 for j in range(4)] for i in range(4)])
    res = euclidean_embed(d)
    assert res.embeddable and res.dim == 3
    back = np.linalg.norm(res.points[:, None] - res.points[None, :], axis=2)
    assert np.abs(back - d.dists).max() < 1e-8 * 9e153


def test_euclidean_round_trip_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m, r = int(rng.integers(3, 8)), int(rng.integers(1, 4))
        pts = rng.standard_normal((m, r))
        d = DistanceMatrix(np.linalg.norm(pts[:, None] - pts[None, :], axis=2))
        res = euclidean_embed(d)
        assert res.embeddable
        back = np.linalg.norm(res.points[:, None] - res.points[None, :], axis=2)
        assert np.abs(back - d.dists).max() < 1e-8


def test_euclidean_embed_dim_is_psd_rank():
    # the third singular value of 6 points in R^3 swept across psd_check's
    # relative cut-off 1e-10: dim and the coordinates follow its rank
    rng = np.random.default_rng(3)
    u, _, vt = np.linalg.svd(rng.standard_normal((6, 3)), full_matrices=False)
    for i in range(401):
        x = (u * [1, 0.7, math.sqrt(1e-10 * (1 - 2e-6 + i * 1e-8))]) @ vt
        pts = np.vstack([np.zeros(3), x])
        d = DistanceMatrix(np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2)))
        res = euclidean_embed(d)
        rank = psd_check(modified_cayley_menger(d)).rank
        assert res.embeddable and res.dim == rank == res.points.shape[1], i


def test_sphere_embed_examples():
    a = 2 * math.pi / 3
    d = DistanceMatrix([[0, a, a], [a, 0, a], [a, a, 0]])
    res = sphere_embed(d)
    assert res.embeddable and res.dim == 2
    anti = DistanceMatrix([[0, math.pi], [math.pi, 0]])
    res = sphere_embed(anti)
    assert res.embeddable and res.dim == 1
    with pytest.raises(DiameterError):
        sphere_embed(DistanceMatrix([[0, 3.5], [3.5, 0]]))


def test_distance_matrix_rejects_non_finite():
    # checked before the symmetry test, where inf - inf would read as nan
    with pytest.raises(ValueError, match=r"^distances must be finite, got inf at \(0, 1\), nan at \(1, 0\)$"):
        DistanceMatrix([[0, math.inf], [math.nan, 0]])


def test_sphere_embed_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, r = int(rng.integers(3, 8)), int(rng.integers(2, 5))
        pts = rng.standard_normal((m, r))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        d = np.arccos(np.clip(pts @ pts.T, -1, 1))
        np.fill_diagonal(d, 0.0)
        res = sphere_embed(DistanceMatrix((d + d.T) / 2))
        assert res.embeddable
        back = np.arccos(np.clip(res.points @ res.points.T, -1, 1))
        np.fill_diagonal(back, 0.0)
        assert np.abs(back - d).max() < 1e-8


def test_sphere_embed_non_embeddable():
    # violates the triangle inequality badly; cos[D] is indefinite
    d = DistanceMatrix([[0, 3.0, 0.1], [3.0, 0, 0.1], [0.1, 0.1, 0]])
    res = sphere_embed(d)
    assert not res.embeddable and res.witness_eigenvalue < 0


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        DistanceMatrix([[1, 1], [1, 0]])
    with pytest.raises(ValueError):
        DistanceMatrix([[0, 0.0], [0.0, 0]])
    # the triangle inequality is left to the embeddings
    assert DistanceMatrix([[0, 3.0, 0.1], [3.0, 0, 0.1], [0.1, 0.1, 0]]).n_points == 3


def test_vasudeva_exponential():
    rep = vasudeva_2x2_check([(1.0, math.e), (2.0, math.e**2), (4.0, math.e**4)])
    assert rep.nonnegative and rep.nondecreasing and rep.mult_midconvex


def test_vasudeva_constant_and_violations():
    rep = vasudeva_2x2_check([(1.0, 1.0), (2.0, 1.0), (4.0, 1.0)])
    assert rep.nonnegative and rep.nondecreasing and rep.mult_midconvex
    rep = vasudeva_2x2_check([(1.0, -1.0), (2.0, 1.0)])
    assert not rep.nonnegative and rep.violation[0] == "nonnegative"
    rep = vasudeva_2x2_check([(1.0, 2.0), (2.0, 1.0)])
    assert not rep.nondecreasing
    # log is monotone but not multiplicatively midconvex on (1, 16)
    rep = vasudeva_2x2_check([(2.0, math.log(2)), (4.0, math.log(4)), (8.0, math.log(8))])
    assert not rep.mult_midconvex and rep.violation[0] == "mult_midconvex"


def _midconvex_reference(samples):
    # the all-pairs scan of every sample that vasudeva_2x2_check ran before it bisected
    xs = [float(x) for x, _ in samples]
    fs = [float(v) for _, v in samples]
    midconv, violation = True, None
    for i in range(len(xs)):
        for j in range(i, len(xs)):
            g = math.sqrt(xs[i]) * math.sqrt(xs[j])
            for k, xk in enumerate(xs):
                if abs(xk - g) <= 1e-12 * max(1.0, g):
                    lhs, rhs = Fraction(fs[k]) ** 2, Fraction(fs[i]) * Fraction(fs[j])
                    if lhs > rhs + Fraction(1e-12) * max(1, abs(rhs)):
                        midconv = False
                        violation = violation or ("mult_midconvex", xs[i], xs[j], xk)
                    break
    return midconv, violation


def _sample_sets():
    rng = random.Random(11)
    for trial in range(120):
        n = rng.randint(1, 40)
        kind = trial % 4
        if kind == 0:  # integers, whose products are often squares
            xs = sorted(rng.sample(range(1, 300), n))
        elif kind == 1:  # random floats over many magnitudes
            xs = sorted({10 ** rng.uniform(-200, 200) for _ in range(n)})
        elif kind == 2:  # a geometric grid, where about half the pairs match
            r, x0 = 2 ** (1 / rng.randint(1, 8)), 10 ** rng.uniform(-100, 100)
            xs = [x0 * r**e for e in range(n)]
        else:  # clusters closer than the tolerance: several samples match one mean
            xs = sorted({c * (1 + 3e-13 * rng.randint(-3, 3)) for c in rng.sample(range(1, 50), n)
                         for _ in range(3)})
        p = rng.choice((0.25, 0.5, 1.0, None))  # x^p is midconvex but for the noise
        fs = [rng.uniform(0, 5) if p is None else x**p * (1 + rng.uniform(-1e-3, 1e-3)) for x in xs]
        if trial % 3 == 0:
            fs.sort()
        yield list(zip(xs, fs))


def test_vasudeva_matches_all_pairs_reference():
    outcomes = []
    for samples in _sample_sets():
        rep = vasudeva_2x2_check(samples)
        midconv, violation = _midconvex_reference(samples)
        assert rep.mult_midconvex == midconv
        if rep.nonnegative and rep.nondecreasing:
            assert rep.violation == violation
        outcomes.append(midconv)
    assert outcomes.count(True) > 20 and outcomes.count(False) > 20


def test_vasudeva_stops_at_the_first_violation(monkeypatch):
    # log(1 + x) fails midconvexity at the third pair, (1, 1.02^2); every pair of the 1,000 samples would
    # take 500,500 lookups of its geometric mean and about 3 s
    calls = []
    original = entrywise.bisect_left

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(entrywise, "bisect_left", counted)
    rep = vasudeva_2x2_check([(1.02**k, math.log1p(1.02**k)) for k in range(1000)])
    assert not rep.mult_midconvex and rep.violation[0] == "mult_midconvex"
    assert len(calls) <= 3


def test_vasudeva_validation():
    with pytest.raises(ValueError):
        vasudeva_2x2_check([(2.0, 1.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        vasudeva_2x2_check([(-1.0, 1.0), (2.0, 1.0)])


def test_distances_are_the_readers_read_only_upper_triangle():
    d = DistanceMatrix([[0, 1, 2], [1 + 1e-13, 0, 1], [2, 1, 0]])
    assert np.array_equal(d.dists, SymMatrix.from_rows(d.dists).entries) and d.dists[1, 0] == 1
    with pytest.raises(ValueError, match="read-only"):
        d.dists[0, 1] = 3


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: SymMatrix(3, np.eye(2)), "expected a 3x3 matrix", id="sym-matrix-shape"),
    pytest.param(lambda: SymMatrix.from_rows([[1, 2]]), "matrix must be square, got shape (1, 2)", id="rows-1x2"),
    pytest.param(lambda: DistanceMatrix([[0, 1, 2], [1, 0, 1]]), "matrix must be square, got shape (2, 3)",
                 id="distances-2x3"),
    pytest.param(lambda: DistanceMatrix([0, 1]), "matrix must be square, got shape (2,)", id="distances-1d"),
    pytest.param(lambda: SymMatrix.from_rows([[1, math.nan], [math.inf, 1]]),
                 "matrix entries must be finite, got nan at (0, 1), inf at (1, 0)", id="rows-nan-inf"),
    pytest.param(lambda: DistanceMatrix([[-math.inf] * 3] * 2 + [[0, 1, 0]]),
                 "distances must be finite, got -inf at (0, 0), -inf at (0, 1), -inf at (0, 2), -inf at (1, 0), ...",
                 id="distances-six-inf"),
    pytest.param(lambda: SymMatrix.from_rows([[1, 2], [2.1, 1]]),
                 "matrix must be symmetric within 1e-12 times max(1, its largest |entry|)", id="rows-asymmetric"),
    pytest.param(lambda: DistanceMatrix([[0, 1], [2, 0]]),
                 "matrix must be symmetric within 1e-12 times max(1, its largest |entry|)", id="distances-asymmetric"),
    pytest.param(lambda: SymMatrix.from_rows([[1, 10**400], [10**400, 1]]),
                 "row 0 has an integer beyond the float range", id="rows-int-1e400"),
    pytest.param(lambda: DistanceMatrix([[0, 1], [1]]), "row 1 has 1 entries, row 0 has 2", id="distances-ragged"),
    pytest.param(lambda: DistanceMatrix([[1, 1], [1, 0]]), "diagonal distances must be zero", id="distances-diagonal"),
    pytest.param(lambda: DistanceMatrix([[0, 0.0], [0.0, 0]]), "off-diagonal distances must be positive",
                 id="distances-zero"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
