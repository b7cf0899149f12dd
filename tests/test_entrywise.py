import math

import numpy as np
import pytest

from poscert.entrywise import (
    AtomicMeasure,
    DiameterError,
    DistanceMatrix,
    SymMatrix,
    apply_entrywise,
    entrywise_power,
    entrywise_threshold,
    euclidean_embed,
    modified_cayley_menger,
    moment_matrix,
    power_preserver_witness,
    psd_check,
    schur_product,
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


def test_atomic_measure_json_round_trip():
    m = AtomicMeasure(((0.5, 1.0), (2.0, 0.25)))
    assert AtomicMeasure.from_json_dict(m.to_json_dict()) == m


def test_symmetry_validation():
    with pytest.raises(ValueError):
        SymMatrix.from_rows([[1, 2], [2.1, 1]])
    m = SymMatrix.from_rows([[1, 2], [2, 1]])
    assert np.array_equal(m.entries, m.entries.T)


def test_schur_identities():
    rng = np.random.default_rng(0)
    a = random_psd(4, rng)
    ones = SymMatrix.from_rows(np.ones((4, 4)))
    assert np.allclose(schur_product(a, ones).entries, a.entries)
    eye = SymMatrix.from_rows(np.eye(4))
    assert np.allclose(schur_product(a, eye).entries, np.diag(np.diag(a.entries)))
    with pytest.raises(ValueError):
        schur_product(a, SymMatrix.from_rows(np.eye(3)))


def test_schur_closure_trials():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        a, b = random_psd(n, rng), random_psd(n, rng)
        rep = psd_check(schur_product(a, b))
        assert rep.min_eigenvalue >= -1e-8


def test_nonneg_poly_preserves_psd():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        a = random_psd(n, rng)
        d = np.sqrt(np.maximum(np.diag(a.entries), 1e-9))
        corr = SymMatrix(n, a.entries / np.outer(d, d))
        coeffs = rng.uniform(0, 1, size=int(rng.integers(1, 6)))
        out = apply_entrywise(("poly", coeffs.tolist()), corr)
        assert psd_check(out).min_eigenvalue >= -1e-8


def test_apply_entrywise_examples():
    rho = 0.3
    a = SymMatrix.from_rows([[1, rho], [rho, 1]])
    sq = apply_entrywise(("poly", [0.0, 0.0, 1.0]), a)
    assert np.allclose(sq.entries, [[1, rho**2], [rho**2, 1]])
    # the covariance-regularization example: threshold at 0.05 zeroes the
    # (1,3)/(3,1) entries and nothing else
    sample = SymMatrix.from_rows(
        [[0.95, 0.18, 0.02], [0.18, 0.96, 0.47], [0.02, 0.47, 0.98]]
    )
    th = apply_entrywise(("threshold", 0.05), sample)
    expected = np.array([[0.95, 0.18, 0.0], [0.18, 0.96, 0.47], [0.0, 0.47, 0.98]])
    assert np.array_equal(th.entries, expected)


def test_entrywise_power_domain():
    a = SymMatrix.from_rows([[1.0, -0.5], [-0.5, 1.0]])
    with pytest.raises(ValueError):
        entrywise_power(a, 0.5)
    # nonnegative integer powers are fine on any entries
    out = entrywise_power(a, 2)
    assert np.allclose(out.entries, [[1, 0.25], [0.25, 1]])


def test_threshold_validation():
    a = SymMatrix.from_rows(np.eye(2))
    with pytest.raises(ValueError):
        entrywise_threshold(a, -0.1)
    with pytest.raises(ValueError):
        apply_entrywise(("nope", 1), a)


def test_power_witness_explicit_matrix():
    # x = (1, 2, 3): entrywise sqrt of [[2,3,4],[3,5,7],[4,7,10]] is not psd
    a = np.power(1.0 + np.outer([1.0, 2, 3], [1.0, 2, 3]), 0.5)
    assert np.linalg.eigvalsh(a)[0] < -1e-8


def test_power_witness_search():
    w = power_preserver_witness(3, 0.5, seed=1)
    assert w is not None
    assert w.powered_min_eigenvalue < -1e-8
    assert len(w.x) == 3 and len(set(w.x)) == 3
    # integer power and above the n-2 threshold: no witness exists
    assert power_preserver_witness(3, 2.0, seed=1) is None
    assert power_preserver_witness(4, 2.5, seed=1) is None


def test_power_witness_search_dim_6():
    # at n = 6 the failure at alpha = 3.5 is about 1e-9 of the spectral
    # scale: far above eigvalsh rounding, far below a fixed 1e-8 gate
    w = power_preserver_witness(6, 3.5)
    assert w is not None and w.powered_min_eigenvalue < 0
    for alpha in (3.0, 4.0, 4.5):  # integer, or >= n - 2: psd is preserved
        assert power_preserver_witness(6, alpha) is None


def test_power_witness_deterministic():
    a = power_preserver_witness(4, 0.7, seed=9)
    b = power_preserver_witness(4, 0.7, seed=9)
    assert a.x == b.x


def test_moment_matrix_hankel():
    m = moment_matrix("hankel", AtomicMeasure(((1.0, 1.0),)), 3)
    rep = psd_check(m)
    assert np.array_equal(m.entries, np.ones((3, 3)))
    assert rep.is_psd and rep.rank == 1
    m2 = moment_matrix("hankel", AtomicMeasure(((1.0, 1.0), (2.0, 1.0))), 3)
    assert np.array_equal(m2.entries, [[2, 3, 5], [3, 5, 9], [5, 9, 17]])
    rep2 = psd_check(m2)
    assert rep2.is_psd and rep2.rank == 2


def test_moment_matrix_toeplitz():
    m = moment_matrix("toeplitz", AtomicMeasure(((0.0, 1.0),)), 4)
    assert np.array_equal(m.entries, np.ones((4, 4)))
    rep = psd_check(m)
    assert rep.is_psd and rep.rank == 1
    mt = moment_matrix("toeplitz", AtomicMeasure(((0.7, 1.0), (2.1, 0.5))), 5)
    rep = psd_check(mt)
    assert rep.is_psd and rep.rank == min(5, 4)  # two atoms, cos/sin pair each


def test_moment_matrix_rank_counts_atoms():
    rng = np.random.default_rng(3)
    for n_atoms in (1, 2, 3):
        atoms = tuple((float(x), 1.0) for x in rng.uniform(0.5, 3.0, n_atoms))
        m = moment_matrix("hankel", AtomicMeasure(atoms), 5)
        rep = psd_check(m)
        assert rep.is_psd
        assert rep.rank == min(5, n_atoms)


def test_moment_matrix_validation():
    with pytest.raises(ValueError):
        moment_matrix("hankel", AtomicMeasure(()), 3)
    with pytest.raises(ValueError):
        AtomicMeasure(((1.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError):
        AtomicMeasure(((1.0, 0.0),))
    with pytest.raises(ValueError):
        moment_matrix("weird", AtomicMeasure(((1.0, 1.0),)), 3)


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


def test_vasudeva_validation():
    with pytest.raises(ValueError):
        vasudeva_2x2_check([(2.0, 1.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        vasudeva_2x2_check([(-1.0, 1.0), (2.0, 1.0)])
