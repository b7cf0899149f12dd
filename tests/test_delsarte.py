import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from poscert import delsarte, simplex
from poscert.delsarte import (
    CertificateRejection,
    LpInfeasible,
    known_certificate,
    lp_bound,
    verify_certificate,
)
from poscert.gegenbauer import gegenbauer_values
from poscert.polycore import Poly, rat
from poscert.simplex import _TOL as SIMPLEX_TOL, Tableau


def test_known_certificates():
    c8 = known_certificate("paper-8")
    assert c8.bound == 240 and c8.dim == 8 and c8.cos_angle == Q(1, 2)
    c24 = known_certificate("paper-24")
    assert c24.bound == 196560 and c24.dim == 24
    with pytest.raises(KeyError):
        known_certificate("paper-7")


def test_antipodal_pair_certificate():
    for n in (2, 5, 9):
        cert = verify_certificate(n, Q(-1), Poly([1, 1]))
        assert cert.bound == 2
        assert cert.coeffs.coeffs == (1, 1)


def test_rejection_positivity():
    with pytest.raises(CertificateRejection) as exc:
        verify_certificate(4, Q(1, 2), Poly([1]))
    assert exc.value.kind == "positivity_violation"


def test_rejection_negative_coefficient():
    # 1 - t has Gegenbauer coefficients (1, -1)
    with pytest.raises(CertificateRejection) as exc:
        verify_certificate(3, Q(-1, 2), Poly([1, -1]))
    assert exc.value.kind == "negative_coefficient"
    assert "k=1" in str(exc.value)


def test_rejection_nonpositive_c0():
    with pytest.raises(CertificateRejection) as exc:
        verify_certificate(3, Q(-1, 2), Poly([0, 1]))
    assert exc.value.kind == "nonpositive_c0"


def test_verify_deterministic():
    f = known_certificate("paper-8").poly
    b1 = verify_certificate(8, Q(1, 2), f).bound
    b2 = verify_certificate(8, Q(1, 2), f).bound
    assert b1 == b2 == Q(240)


def test_certificate_json_round_trip():
    c = known_certificate("paper-8")
    d = c.to_json_dict()
    assert d["bound"] == "240"
    assert d["cos_angle"] == "1/2"
    back = verify_certificate(d["dim"], rat(d["cos_angle"]), Poly(d["poly"]))
    assert back.bound == c.bound
    assert back.coeffs == c.coeffs


# Exact optima: 3 for degree 1 at cos -1/2, 2n at cos 0 (cross-polytope)
# and n + 1 at cos -1/n (regular simplex). The float peak of f on [-1, s] is
# at most 0 there, so the slack is 0 and the bound is exact.
@pytest.mark.parametrize("n, s, d, grid, value", [
    pytest.param(3, Q(-1, 2), 1, 200, 3, id="dim3-deg1-cos-half"),
    pytest.param(5, Q(-1, 2), 1, 200, 3, id="dim5-deg1-cos-half"),
    pytest.param(8, Q(-1, 2), 1, 200, 3, id="dim8-deg1-cos-half"),
    pytest.param(5, Q(0), 8, 2000, 10, id="dim5-deg8-cos0"),
    pytest.param(12, Q(0), 10, 2000, 24, id="dim12-deg10-cos0"),
    pytest.param(4, Q(-1, 4), 6, 2000, 5, id="dim4-deg6-cos-quarter"),
    pytest.param(10, Q(-1, 10), 8, 2000, 11, id="dim10-deg8-cos-tenth"),
    # from _ROOT_SCAN_GRID on, f is probed around its critical points only
    pytest.param(12, Q(0), 10, 50000, 24, id="dim12-deg10-cos0-grid50000"),
    pytest.param(10, Q(-1, 10), 8, 100000, 11, id="dim10-deg8-cos-tenth-grid100000"),
    pytest.param(24, Q(0), 40, 20000, 48, id="dim24-deg40-cos0-grid20000"),
    pytest.param(3, Q(-1, 3), 60, 40000, 4, id="dim3-deg60-cos-third-grid40000"),
])
def test_lp_bound_exact_optima(n, s, d, grid, value):
    res = lp_bound(n, s, d, grid=grid)
    assert abs(res.float_bound - value) < 1e-9 * value
    assert res.certificate is not None, res.rejection
    assert res.certificate.bound == value


@pytest.mark.parametrize("n, d, ppm", [(8, 6, 5), (24, 10, 100)])
def test_lp_bound_certified_near_float(n, d, ppm):
    res = lp_bound(n, Q(1, 2), d, grid=2000)
    assert res.certificate is not None, res.rejection
    gap = (float(res.certificate.bound) - res.float_bound) / res.float_bound
    assert -1e-9 <= gap <= ppm * 1e-6


@pytest.fixture
def verify_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return verify_certificate(*args)

    monkeypatch.setattr(delsarte, "verify_certificate", counted)
    return calls


def test_lp_bound_one_exact_check_per_bound(verify_calls):
    # the scanned slack passes the first exact check in every dimension here
    for n in range(3, 25):
        assert lp_bound(n, Q(1, 2), 10, grid=2000).certificate is not None
    assert len(verify_calls) == 22


@pytest.mark.parametrize("n, d, grid", [
    (11, 20, 2000), (3, 40, 2000), (3, 200, 2000), (24, 300, 2000),
    (24, 10, 50000), (20, 16, 40000), (20, 12, 80000),
])
def test_lp_bound_peak_between_grid_points_passes_the_first_check(verify_calls, n, d, grid):
    # f peaks between grid points: near t = -0.998 in dimension 3, and near t = -0.9996,
    # between the first two grid points, in dimension 24; on the fine grids the peak
    # (3e-8 to 1e-7) is below the float margin 1e-12 sum(c) added to it
    assert lp_bound(n, Q(1, 2), d, grid).certificate is not None
    assert len(verify_calls) == 1


@pytest.mark.parametrize("n, d, grid", [(24, 10, 50000), (23, 13, 2000), (8, 6, 2000)])
def test_lp_bound_rejected_check_returns_no_certificate(monkeypatch, verify_calls, n, d, grid):
    # with the peak read as 0 the slack is 0, and f > 0 between grid points fails the one exact check
    monkeypatch.setattr(delsarte, "_peak", lambda n, c, hi: 0.0)
    res = lp_bound(n, Q(1, 2), d, grid)
    assert res.certificate is None
    assert len(verify_calls) == 1
    assert "positive somewhere on" in res.rejection


def dense_max(n, c, hi):
    # f at 200,001 equally spaced points of [-1, hi], both ends included
    ts = np.linspace(-1.0, hi, 200_001)
    return max(float((c @ gegenbauer_values(n, len(c) - 1, part)).max()) for part in np.array_split(ts, 20))


def test_peak_matches_a_dense_scan():
    rng = np.random.default_rng(31)
    cases = [(8, np.array([0.0, 0.0, 1.0]), -0.5)]  # G_2 = (8t^2 - 1)/7 peaks at the end t = -1
    for _ in range(24):
        n, d = int(rng.choice([2, 3, 8, 24])), int(rng.integers(1, 41))
        c = rng.uniform(0.0, 1.0, d + 1) * (rng.uniform(size=d + 1) < 0.7)  # c >= 0, some c_k = 0
        cases.append((n, c, float(rng.uniform(-1.0, 1.0))))
    for n, c, hi in cases:
        peak, dense = delsarte._peak(n, c, hi), dense_max(n, c, hi)
        assert dense <= peak + 1e-12 * c.sum(), (n, c, hi)
        assert peak <= dense + 1e-6 * c.sum(), (n, c, hi)
    assert delsarte._peak(*cases[0]) == 1.0


def test_lp_bound_overshoot_between_grid_points(verify_calls):
    # f exceeds 0 by about 3.6 near t = -0.43 between grid points; the
    # float bound grows with the grid, so no slack on c_0 = 1 can help.
    res = lp_bound(20, Q(1, 2), 8, grid=2000)
    assert res.certificate is None
    assert res.rejection.startswith("f exceeds 0 between grid points by 3.6")
    assert res.rejection.endswith("so c_0 = 1 cannot absorb it")
    assert not verify_calls


@pytest.fixture
def value_sizes(monkeypatch):
    # the number of points of each gegenbauer_values call in lp_bound
    sizes = []

    def counted(n, kmax, ts):
        sizes.append(np.size(ts))
        return gegenbauer_values(n, kmax, ts)

    monkeypatch.setattr(delsarte, "gegenbauer_values", counted)
    return sizes


@pytest.mark.parametrize("grid", [100, 10000, 50000])
def test_lp_bound_antipodal(value_sizes, grid):
    # at cos -1 every grid point is t = -1, and the optimum is 2 from degree 1 on;
    # f is evaluated at that one point (and at both ends by the peak), never per grid point
    for d in (1, 2, 5):
        res = lp_bound(3, -1, d, grid)
        assert res.float_bound == 2.0 and res.certificate.bound == 2
    assert max(value_sizes) <= 2


def test_lp_bound_infeasible():
    with pytest.raises(LpInfeasible):
        lp_bound(5, Q(1, 2), 0, grid=100)
    with pytest.raises(LpInfeasible):
        lp_bound(8, Q(1, 2), 1, grid=100)  # degree 1 cannot be <= 0 at t = 0


def test_lp_bound_kissing_8_small_grid():
    res = lp_bound(8, Q(1, 2), 6, grid=500)
    assert abs(res.float_bound - 240) < 0.5
    assert res.certificate is not None
    assert 240 <= res.certificate.bound <= 241
    # repair only weakens: verified bound >= float optimum (up to 1e-6 rel)
    assert float(res.certificate.bound) >= res.float_bound * (1 - 1e-6)


@pytest.mark.parametrize("n, d, grid, value", [
    (3, 60, 2000, 13.158225),  # monomial coefficients in floats collapsed this to 12.09
    (8, 11, 30000, 240.0),
])
def test_lp_bound_high_degree_and_fine_grid(n, d, grid, value):
    res = lp_bound(n, Q(1, 2), d, grid=grid)
    assert res.certificate is not None, res.rejection
    assert abs(res.float_bound - value) <= 1e-4 * value
    assert abs(float(res.certificate.bound) - value) <= 1e-4 * value


def test_lp_bound_degree_900():
    # the first working set is the whole grid: 2001 columns over 900 rows
    res = lp_bound(3, Q(1, 2), 900, 2000)
    assert res.certificate is not None, res.rejection
    assert abs(float(res.certificate.bound) - 13.158225) <= 1e-4 * 13.158225


def full_grid_optimum(n, s, d, grid):
    # the dual LP over every grid column at once, as one tableau
    ts = -1.0 + (float(s) + 1.0) * (np.arange(grid + 1) / grid)
    ts[-1] = float(s)
    res = Tableau(np.ones(grid + 1), -gegenbauer_values(n, d, ts)[1:], np.ones(d)).solve()
    return 1.0 + res.objective if res.status == "optimal" else None  # None: infeasible


@pytest.mark.parametrize("n, s, d, grid", [
    pytest.param(8, Q(1, 2), 12, 60000, id="dim8-deg12-grid60000"),
    pytest.param(12, Q(1, 2), 11, 100000, id="dim12-deg11-grid100000"),
    pytest.param(24, Q(1, 2), 10, 50000, id="dim24-deg10-grid50000"),
    pytest.param(3, Q(1, 2), 40, 2000, id="dim3-deg40-grid2000"),
    pytest.param(5, Q(0), 8, 2000, id="dim5-deg8-cos0"),
    pytest.param(3, Q(1, 2), 50, 150, id="dim3-deg50-whole-grid-at-start"),
    # from delsarte._ROOT_SCAN_GRID points on, f is evaluated near its roots only
    pytest.param(2, Q(1, 2), 9, 10000, id="dim2-deg9-grid10000"),
    pytest.param(6, Q(0), 7, 12000, id="dim6-deg7-cos0"),
    pytest.param(9, Q(-1, 9), 5, 20000, id="dim9-deg5-cos-1/n"),
    pytest.param(4, Q(9, 10), 14, 30000, id="dim4-deg14-cos9/10"),
    pytest.param(3, Q(-1, 2), 1, 10000, id="dim3-deg1-cos-half-grid10000"),
    pytest.param(5, Q(-1, 2), 2, 15000, id="dim5-deg2-cos-half-grid15000"),
])
def test_working_set_optimum_is_the_grid_optimum(n, s, d, grid):
    value = full_grid_optimum(n, s, d, grid)
    assert value is not None
    assert abs(lp_bound(n, s, d, grid).float_bound - value) <= 1e-8 * value


def test_root_scan_matches_the_grid_optimum_on_random_cases():
    # the optimum, or infeasibility, of the LP over every grid column at once
    rng = random.Random(29)
    for _ in range(20):
        n, d, grid = rng.randint(2, 24), rng.randint(1, 14), rng.randint(10000, 30000)
        s = rng.choice([Q(1, 2), Q(0), Q(-1, n), Q(1, 3), Q(9, 10)])
        value = full_grid_optimum(n, s, d, grid)
        if value is None:
            with pytest.raises(LpInfeasible):
                lp_bound(n, s, d, grid)
            continue
        assert abs(lp_bound(n, s, d, grid).float_bound - value) <= 1e-8 * value, (n, s, d, grid)


@pytest.mark.parametrize("n, d, grid, path", [(12, 11, 100000, "roots"), (12, 11, 9999, "whole")])
def test_fine_grids_evaluate_f_near_its_roots_only(value_sizes, n, d, grid, path):
    assert lp_bound(n, Q(1, 2), d, grid).certificate is not None
    assert (max(value_sizes) < grid / 10) == (path == "roots")


@pytest.fixture
def simplex_widths(monkeypatch):
    widths = []

    def counted(tableau):
        widths.append(tableau.n)
        return Tableau.solve(tableau)

    monkeypatch.setattr(delsarte, "simplex_max", counted)
    return widths


@pytest.fixture
def warm_solves(monkeypatch):
    # each solve of lp_bound: the costs and columns its tableau holds, and its result
    solves = []

    class Recorded(Tableau):
        def __init__(self, c, A, b):
            super().__init__(c, A, b)
            self.columns = [(c, A)]

        def add_columns(self, c, A):
            super().add_columns(c, A)
            self.columns.append((c, A))

    def recorded(tableau):
        res = Tableau.solve(tableau)
        c, A = (np.concatenate(parts, axis=-1) for parts in zip(*tableau.columns))
        solves.append((c, A, res))
        return res

    monkeypatch.setattr(delsarte, "Tableau", Recorded)
    monkeypatch.setattr(delsarte, "simplex_max", recorded)
    return solves


@pytest.mark.parametrize("n, d, grid", [(8, 12, 60000), (12, 11, 100000)])
def test_working_set_stays_far_below_the_grid(simplex_widths, n, d, grid):
    res = lp_bound(n, Q(1, 2), d, grid)
    assert res.certificate is not None, res.rejection
    # 4d + 2 evenly spaced columns to start, then strictly growing
    assert simplex_widths[0] == 4 * d + 2
    assert all(a < b for a, b in zip(simplex_widths, simplex_widths[1:]))
    assert simplex_widths[-1] < (grid + 1) / 10


def grid_max(n, c, s, grid):
    # the largest value of f = sum_k c_k G_k at the grid points of lp_bound, 50,000 at a time
    s_f, top = float(s), -math.inf
    for lo in range(0, grid + 1, 50_000):
        idx = np.arange(lo, min(lo + 50_000, grid + 1))
        ts = np.where(idx == grid, s_f, -1.0 + (s_f + 1.0) * (idx / grid))
        top = max(top, float((c @ gegenbauer_values(n, len(c) - 1, ts)).max()))
    return top


def test_root_scan_leaves_no_grid_point_above_tol():
    # the critical-point scan probes a few hundred points, yet f <= tol on the whole grid
    rng = random.Random(42)
    cases = [(24, Q(1, 2), 10, 1_818_181)]
    for _ in range(150):
        n, d, grid = rng.randint(3, 24), rng.randint(4, 24), rng.randint(10_000, 300_000)
        cases.append((n, rng.choice([Q(1, 2), Q(0), Q(-1, n), Q(1, 3), Q(9, 10)]), d, grid))
    feasible = 0
    for n, s, d, grid in cases:
        try:
            res = lp_bound(n, s, d, grid)
        except LpInfeasible:
            continue
        feasible += 1
        assert grid_max(n, res.float_coeffs, s, grid) <= SIMPLEX_TOL, (n, s, d, grid)
    assert feasible >= 100


@pytest.mark.parametrize("n, d", [(24, 12), (8, 12), (3, 14), (16, 15)])
def test_fine_grid_evaluations_grow_with_the_log_of_the_grid(value_sizes, n, d):
    # each round evaluates f on a stencil, -2..3 and +-2^j for 2^j < grid (36 offsets at 10^5, 46 at
    # 3 * 10^6), around at most d + 1 centers: the two ends and the critical points of f
    most = {}
    for grid in (100_000, 3_000_000):
        value_sizes.clear()
        assert lp_bound(n, Q(1, 2), d, grid).certificate is not None
        most[grid] = max(value_sizes)
    assert most[3_000_000] <= (d + 1) * 46
    assert most[3_000_000] < 1.5 * most[100_000]  # for 30 times the grid points


@pytest.mark.parametrize("tiny", [1e-17, 1e-200])
def test_root_scan_drops_a_negligible_tail(monkeypatch, tiny):
    # a trailing x_{d+1} = tiny changes neither the probes nor the LP
    n, d, grid = 12, 11, 100_000
    plain = lp_bound(n, Q(1, 2), d, grid)
    x = plain.float_coeffs[1:]
    assert np.array_equal(delsarte._root_probes(n, np.append(x, tiny), 0.5, grid),
                          delsarte._root_probes(n, x, 0.5, grid))
    probes = delsarte._root_probes
    monkeypatch.setattr(delsarte, "_root_probes", lambda n, x, s_f, grid: probes(n, np.append(x, tiny), s_f, grid))
    tailed = lp_bound(n, Q(1, 2), d, grid)
    assert tailed.float_bound == plain.float_bound
    assert np.array_equal(tailed.float_coeffs, plain.float_coeffs)
    assert tailed.certificate.bound == plain.certificate.bound


@pytest.mark.parametrize("n, d, grid", [(8, 12, 60000), (12, 11, 100000)])
def test_warm_solves_pivot_less_than_cold_ones(warm_solves, n, d, grid):
    lp_bound(n, Q(1, 2), d, grid)
    assert len(warm_solves) > 1
    warm = sum(res.pivots for _, _, res in warm_solves)
    cold = sum(Tableau(c, A, np.ones(d)).solve().pivots for c, A, _ in warm_solves)
    assert warm < cold


def test_lp_bound_kissing_8_fine_grid():
    # 240 is reached at degree 6, so degree 12 has many optimal vertices
    res = lp_bound(8, Q(1, 2), 12, 60000)
    assert abs(res.float_bound - 240) <= 1e-6 * 240
    assert res.certificate is not None, res.rejection
    assert abs(float(res.certificate.bound) - 240) <= 1e-6 * 240


def test_lp_bound_monotone_in_degree():
    prev = math.inf
    for d in range(1, 5):
        res = lp_bound(4, Q(-1, 2), d, grid=200)
        assert res.float_bound <= prev + 1e-9
        prev = res.float_bound


def test_lp_bound_deterministic():
    a = lp_bound(6, Q(-1, 2), 3, grid=300)
    b = lp_bound(6, Q(-1, 2), 3, grid=300)
    assert a.float_bound == b.float_bound
    assert np.array_equal(a.float_coeffs, b.float_coeffs)
    assert a.certificate.bound == b.certificate.bound


def code_within_bound(points, cert) -> bool:
    # unit vectors in cert.dim dimensions whose pairwise cosines respect cert's angle
    pts = np.asarray(points, dtype=float)
    assert pts.shape[1] == cert.dim and np.abs(np.linalg.norm(pts, axis=1) - 1).max() <= 1e-12
    assert (pts @ pts.T - 2 * np.eye(len(pts))).max() <= float(cert.cos_angle) + 1e-12
    return len(pts) <= cert.bound


def right_angle_certificate():
    # f = t^2 + t is <= 0 on [-1, 0]; for n = 2 its coefficients are
    # (1/2, 1, 1/2) with bound f(1)/c_0 = 4 = A(2, pi/2).
    return verify_certificate(2, Q(0), Poly([0, 1, 1]))


def test_code_upper_bound_trivial_pair():
    cert = verify_certificate(3, Q(-1), Poly([1, 1]))
    assert code_within_bound([[1.0, 0, 0], [-1.0, 0, 0]], cert)


def test_code_upper_bound_square():
    cert = right_angle_certificate()
    assert cert.bound == 4
    assert code_within_bound([[1, 0], [0, 1], [-1, 0], [0, -1]], cert)


def test_code_upper_bound_e8_equality():
    # E8's minimal vectors have norm 2, so x/sqrt(2) and y/sqrt(2) have cosine x G y / 2
    from poscert.lattice import e8_coordinate_lattice, short_vectors

    lat = e8_coordinate_lattice()
    coords = np.array(short_vectors(lat, 2))
    assert len(coords) == 240
    assert all(x.denominator == 1 for row in lat.gram for x in row)
    products = coords @ np.array([[x.numerator for x in row] for row in lat.gram]) @ coords.T
    assert (np.diag(products) == 2).all()
    cert = known_certificate("paper-8")
    assert lat.rank == cert.dim
    assert Q(int(products[~np.eye(240, dtype=bool)].max()), 2) <= cert.cos_angle == Q(1, 2)
    assert len(coords) == cert.bound == 240


def test_certificate_soundness_randomized():
    # random codes respecting each certificate angle never exceed the bound;
    # 10^4 trials spread over dimensions 2..8
    rng = np.random.default_rng(42)
    certs = [
        verify_certificate(n, Q(-1), Poly([1, 1])) for n in range(2, 9)
    ] + [right_angle_certificate(), known_certificate("paper-8")]
    for trial in range(10_000):
        cert = certs[trial % len(certs)]
        n, s = cert.dim, float(cert.cos_angle)
        if s == -1.0:  # antipodal: the second point is forced
            p = rng.standard_normal(n)
            p /= np.linalg.norm(p)
            pts = [p, -p]
        else:
            pts = []
            cands = rng.standard_normal((3 * int(min(cert.bound, 24)), n))
            cands /= np.linalg.norm(cands, axis=1, keepdims=True)
            for cand in cands:
                if not pts or (np.asarray(pts) @ cand).max() <= s + 1e-12:
                    pts.append(cand)
        assert code_within_bound(pts, cert)


# Small-angle and high-dimension LPs whose bounds reach 1e8-1e15: the rounding
# noise in the reduced costs grows with the objective, so with a stop test on
# the fixed tolerance alone the simplex pivoted on it until the iteration limit.
LARGE_BOUND_LPS = [
    (200, Q(1, 2), 60, 2000), (20, Q(9, 10), 80, 562), (20, Q(9, 10), 40, 2000), (26, Q(4, 5), 44, 11974),
    (24, Q(5, 7), 50, 5000), (55, Q(1, 2), 30, 2000), (55, Q(1, 2), 40, 2000), (65, Q(1, 2), 40, 2000),
    (70, Q(1, 2), 30, 2000),
]


@pytest.mark.parametrize("n, s, d, grid", LARGE_BOUND_LPS)
def test_large_bound_lps_end_within_5000_pivots(monkeypatch, n, s, d, grid):
    monkeypatch.setattr(simplex, "_MAX_ITER", 5000)
    res = lp_bound(n, s, d, grid)
    assert res.float_bound > 1e8
    assert res.certificate is not None or res.rejection


def test_lp_bound_reads_a_float32_cosine():
    assert lp_bound(3, np.float32(0.5), 6).certificate.bound == lp_bound(3, 0.5, 6).certificate.bound


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: verify_certificate(3, 1, Poly([1, 1])), ValueError,
                 "cosine threshold must lie in [-1, 1)", id="cos-1"),
    pytest.param(lambda: verify_certificate(3, "-11/10", Poly([1, 1])), ValueError,
                 "cosine threshold must lie in [-1, 1)", id="cos-below-minus-1"),
])
def test_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
