import math
from fractions import Fraction as Q

import numpy as np
import pytest

from poscert import delsarte
from poscert.delsarte import (
    BoundCertificate,
    CertificateRejection,
    LpInfeasible,
    SphericalCode,
    blichfeldt_density_bound,
    classical_upper_bounds,
    code_upper_bound_check,
    cohn_zhao_density_bound,
    hermite_gamma_upper,
    known_certificate,
    lp_bound,
    verify_certificate,
)
from poscert.gegenbauer import gegenbauer_values
from poscert.polycore import Poly
from poscert.simplex import Tableau


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
    back = BoundCertificate.from_json_dict(d)
    assert back.bound == c.bound
    assert back.coeffs == c.coeffs


# Exact optima: 3 for degree 1 at cos -1/2, 2n at cos 0 (cross-polytope)
# and n + 1 at cos -1/n (regular simplex). The float scan finds nothing
# above rounding noise there, so the slack is 0 and the bound is exact.
@pytest.mark.parametrize("n, s, d, grid, value", [
    pytest.param(3, Q(-1, 2), 1, 200, 3, id="dim3-deg1-cos-half"),
    pytest.param(5, Q(-1, 2), 1, 200, 3, id="dim5-deg1-cos-half"),
    pytest.param(8, Q(-1, 2), 1, 200, 3, id="dim8-deg1-cos-half"),
    pytest.param(5, Q(0), 8, 2000, 10, id="dim5-deg8-cos0"),
    pytest.param(12, Q(0), 10, 2000, 24, id="dim12-deg10-cos0"),
    pytest.param(4, Q(-1, 4), 6, 2000, 5, id="dim4-deg6-cos-quarter"),
    pytest.param(10, Q(-1, 10), 8, 2000, 11, id="dim10-deg8-cos-tenth"),
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


def test_lp_bound_overshoot_between_grid_points(verify_calls):
    # f exceeds 0 by about 3.6 near t = -0.43 between grid points; the
    # float bound grows with the grid, so no slack on c_0 = 1 can help.
    res = lp_bound(20, Q(1, 2), 8, grid=2000)
    assert res.certificate is None
    assert res.rejection.startswith("f exceeds 0 between grid points by 3.6")
    assert res.rejection.endswith("so c_0 = 1 cannot absorb it")
    assert not verify_calls


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


def full_grid_optimum(n, s, d, grid):
    # the dual LP over every grid column at once, as one tableau
    ts = -1.0 + (float(s) + 1.0) * (np.arange(grid + 1) / grid)
    ts[-1] = float(s)
    res = Tableau(np.ones(grid + 1), -gegenbauer_values(n, d, ts)[1:], np.ones(d)).solve()
    assert res.status == "optimal"
    return 1.0 + res.objective


@pytest.mark.parametrize("n, s, d, grid", [
    pytest.param(8, Q(1, 2), 12, 60000, id="dim8-deg12-grid60000"),
    pytest.param(12, Q(1, 2), 11, 100000, id="dim12-deg11-grid100000"),
    pytest.param(24, Q(1, 2), 10, 50000, id="dim24-deg10-grid50000"),
    pytest.param(3, Q(1, 2), 40, 2000, id="dim3-deg40-grid2000"),
    pytest.param(5, Q(0), 8, 2000, id="dim5-deg8-cos0"),
    pytest.param(3, Q(1, 2), 50, 150, id="dim3-deg50-whole-grid-at-start"),
])
def test_working_set_optimum_is_the_grid_optimum(n, s, d, grid):
    value = full_grid_optimum(n, s, d, grid)
    assert abs(lp_bound(n, s, d, grid).float_bound - value) <= 1e-8 * value


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


def spherical_code(points):
    pts = np.asarray(points, dtype=float)
    return SphericalCode(pts.shape[1], tuple(map(tuple, pts)))


def square_code():
    pts = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    return spherical_code(pts)


def right_angle_certificate():
    # f = t^2 + t is <= 0 on [-1, 0]; for n = 2 its coefficients are
    # (1/2, 1, 1/2) with bound f(1)/c_0 = 4 = A(2, pi/2).
    return verify_certificate(2, Q(0), Poly([0, 1, 1]))


def test_code_upper_bound_trivial_pair():
    cert = verify_certificate(3, Q(-1), Poly([1, 1]))
    code = spherical_code(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
    assert code_upper_bound_check(code, cert)


def test_code_upper_bound_square():
    cert = right_angle_certificate()
    assert cert.bound == 4
    assert code_upper_bound_check(square_code(), cert)


def test_code_upper_bound_e8_equality():
    from poscert.lattice import e8_coordinate_lattice, short_vectors

    lat = e8_coordinate_lattice()
    coords = short_vectors(lat, 2)
    assert len(coords) == 240
    pts = lat.embed(coords) / math.sqrt(2.0)
    code = spherical_code(pts)
    assert code.min_cosine <= 0.5 + 1e-12
    cert = known_certificate("paper-8")
    assert code_upper_bound_check(code, cert)
    assert len(code) == cert.bound == 240


def test_code_upper_bound_mismatches():
    cert = known_certificate("paper-8")
    code3 = spherical_code(np.eye(3))
    with pytest.raises(ValueError):
        code_upper_bound_check(code3, cert)
    tight = spherical_code(np.array([[1.0, 0], [0.9, math.sqrt(1 - 0.81)]]))
    with pytest.raises(ValueError):
        code_upper_bound_check(tight, right_angle_certificate())


def test_code_validation():
    with pytest.raises(ValueError):
        spherical_code(np.array([[1.0, 1.0]]))


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
        code = spherical_code(np.array(pts))
        assert code_upper_bound_check(code, cert)


def test_classical_bounds():
    assert blichfeldt_density_bound(8) == pytest.approx(0.3125)
    assert hermite_gamma_upper(8) == pytest.approx((4 / 3) ** 3.5)
    assert hermite_gamma_upper(8) > 2.0  # strictly above the true gamma_8
    assert cohn_zhao_density_bound(8, math.pi / 3, 240) == pytest.approx(0.9375)
    with pytest.raises(ValueError):
        cohn_zhao_density_bound(8, 0.5, 240)
    rep = classical_upper_bounds(8, theta=math.pi / 3, code_bound=240)
    assert rep["cohn_zhao"] == pytest.approx(0.9375)
    rep = classical_upper_bounds(4)
    assert "cohn_zhao" not in rep
