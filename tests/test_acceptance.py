"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines and timings. Every tolerance is pinned here, not configurable.
"""

import itertools
import random
import time
from fractions import Fraction as Q

import numpy as np

from poscert.delsarte import lp_bound, verify_certificate
from poscert.entrywise import (
    DistanceMatrix,
    SymMatrix,
    apply_entrywise,
    euclidean_embed,
    power_preserver_witness,
    psd_check,
    schur_product,
    sphere_embed,
)
from poscert.gegenbauer import (
    gegenbauer,
    gegenbauer_gram_check,
    gegenbauer_via_generating_series,
    inner_product_normalized,
    to_gegenbauer_basis,
    to_jacobi_basis,
)
from poscert.lattice import (
    HAMMING_EXAMPLE_CODEWORDS,
    golay_code,
    hamming_distance,
    lattice_invariants,
    leech_lattice,
    min_weight,
    short_vectors,
    standard_lattice,
    table_report,
)
from poscert.polycore import Interval, Poly, certify_nonpositive
from poscert.schurdet import det_series_direct, det_series_formula
from random_matrices import random_psd


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


DISPLAYED_COEFFS_8 = [
    Q(1), Q(16, 7), Q(200, 63), Q(832, 231), Q(1216, 429), Q(5120, 3003), Q(2560, 4641),
]

DISPLAYED_COEFFS_24 = [
    Q(1), Q(48, 23), Q(1144, 425), Q(12992, 3825), Q(73888, 22185),
    Q(2169856, 687735), Q(59062016, 25365285), Q(4472832, 2753575),
    Q(23855104, 28956015), Q(7340032, 20376455), Q(7340032, 80848515),
]


def test_criterion_1_kissing_certificate_8():
    t0 = time.perf_counter()
    half = Q(1, 2)
    t = Poly.identity()
    f = (
        Poly.constant(Q(320, 3))
        * (t + Poly.constant(1))
        * (t + Poly.constant(half)) ** 2
        * t**2
        * (t - Poly.constant(half))
    )
    displayed = list(to_jacobi_basis(to_gegenbauer_basis(8, f)).coeffs)
    cert = verify_certificate(8, half, f)
    nonpos = certify_nonpositive(f, Interval(Q(-1), half))
    elapsed = time.perf_counter() - t0
    ok = (
        displayed == DISPLAYED_COEFFS_8
        and nonpos
        and cert.bound == 240
        and elapsed < 1.0
    )
    report(1, ok, f"coeffs exact, f<=0 on [-1,1/2], bound {cert.bound} ({elapsed:.3f}s)")


def test_criterion_2_kissing_certificate_24():
    t0 = time.perf_counter()
    half, quarter = Q(1, 2), Q(1, 4)
    t = Poly.identity()
    f = (
        Poly.constant(Q(1490944, 15))
        * (t + Poly.constant(1))
        * (t + Poly.constant(half)) ** 2
        * (t + Poly.constant(quarter)) ** 2
        * t**2
        * (t - Poly.constant(quarter)) ** 2
        * (t - Poly.constant(half))
    )
    displayed = list(to_jacobi_basis(to_gegenbauer_basis(24, f)).coeffs)
    cert = verify_certificate(24, half, f)
    elapsed = time.perf_counter() - t0
    ok = displayed == DISPLAYED_COEFFS_24 and cert.bound == 196560 and elapsed < 5.0
    report(2, ok, f"eleven coeffs exact, bound {cert.bound} ({elapsed:.3f}s)")


def test_criterion_3_lattice_table():
    t0 = time.perf_counter()
    rep = table_report(dims=(1, 2, 3, 4, 5, 6, 7, 8))
    elapsed = time.perf_counter() - t0
    rows = {r["n"]: r for r in rep["rows"]}
    known_kissing = {1: 2, 2: 6, 3: 12, 4: 24, 8: 240}
    ok = elapsed < 10.0 and rep["all_match"]
    for n, r in rows.items():
        ok = ok and r["gamma_match"] and r["density_match"]
        if n in known_kissing:
            ok = ok and r["kissing"] == known_kissing[n]
    # root-system counts for the rows the kissing table leaves open
    ok = ok and rows[5]["kissing"] == 40 and rows[6]["kissing"] == 72 and rows[7]["kissing"] == 126
    report(3, ok, f"gamma^n exact, densities within 1e-12, kissing counts match ({elapsed:.2f}s)")


def test_criterion_4_e8_and_leech_minimal_vectors():
    t0 = time.perf_counter()
    e8 = standard_lattice("E8")
    n240 = len(short_vectors(e8, 2))
    lat = leech_lattice()
    inv = lattice_invariants(lat)
    elapsed = time.perf_counter() - t0
    ok = (
        n240 == 240
        and lat.covolume_sq == 1
        and inv.lambda1_sq == 4
        and inv.kissing == 196560
        and elapsed < 600.0
    )
    report(4, ok, f"E8: {n240} at norm 2; Leech: det 1, min 4, {inv.kissing} ({elapsed:.1f}s)")


def test_criterion_5_golay():
    code = golay_code()
    dists = [
        hamming_distance(a, b)
        for a, b in itertools.combinations(HAMMING_EXAMPLE_CODEWORDS, 2)
    ]
    ok = len(code) == 4096 and min_weight(code) == 8 and all(d == 4 for d in dists)
    report(5, ok, f"{len(code)} words, min weight {min_weight(code)}, example distances {set(dists)}")


def test_criterion_6_lp_engine():
    t0 = time.perf_counter()
    res = lp_bound(8, Q(1, 2), 6, grid=2000)
    ok = abs(res.float_bound - 240.0) <= 0.005 * 240.0
    ok = ok and res.certificate is not None
    ok = ok and Q(240) <= res.certificate.bound <= Q(241)
    exact3 = True
    for n in (3, 5, 8):
        r1 = lp_bound(n, Q(-1, 2), 1, grid=500)
        exact3 = exact3 and abs(r1.float_bound - 3.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and exact3
    detail = (
        f"float {res.float_bound:.4f}, cert {float(res.certificate.bound):.4f} in [240,241], "
        f"degree-1 optimum exactly 3 ({elapsed:.2f}s)"
    )
    report(6, ok, detail)


def test_criterion_7_schur_determinant_identity():
    t0 = time.perf_counter()
    rng = random.Random(11)
    ok = True
    instances = 0
    for n in (1, 2, 3, 4):
        cutoff = n * (n - 1) // 2 + 6
        for _ in range(25):
            u = rng.sample(range(-9, 10), n)
            v = rng.sample(range(-9, 10), n)
            fc = [Q(rng.randint(-4, 4)) for _ in range(9)]
            a = det_series_direct(fc, u, v, cutoff)
            b = det_series_formula(fc, u, v, cutoff)
            ok = ok and a == b
            ok = ok and all(c == 0 for c in a.coeffs[: n * (n - 1) // 2])
            instances += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(7, ok, f"{instances} instances agree exactly, low orders vanish ({elapsed:.2f}s)")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(2024)
    ok = True

    # Schur-product closure, 500 trials
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        a, b = random_psd(n, rng), random_psd(n, rng)
        worst = min(worst, psd_check(schur_product(a, b)).min_eigenvalue)
    ok = ok and worst >= -1e-8

    # nonnegative-coefficient polynomials preserve psd, 500 trials
    worst_ps = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 10))
        a = random_psd(n, rng)
        d = np.sqrt(np.maximum(np.diag(a.entries), 1e-9))
        corr = SymMatrix(n, a.entries / np.outer(d, d))
        coeffs = rng.uniform(0, 1, size=int(rng.integers(1, 6)))
        worst_ps = min(worst_ps, psd_check(apply_entrywise(("poly", coeffs.tolist()), corr)).min_eigenvalue)
    ok = ok and worst_ps >= -1e-8

    # Gegenbauer Gram images stay psd, 200 trials
    worst_g = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 7))
        m = int(rng.integers(5, 51))
        pts = rng.standard_normal((m, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        worst_g = min(worst_g, gegenbauer_gram_check(n, k, pts))
    ok = ok and worst_g >= -1e-9

    # fractional powers below n-2 always witness; at or above never do
    witness_ok = True
    for n in (3, 4, 5):
        alphas = [a + 0.5 for a in range(0, n - 2)] + [0.1, n - 2 - 0.1]
        for alpha in alphas:
            if alpha == int(alpha) or alpha >= n - 2:
                continue
            witness_ok = witness_ok and power_preserver_witness(n, alpha, seed=7) is not None
        for alpha in (0.0, 1.0, float(n - 2), n - 2 + 0.5):
            witness_ok = witness_ok and power_preserver_witness(n, alpha, seed=7) is None
    ok = ok and witness_ok

    # embedding round trips within 1e-8
    emb_ok = True
    for _ in range(40):
        m, r = int(rng.integers(3, 8)), int(rng.integers(1, 5))
        pts = rng.standard_normal((m, r))
        d = DistanceMatrix(np.linalg.norm(pts[:, None] - pts[None, :], axis=2))
        res = euclidean_embed(d)
        back = np.linalg.norm(res.points[:, None] - res.points[None, :], axis=2)
        emb_ok = emb_ok and res.embeddable and np.abs(back - d.dists).max() < 1e-8
        sp = rng.standard_normal((m, max(r, 2)))
        sp /= np.linalg.norm(sp, axis=1, keepdims=True)
        dm = np.arccos(np.clip(sp @ sp.T, -1, 1))
        np.fill_diagonal(dm, 0.0)
        res = sphere_embed(DistanceMatrix((dm + dm.T) / 2))
        back = np.arccos(np.clip(res.points @ res.points.T, -1, 1))
        np.fill_diagonal(back, 0.0)
        emb_ok = emb_ok and res.embeddable and np.abs(back - dm).max() < 1e-8
    ok = ok and emb_ok

    detail = (
        f"schur min {worst:.2e}, poly min {worst_ps:.2e}, gegenbauer min {worst_g:.2e}, "
        f"power witnesses {'ok' if witness_ok else 'FAIL'}, embeddings {'ok' if emb_ok else 'FAIL'}"
    )
    report(8, ok, detail)


def test_criterion_9_orthogonality_and_series_agreement():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 13):
        fam = [gegenbauer(n, k) for k in range(11)]
        for j in range(11):
            for k in range(j + 1, 11):
                ok = ok and inner_product_normalized(n, fam[j], fam[k]) == 0
            ok = ok and inner_product_normalized(n, fam[j], fam[j]) > 0
    for n in range(2, 25):
        series = gegenbauer_via_generating_series(n, 12)
        for k in range(13):
            v = series[k](1)
            ok = ok and v != 0 and series[k] * Poly.constant(1 / v) == gegenbauer(n, k)
    elapsed = time.perf_counter() - t0
    report(9, ok, f"exact orthogonality n=2..12, series agreement n=2..24 to degree 12 ({elapsed:.2f}s)")
