import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from poscert import cli
from poscert.cli import (
    MAX_DIM, MAX_GEGENBAUER_K, MAX_LP_DEGREE, MAX_LP_ENTRIES, MAX_MIDCONVEX_SAMPLES, MAX_PRESERVER_DIM,
    MAX_SCHUR_DEGREE, MAX_SCHUR_N, MAX_SCHUR_TRIALS, run,
)
from poscert.entrywise import MAX_WITNESS_BLOCK
from poscert.lattice import MAX_Z_RANK


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_bound_kissing_fixture():
    res = run(["bound", "kissing", "--cert", "paper-8"])
    assert res.exit_code == 0
    assert res.payload["bound"] == "240"
    assert res.payload["gegenbauer_coeffs"][0] == "1"
    res = run(["bound", "kissing", "--cert", "paper-24"])
    assert res.exit_code == 0
    assert res.payload["bound"] == "196560"


def test_bound_spherical_code():
    res = run(["bound", "spherical-code", "--dim", "4", "--cos=-1/2", "--degree", "2",
               "--grid", "200"])
    assert res.exit_code == 0
    assert res.payload["certificate"] is not None
    assert abs(res.payload["float_bound"] - 3.0) < 1e-6
    # degree 200 needs the float recurrence on the grid
    res = run(["bound", "spherical-code", "--dim", "3", "--cos", "1/2", "--degree", "200"])
    assert res.exit_code == 0 and res.payload["certificate"] is not None
    assert abs(res.payload["float_bound"] - 13.158225) < 1e-5


def test_bound_infeasible_exit_code():
    res = run(["bound", "spherical-code", "--dim", "4", "--cos", "1/2", "--degree", "1",
               "--grid", "100"])
    assert res.exit_code == 1
    assert "infeasible" in res.payload["reason"]


def test_bound_without_certificate_exit_code():
    # feasible on the grid, but f exceeds 0 between grid points by about 3.6
    res = run(["bound", "spherical-code", "--dim", "20", "--cos", "1/2", "--degree", "8"])
    assert res.exit_code == 1
    assert res.payload["certificate"] is None
    assert res.payload["reason"] == f"no certificate: {res.payload['rejection']}"
    assert "f exceeds 0 between grid points by 3.6" in res.payload["reason"]


def test_check_psd(tmp_path):
    path = write(tmp_path, "id3.json", {"n": 3, "rows": np.eye(3).tolist()})
    res = run(["check", "psd", path])
    assert res.exit_code == 0 and res.payload["is_psd"]
    path = write(tmp_path, "bad.json", {"n": 2, "rows": [[1, 2], [2, 1]]})
    res = run(["check", "psd", path])
    assert res.exit_code == 1 and not res.payload["is_psd"]


def test_check_psd_rejects_asymmetric(tmp_path):
    path = write(tmp_path, "asym.json", {"n": 2, "rows": [[1, 2], [2.5, 1]]})
    res = run(["check", "psd", path])
    assert res.exit_code == 2


def test_check_preserver_deterministic():
    a = run(["check", "preserver", "--power", "0.5", "--dim", "3"])
    b = run(["check", "preserver", "--power", "0.5", "--dim", "3"])
    assert a.exit_code == b.exit_code == 0
    assert a.payload["witness"] is not None
    assert a.payload == b.payload
    c = run(["check", "preserver", "--power", "2", "--dim", "3"])
    assert c.exit_code == 0 and c.payload["witness"] is None


def test_check_preserver_certifies_where_floats_cannot():
    # the failure at (12, 9.5) is about 1e-21 of the spectral scale
    res = run(["check", "preserver", "--power", "9.5", "--dim", "12"])
    w = res.payload["witness"]
    assert res.exit_code == 0 and w["power"] == "19/2" and len(w["x"]) == len(w["w"]) == 12
    assert Fraction(w["upper"]) < 0


@pytest.mark.parametrize("argv, power", [
    pytest.param(["--power", "1/3", "--dim", "6"], "1/3", id="one-third"),
    pytest.param(["--power=-1/3", "--dim", "6"], "-1/3", id="minus-one-third"),
    pytest.param(["--power", "0.1", "--dim", "3"], "1/10", id="decimal"),
])
def test_check_preserver_reads_the_power_as_the_library_does(argv, power):
    # polycore.rat reads --power as it reads --cos: a p/q, a negative one after "=", a decimal exactly
    res = run(["check", "preserver", *argv])
    assert res.exit_code == 0
    assert res.payload["power"] == res.payload["witness"]["power"] == power


def test_check_psd_reads_the_tolerance_as_the_library_does(tmp_path):
    # polycore.rat reads --tol as it reads --cos; psd_check gets the nearest float
    res = run(["check", "psd", write(tmp_path, "eye.json", {"rows": [[1, 0], [0, 1]]}), "--tol", "1/3"])
    assert res.exit_code == 0 and res.payload["tol"] == float(Fraction(1, 3))


@pytest.mark.parametrize("tol", ["1e400", "-1e400"])
def test_check_psd_refuses_a_tolerance_beyond_the_float_range(tmp_path, tol):
    res = run(["check", "psd", write(tmp_path, "eye.json", {"rows": [[1, 0], [0, 1]]}), f"--tol={tol}"])
    assert res.exit_code == 2 and res.payload["reason"] == f"--tol '{tol}' is beyond the float range"


def test_check_midconvex(tmp_path):
    good = write(tmp_path, "exp.json",
                 {"samples": [[1.0, 2.718281828], [2.0, 7.389056099], [4.0, 54.598150033]]})
    res = run(["check", "midconvex", good])
    assert res.exit_code == 0
    bad = write(tmp_path, "dec.json", {"samples": [[1.0, 2.0], [2.0, 1.0]]})
    res = run(["check", "midconvex", bad])
    assert res.exit_code == 1 and not res.payload["nondecreasing"]


def test_embed_round_trips_into_check_psd(tmp_path):
    dist = write(tmp_path, "dist.json", {"rows": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]})
    res = run(["embed", "euclidean", dist])
    assert res.exit_code == 0 and res.payload["dim"] == 1
    gram_path = write(tmp_path, "gram.json", res.payload["gram"])
    res2 = run(["check", "psd", gram_path])
    assert res2.exit_code == 0 and res2.payload["is_psd"]


def test_embed_failures(tmp_path):
    star = write(tmp_path, "star.json",
                 {"rows": [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]})
    res = run(["embed", "euclidean", star])
    assert res.exit_code == 1 and "witness_eigenvalue" in res.payload
    far = write(tmp_path, "far.json", {"rows": [[0, 3.5], [3.5, 0]]})
    res = run(["embed", "sphere", far])
    assert res.exit_code == 1 and res.payload["reason"].startswith("diameter")


def test_lattice_info_json():
    res = run(["lattice", "info", "--name", "E8", "--json"])
    assert res.exit_code == 0
    assert res.payload["rank"] == 8
    assert res.payload["lambda1_sq"] == "2"
    assert res.payload["kissing"] == 240
    assert res.payload["covolume_sq"] == "1"
    res = run(["lattice", "info", "--name", "Zork"])
    assert res.exit_code == 2


def test_lattice_info_leech_json():
    res = run(["lattice", "info", "--name", "Leech", "--json"])
    assert res.exit_code == 0
    assert res.payload["rank"] == 24
    assert res.payload["lambda1_sq"] == "4"
    assert res.payload["kissing"] == 196560


def test_schur_verify():
    res = run(["schur", "verify", "--N", "3", "--degree", "6", "--seed", "0", "--trials", "4"])
    assert res.exit_code == 0 and res.payload["agree"]
    # N = 12 needs the polynomial-time determinant: about 1 s
    res = run(["schur", "verify", "--N", "12", "--degree", "12", "--trials", "1"])
    assert res.exit_code == 0 and res.payload["agree"]


def test_schur_verify_reports_a_series_mismatch(monkeypatch):
    formula = cli.schurdet.det_series_formula

    def off_by_one(f, u, v, cutoff):  # the constant coefficient, one too large
        series = formula(f, u, v, cutoff)
        return cli.schurdet.TruncatedSeries.make(cutoff, (series.coeffs[0] + 1,) + series.coeffs[1:])

    monkeypatch.setattr(cli.schurdet, "det_series_formula", off_by_one)
    res = run(["schur", "verify", "--N", "3", "--degree", "4", "--seed", "0", "--trials", "2"])
    assert res.exit_code == 1
    assert res.payload["agree"] is False and res.payload["reason"] == "series mismatch"
    assert len(res.payload["u"]) == len(res.payload["v"]) == 3 and len(res.payload["f"]) == 5


@pytest.mark.parametrize("argv, limit", [
    pytest.param(["check", "preserver", "--power", "38.5", "--dim", "50"], f"|power| < {MAX_WITNESS_BLOCK - 2}",
                 id="preserver-block-above-limit"),
    pytest.param(["check", "preserver", "--power", "-38.5", "--dim", "50"], f"|power| < {MAX_WITNESS_BLOCK - 2}",
                 id="preserver-negative-power-below-limit"),
    pytest.param(["check", "preserver", "--power", "0.5", "--dim", str(MAX_PRESERVER_DIM + 1)],
                 f"argument --dim: must be between 2 and {MAX_PRESERVER_DIM}", id="preserver-dim-above-limit"),
    pytest.param(["schur", "verify", "--N", "3", "--degree", "6", "--trials", "0"],
                 f"argument --trials: must be between 1 and {MAX_SCHUR_TRIALS}, got 0", id="schur-trials-zero"),
    pytest.param(["schur", "verify", "--N", "3", "--degree", "6", "--trials", str(MAX_SCHUR_TRIALS + 1)],
                 f"argument --trials: must be between 1 and {MAX_SCHUR_TRIALS}, got {MAX_SCHUR_TRIALS + 1}",
                 id="schur-trials-above-limit"),
    pytest.param(["schur", "verify", "--N", str(MAX_SCHUR_N + 1), "--degree", "12"],
                 f"between 1 and {MAX_SCHUR_N}", id=f"schur-N-{MAX_SCHUR_N + 1}"),
    pytest.param(["schur", "verify", "--N", "10", "--degree", str(MAX_SCHUR_DEGREE + 1)],
                 f"argument --degree: must be between 0 and {MAX_SCHUR_DEGREE}", id="schur-degree-above-limit"),
    pytest.param(["gegenbauer", "--dim", "3", "--k", str(MAX_GEGENBAUER_K + 1)],
                 f"argument --k: must be between 0 and {MAX_GEGENBAUER_K}", id="gegenbauer-k-above-limit"),
    pytest.param(["bound", "spherical-code", "--dim", "3", "--cos", "1/2", "--degree",
                  str(MAX_LP_DEGREE + 1)], f"argument --degree: must be between 0 and {MAX_LP_DEGREE}",
                 id="spherical-code-degree-above-limit"),
    pytest.param(["bound", "spherical-code", "--dim", "3", "--cos", "1/2", "--degree", "4",
                  "--grid", str(MAX_LP_ENTRIES // 5 + 1)],
                 f"--grid must be at most {MAX_LP_ENTRIES // 5} at --degree 4",
                 id="spherical-code-grid-above-limit"),
    pytest.param(["lattice", "info", "--name", f"Z{MAX_Z_RANK + 1}", "--json"], f"between 1 and {MAX_Z_RANK}",
                 id="lattice-Z-above-limit"),
    pytest.param(["gegenbauer", "--dim", str(MAX_DIM + 1), "--k", "2"],
                 f"argument --dim: must be between 2 and {MAX_DIM}", id="gegenbauer-dim-above-limit"),
    pytest.param(["gegenbauer", "--dim", "100000000", "--expand", {"poly": [0, 1]}],
                 f"argument --dim: must be between 2 and {MAX_DIM}", id="expand-dim-above-limit"),
    pytest.param(["bound", "spherical-code", "--dim", str(10**400), "--cos", "1/2", "--degree", "6"],
                 f"argument --dim: must be between 2 and {MAX_DIM}", id="spherical-code-dim-above-limit"),
    pytest.param(["check", "midconvex", {"samples": [[x, x] for x in range(1, MAX_MIDCONVEX_SAMPLES + 2)]}],
                 f"at most {MAX_MIDCONVEX_SAMPLES} samples, got {MAX_MIDCONVEX_SAMPLES + 1}",
                 id="midconvex-samples-above-limit"),
])
def test_sizes_rejected_up_front(tmp_path, argv, limit):
    # a dict in argv stands for a JSON file holding it
    argv = [write(tmp_path, "in.json", a) if isinstance(a, dict) else a for a in argv]
    res = run(argv)
    assert res.exit_code == 2
    assert limit in res.payload["reason"]


@pytest.mark.parametrize("argv, payload, reason", [
    pytest.param(["bound", "spherical-code", "--dim", "3", "--cos", "1/0", "--degree", "4"], None,
                 "zero denominator in '1/0'", id="cos-zero-denominator"),
    pytest.param(["check", "psd", "FILE"], [1, 2], "expected a JSON object", id="psd-list"),
    pytest.param(["check", "midconvex", "FILE"], [1, 2], "expected a JSON object", id="midconvex-list"),
    pytest.param(["embed", "euclidean", "FILE"], [1, 2], "expected a JSON object", id="embed-list"),
    pytest.param(["gegenbauer", "--dim", "3", "--expand", "FILE"], [1, 2], "expected a JSON object",
                 id="expand-list"),
    pytest.param(["check", "psd", "FILE"], {"rows": [[1, 0], [0]]}, "row 1 has 1 entries, row 0 has 2",
                 id="psd-ragged"),
    pytest.param(["embed", "euclidean", "FILE"], {"rows": [[0, 1, 2], [1, 0], [2, 1, 0]]},
                 "row 1 has 2 entries, row 0 has 3", id="embed-ragged"),
    pytest.param(["check", "psd", "FILE"], {"rows": [1, 2]}, '"rows" must be a list of lists',
                 id="psd-flat-rows"),
    pytest.param(["check", "psd", "FILE"], {"n": 2}, 'missing key "rows"', id="psd-missing-rows"),
    pytest.param(["check", "midconvex", "FILE"], {"samples": [1, 2]},
                 '"samples" must be a list of [x, f(x)] pairs of numbers', id="midconvex-flat-samples"),
    pytest.param(["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": [[1]]},
                 '"poly" must be a list of finite numbers or rational strings', id="expand-nested-poly"),
    pytest.param(["check", "psd", "FILE", "--tol", "nan"], {"rows": [[1, 2], [2, 1]]},
                 "'nan' is not a finite number", id="psd-tol-nan"),
    pytest.param(["check", "psd", "FILE", "--tol", "inf"], {"rows": [[1, 2], [2, 1]]},
                 "'inf' is not a finite number", id="psd-tol-inf"),
    pytest.param(["check", "midconvex", "FILE"], {"samples": [[1, float("nan")]]},
                 "sample [x, f(x)] = [1.0, nan] is not finite", id="midconvex-nan"),
    pytest.param(["check", "midconvex", "FILE"], {"samples": [[1, 2], [float("inf"), 3]]},
                 "sample [x, f(x)] = [inf, 3.0] is not finite", id="midconvex-inf"),
    pytest.param(["check", "midconvex", "FILE"], {"samples": [[1, 2], [2, 10**400]]},
                 '"samples" must be a list of [x, f(x)] pairs of numbers within the float range',
                 id="midconvex-int-1e400"),
    pytest.param(["check", "psd", "FILE"], {"rows": [[1, 0], [0, -10**400]]},
                 "row 1 has an integer beyond the float range", id="psd-int-1e400"),
    pytest.param(["embed", "euclidean", "FILE"], {"rows": [[0, 10**400], [10**400, 0]]},
                 "row 0 has an integer beyond the float range", id="euclidean-int-1e400"),
    pytest.param(["check", "psd", "FILE"], {"rows": [[1, 0], [0, True]]},
                 "in.json: row 1 has an entry that is not a number", id="psd-true"),
    pytest.param(["check", "psd", "FILE"], {"rows": [[None]]},
                 "in.json: row 0 has an entry that is not a number", id="psd-null"),
    pytest.param(["embed", "euclidean", "FILE"], {"rows": [[0, False], [False, 0]]},
                 "in.json: row 0 has an entry that is not a number", id="euclidean-false"),
    pytest.param(["check", "midconvex", "FILE"], {"samples": [[1, True], [2, 3]]},
                 'in.json: "samples" must be a list of [x, f(x)] pairs of numbers', id="midconvex-true"),
    pytest.param(["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": [True]},
                 'in.json: "poly" must be a list of finite numbers or rational strings', id="expand-true"),
    pytest.param(["embed", "euclidean", "FILE"], {"rows": [[0, 1e200], [1e200, 0]]},
                 "squared distances overflow the float range", id="euclidean-square-overflow"),
    pytest.param(["check", "preserver", "--power", "nan", "--dim", "3"], None,
                 "'nan' is not a finite number", id="preserver-power-nan"),
    pytest.param(["check", "preserver", "--power", "inf", "--dim", "3"], None,
                 "'inf' is not a finite number", id="preserver-power-inf"),
    pytest.param(["embed", "sphere", "FILE"], {"rows": [[0, float("inf")], [float("inf"), 0]]},
                 "distances must be finite, got inf at (0, 1), inf at (1, 0)", id="sphere-inf"),
    pytest.param(["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": [1, float("nan")]},
                 "nan is not a finite number", id="expand-nan"),
    pytest.param(["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": [1] * (MAX_GEGENBAUER_K + 2)},
                 f"degree must be at most {MAX_GEGENBAUER_K}, got {MAX_GEGENBAUER_K + 1}",
                 id="expand-degree-above-limit"),
    pytest.param(["bound", "spherical-code", "--dim", "3", "--cos", "nan", "--degree", "4"], None,
                 "'nan' is not a finite number", id="cos-nan"),
    pytest.param(["bound", "spherical-code", "--dim", "3", "--cos", "1e-999999999", "--degree", "4"], None,
                 "the exponent of '1e-999999999' reaches", id="cos-exponent-above-limit"),
    pytest.param(["bound", "spherical-code", "--dim", "3", "--cos", "1e" + "0" * 5000 + "1", "--degree", "4"], None,
                 "the exponent of '1e00000", id="cos-exponent-with-5001-digits"),
    pytest.param(["bound", "spherical-code", "--dim", "3", "--cos", "1" * 5000, "--degree", "4"], None,
                 "a run of digits in '11111", id="cos-5000-digits"),
    pytest.param(["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": ["1e99999999"]},
                 "the exponent of '1e99999999' reaches", id="expand-exponent-above-limit"),
    pytest.param(["gegenbauer", "--dim", "3", "--k", "4", "--expand", "FILE"], {"poly": [1]},
                 "argument --expand: not allowed with argument --k", id="gegenbauer-k-and-expand"),
])
def test_malformed_input_is_usage_error(tmp_path, argv, payload, reason):
    if payload is not None:
        path = write(tmp_path, "in.json", payload)
        argv = [path if a == "FILE" else a for a in argv]
    res = run(argv)
    assert res.exit_code == 2
    assert reason in res.payload["reason"]


def case(code, label, argv, payload=None):
    return pytest.param(argv, payload, code, id=f"{code}-{label}")


# Every subcommand with valid (0), failing (1) and malformed (2) inputs. A
# payload is written with json.dumps, so NaN and Infinity reach the loaders
# as the JSON extensions Python's json module reads.
SC = ("bound", "spherical-code")
NAN = float("nan")
INF = float("inf")
STAR = [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]
CONTRACT_CASES = [
    case(0, "gegenbauer-k", ["gegenbauer", "--dim", "3", "--k", "4"]),
    case(0, "expand", ["gegenbauer", "--dim", "5", "--expand", "FILE"], {"poly": ["1/2", 0, 3.5]}),
    case(0, "gegenbauer-dim-at-limit", ["gegenbauer", "--dim", str(MAX_DIM), "--k", "4"]),
    case(2, "gegenbauer-dim-1", ["gegenbauer", "--dim", "1", "--k", "2"]),
    case(2, "gegenbauer-no-k", ["gegenbauer", "--dim", "3"]),
    case(2, "gegenbauer-dim-not-int", ["gegenbauer", "--dim", "x", "--k", "2"]),
    case(2, "expand-inf", ["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": [INF]}),
    case(2, "expand-nan", ["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": [NAN]}),
    case(2, "expand-zero-den", ["gegenbauer", "--dim", "4", "--expand", "FILE"], {"poly": ["1/0"]}),
    case(2, "expand-true", ["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": [True]}),
    case(0, "spherical-code", [*SC, "--dim", "4", "--cos=-1/2", "--degree", "2", "--grid", "200"]),
    case(1, "infeasible", [*SC, "--dim", "4", "--cos", "1/2", "--degree", "1", "--grid", "100"]),
    case(1, "degree-0", [*SC, "--dim", "3", "--cos", "1/2", "--degree", "0"]),
    case(2, "cos-1", [*SC, "--dim", "3", "--cos", "1", "--degree", "4"]),
    case(2, "cos-nan", [*SC, "--dim", "3", "--cos", "nan", "--degree", "4"]),
    case(0, "spherical-code-dim-at-limit", [*SC, "--dim", str(MAX_DIM), "--cos", "0", "--degree", "2"]),
    case(2, "spherical-code-dim-1", [*SC, "--dim", "1", "--cos", "1/2", "--degree", "4"]),
    case(2, "grid-below-degree", [*SC, "--dim", "3", "--cos", "1/2", "--degree", "4", "--grid", "3"]),
    case(2, "spherical-code-no-degree", [*SC, "--dim", "3", "--cos", "1/2"]),
    case(0, "kissing", ["bound", "kissing", "--cert", "paper-8"]),
    case(2, "kissing-unknown-cert", ["bound", "kissing", "--cert", "paper-9"]),
    case(0, "psd", ["check", "psd", "FILE"], {"rows": [[2, 1], [1, 2]]}),
    case(1, "not-psd", ["check", "psd", "FILE"], {"rows": [[1, 2], [2, 1]]}),
    case(0, "psd-1e308-diagonal", ["check", "psd", "FILE"], {"rows": [[1e308, 0], [0, 1]]}),
    case(1, "psd-eigenvalue-overflow", ["check", "psd", "FILE"],  # eigenvalues 3.4e308 (twice), -1.7e308
         {"rows": [[1.7e308, 1.7e308, 1.7e308], [1.7e308, 1.7e308, -1.7e308], [1.7e308, -1.7e308, 1.7e308]]}),
    case(2, "psd-min-eigenvalue-overflow", ["check", "psd", "FILE"], {"rows": [[-1.7e308] * 2] * 2}),
    case(2, "psd-tol-negative", ["check", "psd", "FILE", "--tol", "-1"], {"rows": [[1, 2], [2, 1]]}),
    case(2, "psd-nan", ["check", "psd", "FILE"], {"rows": [[1, NAN], [NAN, 1]]}),
    case(2, "psd-inf", ["check", "psd", "FILE"], {"rows": [[1, INF], [INF, 1]]}),
    case(2, "psd-int-1e400", ["check", "psd", "FILE"], {"rows": [[1, 10**400], [10**400, 1]]}),
    case(2, "psd-not-square", ["check", "psd", "FILE"], {"rows": [[1, 2]]}),
    case(2, "psd-string", ["check", "psd", "FILE"], {"rows": [["a"]]}),
    case(2, "psd-true", ["check", "psd", "FILE"], {"rows": [[True]]}),
    case(2, "psd-null", ["check", "psd", "FILE"], {"rows": [[None]]}),
    case(0, "preserver", ["check", "preserver", "--power", "0.5", "--dim", "3"]),
    case(0, "preserver-power-200", ["check", "preserver", "--power", "200", "--dim", "4"]),
    case(0, "preserver-power-negative", ["check", "preserver", "--power", "-0.5", "--dim", "1500"]),
    case(0, "preserver-power-37.5-dim-40", ["check", "preserver", "--power", "37.5", "--dim", "40"]),
    case(2, "preserver-power-180.5-dim-190", ["check", "preserver", "--power", "180.5", "--dim", "190"]),
    case(2, "preserver-power-minus-38", ["check", "preserver", "--power", "-38", "--dim", "3"]),
    case(2, "preserver-seed", ["check", "preserver", "--power", "0.5", "--dim", "3", "--seed", "1"]),
    case(2, "preserver-trials", ["check", "preserver", "--power", "0.5", "--dim", "3", "--trials", "20"]),
    case(2, "preserver-dim-1", ["check", "preserver", "--power", "0.5", "--dim", "1"]),
    case(2, "preserver-power-not-float", ["check", "preserver", "--power", "half", "--dim", "3"]),
    case(0, "midconvex", ["check", "midconvex", "FILE"], {"samples": [[1, 1], [2, 2], [4, 4]]}),
    case(0, "midconvex-constant-1e200", ["check", "midconvex", "FILE"],
         {"samples": [[1, 1e200], [2, 1e200], [4, 1e200]]}),
    case(1, "midconvex-decreasing", ["check", "midconvex", "FILE"], {"samples": [[1, 2], [2, 1]]}),
    case(1, "midconvex-1e250", ["check", "midconvex", "FILE"], {"samples": [[1e150, 1], [1e200, 10], [1e250, 10]]}),
    case(2, "midconvex-x-0", ["check", "midconvex", "FILE"], {"samples": [[0, 1]]}),
    case(2, "midconvex-unsorted", ["check", "midconvex", "FILE"], {"samples": [[2, 1], [1, 2]]}),
    case(2, "midconvex-int-1e400", ["check", "midconvex", "FILE"], {"samples": [[1, 1], [2, 10**400]]}),
    case(2, "midconvex-true", ["check", "midconvex", "FILE"], {"samples": [[1, True], [2, 3]]}),
    case(0, "euclidean", ["embed", "euclidean", "FILE"], {"rows": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}),
    case(1, "euclidean-star", ["embed", "euclidean", "FILE"], {"rows": STAR}),
    case(2, "euclidean-nan", ["embed", "euclidean", "FILE"], {"rows": [[0, NAN], [NAN, 0]]}),
    case(2, "euclidean-asymmetric", ["embed", "euclidean", "FILE"], {"rows": [[0, 1], [2, 0]]}),
    case(2, "euclidean-int-1e400", ["embed", "euclidean", "FILE"], {"rows": [[0, 10**400], [10**400, 0]]}),
    case(2, "euclidean-square-overflow", ["embed", "euclidean", "FILE"], {"rows": [[0, 1e200], [1e200, 0]]}),
    case(0, "sphere", ["embed", "sphere", "FILE"], {"rows": [[0, 1], [1, 0]]}),
    case(1, "sphere-diameter", ["embed", "sphere", "FILE"], {"rows": [[0, 3.5], [3.5, 0]]}),
    case(2, "sphere-inf", ["embed", "sphere", "FILE"], {"rows": [[0, INF], [INF, 0]]}),
    case(2, "sphere-negative", ["embed", "sphere", "FILE"], {"rows": [[0, -1], [-1, 0]]}),
    case(0, "lattice", ["lattice", "info", "--name", "D4", "--json"]),
    case(2, "lattice-Z0", ["lattice", "info", "--name", "Z0"]),
    case(0, "lattice-Z256", ["lattice", "info", "--name", "Z256"]),
    case(2, "lattice-Z257", ["lattice", "info", "--name", "Z257"]),
    case(2, "lattice-Z01", ["lattice", "info", "--name", "Z01"]),
    case(2, "lattice-Z-arabic-indic-3", ["lattice", "info", "--name", "Z\u0663"]),
    case(2, "lattice-unknown", ["lattice", "info", "--name", "Zork"]),
    case(0, "schur", ["schur", "verify", "--N", "3", "--degree", "4", "--trials", "2"]),
    case(2, "schur-N-0", ["schur", "verify", "--N", "0", "--degree", "4"]),
    case(2, "schur-degree-negative", ["schur", "verify", "--N", "3", "--degree", "-1"]),
    case(2, "schur-N-not-int", ["schur", "verify", "--N", "three", "--degree", "4"]),
    case(0, "tables", ["tables", "--dims", "1", "2"]),
    case(2, "tables-dim-9", ["tables", "--dims", "9"]),
    case(2, "tables-dim-not-int", ["tables", "--dims", "x"]),
    case(2, "no-command", []),
    case(2, "unknown-command", ["frobnicate"]),
    case(2, "check-no-subcommand", ["check"]),
]


@pytest.mark.parametrize("argv, payload, code", CONTRACT_CASES)
@pytest.mark.filterwarnings("error")
def test_cli_contract(tmp_path, argv, payload, code):
    # exit 0/1/2, a payload that is strict JSON, a reason on 1 and 2, and
    # no warning (numpy reports an overflow as a RuntimeWarning on stderr)
    if payload is not None:
        path = write(tmp_path, "in.json", payload)
        argv = [path if a == "FILE" else a for a in argv]
    res = run(argv)
    assert res.exit_code == code
    json.dumps(res.payload, allow_nan=False)
    assert code == 0 or res.payload["reason"]


@pytest.mark.parametrize("exc, reason", [
    pytest.param(RuntimeError("simplex iteration limit exceeded"), "simplex iteration limit exceeded",
                 id="RuntimeError"),
    pytest.param(OverflowError("int too large to convert to float"), "int too large to convert to float",
                 id="OverflowError"),
    pytest.param(MemoryError(), "MemoryError", id="MemoryError"),
])
def test_runtime_error_is_a_failed_run(monkeypatch, exc, reason):
    def fails(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_tables", fails)
    res = run(["tables"])
    assert res.exit_code == 1
    assert res.payload["reason"] == f"computation failed: {reason}"


def test_tables_subset():
    res = run(["tables", "--json", "--dims", "1", "2", "3", "4"])
    assert res.exit_code == 0
    assert res.payload["all_match"]
    assert len(res.payload["rows"]) == 4


def test_tables_unsupported_dimension():
    res = run(["tables", "--dims", "9"])
    assert res.exit_code == 2
    assert res.payload["reason"] == (
        "unsupported table dimension(s) [9]; supported dimensions are 1-8 and 24"
    )


def test_tables_mismatch_reaches_the_cli(monkeypatch):
    from poscert import lattice

    name, _, kissing = lattice._TABLE[3]
    monkeypatch.setitem(lattice._TABLE, 3, (name, Fraction(3), kissing))
    res = run(["tables", "--dims", "2", "3"])
    assert res.exit_code == 1
    rows = {line.split()[0]: line for line in res.text.splitlines()}
    assert rows["2"].endswith(" ok") and rows["3"].endswith(" MISMATCH")
    res = run(["tables", "--json", "--dims", "2", "3"])
    assert res.exit_code == 1
    assert [(r["n"], r["match"]) for r in res.payload["rows"]] == [(2, True), (3, False)]


def test_missing_file_is_usage_error():
    res = run(["check", "psd", "/nonexistent/nope.json"])
    assert res.exit_code == 2 and "reason" in res.payload


def test_gegenbauer_expand(tmp_path, monkeypatch):
    # one back-substitution, whichever namespace it is reached through: the
    # classical coefficients are rescaled from the same expansion
    calls = []
    original = cli.to_gegenbauer_basis

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "to_gegenbauer_basis", counted)
    monkeypatch.setattr(importlib.import_module("poscert.gegenbauer"), "to_gegenbauer_basis", counted)
    poly = write(tmp_path, "p.json", {"poly": ["0", "0", "1"]})  # t^2
    res = run(["gegenbauer", "--dim", "3", "--expand", poly])
    assert res.exit_code == 0
    assert len(calls) == 1
    # t^2 = 1/3 G_0 + 2/3 G_2 for the Legendre family, whose classical
    # normalization is the same
    assert res.payload == {"dim": 3, "coeffs": ["1/3", "0", "2/3"], "classical_coeffs": ["1/3", "0", "2/3"]}
    res = run(["gegenbauer", "--dim", "3", "--k", "2"])
    assert res.payload["poly"] == ["-1/2", "0", "3/2"]


def test_expand_reads_a_json_float_as_the_decimal_it_prints_as(tmp_path):
    # as --power does: 0.1 is 1/10, not the double 3602879701896397/2^55
    res = run(["gegenbauer", "--dim", "3", "--expand", write(tmp_path, "p.json", {"poly": [0.1]})])
    assert res.exit_code == 0 and res.payload["coeffs"] == ["1/10"]


def _main(*argv):
    """poscert.cli run as a program: the process, with its stdout and stderr as pipes."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    return subprocess.Popen([sys.executable, "-m", "poscert.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def test_main_prints_a_usage_error_as_one_json_line_on_stderr():
    with _main("check", "preserver", "--power", "nan", "--dim", "3") as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2 and out == b"" and err.decode().count("\n") == 1
    assert json.loads(err) == {"reason": "'nan' is not a finite number"}


def test_main_prints_the_text_rendering():
    with _main("lattice", "info", "--name", "D4") as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == b""
    assert out.decode().splitlines()[:3] == ["lattice D4: rank 4", "  lambda1^2   = 2", "  kissing     = 24"]


def test_main_leaves_stderr_empty_when_the_reader_stops_early():
    # `| head -c 20` on a 1.3 MB payload: no traceback, and no "Exception ignored" line at exit either
    with _main("gegenbauer", "--dim", "3", "--k", "1700") as proc:
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 0
