import importlib
import json

import numpy as np
import pytest

from poscert import cli
from poscert.cli import (
    MAX_GEGENBAUER_K, MAX_LP_DEGREE, MAX_LP_ENTRIES, MAX_PRESERVER_DIM, MAX_SCHUR_DEGREE,
    MAX_SCHUR_N, run,
)
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
    a = run(["check", "preserver", "--power", "0.5", "--dim", "3", "--seed", "1"])
    b = run(["check", "preserver", "--power", "0.5", "--dim", "3", "--seed", "1"])
    assert a.exit_code == b.exit_code == 0
    assert a.payload["witness"] is not None
    assert a.payload == b.payload
    c = run(["check", "preserver", "--power", "2", "--dim", "3"])
    assert c.exit_code == 0 and c.payload["witness"] is None


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


@pytest.mark.parametrize("argv, limit", [
    pytest.param(["check", "preserver", "--power", "0.5", "--dim", "3", "--trials", "-1"], ">= 1",
                 id="preserver-trials-negative"),
    pytest.param(["check", "preserver", "--power", "0.5", "--dim", "3", "--trials", "0"], ">= 1",
                 id="preserver-trials-zero"),
    pytest.param(["check", "preserver", "--power", "0.5", "--dim", str(MAX_PRESERVER_DIM + 1)],
                 f"--dim must be between 2 and {MAX_PRESERVER_DIM}", id="preserver-dim-above-limit"),
    pytest.param(["schur", "verify", "--N", "3", "--degree", "6", "--trials", "0"], ">= 1",
                 id="schur-trials-zero"),
    pytest.param(["schur", "verify", "--N", str(MAX_SCHUR_N + 1), "--degree", "12"],
                 f"between 1 and {MAX_SCHUR_N}", id=f"schur-N-{MAX_SCHUR_N + 1}"),
    pytest.param(["schur", "verify", "--N", "10", "--degree", str(MAX_SCHUR_DEGREE + 1)],
                 f"--degree must be between 0 and {MAX_SCHUR_DEGREE}", id="schur-degree-above-limit"),
    pytest.param(["gegenbauer", "--dim", "3", "--k", str(MAX_GEGENBAUER_K + 1)],
                 f"--k must be between 0 and {MAX_GEGENBAUER_K}", id="gegenbauer-k-above-limit"),
    pytest.param(["bound", "spherical-code", "--dim", "3", "--cos", "1/2", "--degree",
                  str(MAX_LP_DEGREE + 1)], f"--degree must be between 0 and {MAX_LP_DEGREE}",
                 id="spherical-code-degree-above-limit"),
    pytest.param(["bound", "spherical-code", "--dim", "3", "--cos", "1/2", "--degree", "4",
                  "--grid", str(MAX_LP_ENTRIES // 5 + 1)],
                 f"--grid must be at most {MAX_LP_ENTRIES // 5} at --degree 4",
                 id="spherical-code-grid-above-limit"),
    pytest.param(["lattice", "info", "--name", f"Z{MAX_Z_RANK + 1}", "--json"], f"between 1 and {MAX_Z_RANK}",
                 id="lattice-Z-above-limit"),
])
def test_sizes_rejected_up_front(argv, limit):
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
                 "tolerance must be finite and >= 0, got nan", id="psd-tol-nan"),
    pytest.param(["check", "psd", "FILE", "--tol", "inf"], {"rows": [[1, 2], [2, 1]]},
                 "tolerance must be finite and >= 0, got inf", id="psd-tol-inf"),
    pytest.param(["check", "midconvex", "FILE"], {"samples": [[1, float("nan")]]},
                 "sample [x, f(x)] = [1.0, nan] is not finite", id="midconvex-nan"),
    pytest.param(["check", "midconvex", "FILE"], {"samples": [[1, 2], [float("inf"), 3]]},
                 "sample [x, f(x)] = [inf, 3.0] is not finite", id="midconvex-inf"),
    pytest.param(["check", "preserver", "--power", "nan", "--dim", "3"], None,
                 "power must be finite, got nan", id="preserver-power-nan"),
    pytest.param(["check", "preserver", "--power", "inf", "--dim", "3"], None,
                 "power must be finite, got inf", id="preserver-power-inf"),
    pytest.param(["embed", "sphere", "FILE"], {"rows": [[0, float("inf")], [float("inf"), 0]]},
                 "distances must be finite, got inf at (0, 1), inf at (1, 0)", id="sphere-inf"),
    pytest.param(["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": [1, float("nan")]},
                 '"poly" must be a list of finite numbers or rational strings', id="expand-nan"),
    pytest.param(["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": [1] * (MAX_GEGENBAUER_K + 2)},
                 f"degree must be at most {MAX_GEGENBAUER_K}, got {MAX_GEGENBAUER_K + 1}",
                 id="expand-degree-above-limit"),
    pytest.param(["bound", "spherical-code", "--dim", "3", "--cos", "nan", "--degree", "4"], None,
                 "'nan' is not a finite number", id="cos-nan"),
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
    case(2, "gegenbauer-dim-1", ["gegenbauer", "--dim", "1", "--k", "2"]),
    case(2, "gegenbauer-no-k", ["gegenbauer", "--dim", "3"]),
    case(2, "gegenbauer-dim-not-int", ["gegenbauer", "--dim", "x", "--k", "2"]),
    case(2, "expand-inf", ["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": [INF]}),
    case(2, "expand-nan", ["gegenbauer", "--dim", "3", "--expand", "FILE"], {"poly": [NAN]}),
    case(2, "expand-zero-den", ["gegenbauer", "--dim", "4", "--expand", "FILE"], {"poly": ["1/0"]}),
    case(0, "spherical-code", [*SC, "--dim", "4", "--cos=-1/2", "--degree", "2", "--grid", "200"]),
    case(1, "infeasible", [*SC, "--dim", "4", "--cos", "1/2", "--degree", "1", "--grid", "100"]),
    case(1, "degree-0", [*SC, "--dim", "3", "--cos", "1/2", "--degree", "0"]),
    case(2, "cos-1", [*SC, "--dim", "3", "--cos", "1", "--degree", "4"]),
    case(2, "cos-nan", [*SC, "--dim", "3", "--cos", "nan", "--degree", "4"]),
    case(2, "spherical-code-dim-1", [*SC, "--dim", "1", "--cos", "1/2", "--degree", "4"]),
    case(2, "grid-below-degree", [*SC, "--dim", "3", "--cos", "1/2", "--degree", "4", "--grid", "3"]),
    case(2, "spherical-code-no-degree", [*SC, "--dim", "3", "--cos", "1/2"]),
    case(0, "kissing", ["bound", "kissing", "--cert", "paper-8"]),
    case(2, "kissing-unknown-cert", ["bound", "kissing", "--cert", "paper-9"]),
    case(0, "psd", ["check", "psd", "FILE"], {"rows": [[2, 1], [1, 2]]}),
    case(1, "not-psd", ["check", "psd", "FILE"], {"rows": [[1, 2], [2, 1]]}),
    case(0, "psd-1e308-diagonal", ["check", "psd", "FILE"], {"rows": [[1e308, 0], [0, 1]]}),
    case(2, "psd-tol-negative", ["check", "psd", "FILE", "--tol", "-1"], {"rows": [[1, 2], [2, 1]]}),
    case(2, "psd-nan", ["check", "psd", "FILE"], {"rows": [[1, NAN], [NAN, 1]]}),
    case(2, "psd-not-square", ["check", "psd", "FILE"], {"rows": [[1, 2]]}),
    case(2, "psd-string", ["check", "psd", "FILE"], {"rows": [["a"]]}),
    case(0, "preserver", ["check", "preserver", "--power", "0.5", "--dim", "3", "--trials", "20"]),
    case(2, "preserver-dim-1", ["check", "preserver", "--power", "0.5", "--dim", "1"]),
    case(2, "preserver-power-not-float", ["check", "preserver", "--power", "half", "--dim", "3"]),
    case(0, "midconvex", ["check", "midconvex", "FILE"], {"samples": [[1, 1], [2, 2], [4, 4]]}),
    case(0, "midconvex-constant-1e200", ["check", "midconvex", "FILE"],
         {"samples": [[1, 1e200], [2, 1e200], [4, 1e200]]}),
    case(1, "midconvex-decreasing", ["check", "midconvex", "FILE"], {"samples": [[1, 2], [2, 1]]}),
    case(1, "midconvex-1e250", ["check", "midconvex", "FILE"], {"samples": [[1e150, 1], [1e200, 10], [1e250, 10]]}),
    case(2, "midconvex-x-0", ["check", "midconvex", "FILE"], {"samples": [[0, 1]]}),
    case(2, "midconvex-unsorted", ["check", "midconvex", "FILE"], {"samples": [[2, 1], [1, 2]]}),
    case(0, "euclidean", ["embed", "euclidean", "FILE"], {"rows": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}),
    case(1, "euclidean-star", ["embed", "euclidean", "FILE"], {"rows": STAR}),
    case(2, "euclidean-nan", ["embed", "euclidean", "FILE"], {"rows": [[0, NAN], [NAN, 0]]}),
    case(2, "euclidean-asymmetric", ["embed", "euclidean", "FILE"], {"rows": [[0, 1], [2, 0]]}),
    case(0, "sphere", ["embed", "sphere", "FILE"], {"rows": [[0, 1], [1, 0]]}),
    case(1, "sphere-diameter", ["embed", "sphere", "FILE"], {"rows": [[0, 3.5], [3.5, 0]]}),
    case(2, "sphere-inf", ["embed", "sphere", "FILE"], {"rows": [[0, INF], [INF, 0]]}),
    case(2, "sphere-negative", ["embed", "sphere", "FILE"], {"rows": [[0, -1], [-1, 0]]}),
    case(0, "lattice", ["lattice", "info", "--name", "D4", "--json"]),
    case(2, "lattice-Z0", ["lattice", "info", "--name", "Z0"]),
    case(0, "lattice-Z256", ["lattice", "info", "--name", "Z256"]),
    case(2, "lattice-Z257", ["lattice", "info", "--name", "Z257"]),
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
