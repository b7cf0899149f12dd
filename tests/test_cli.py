import json

import numpy as np
import pytest

from poscert import cli
from poscert.cli import (
    MAX_GEGENBAUER_K, MAX_LP_DEGREE, MAX_LP_ENTRIES, MAX_PRESERVER_DIM, MAX_SCHUR_DEGREE,
    MAX_SCHUR_N, run,
)


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
    pytest.param(["lattice", "info", "--name", "Z128"], "between 1 and 64", id="lattice-Z128"),
    pytest.param(["lattice", "info", "--name", "Z256", "--json"], "between 1 and 64", id="lattice-Z256"),
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
                 '"poly" must be a list of numbers or rational strings', id="expand-nested-poly"),
])
def test_malformed_input_is_usage_error(tmp_path, argv, payload, reason):
    if payload is not None:
        path = write(tmp_path, "in.json", payload)
        argv = [path if a == "FILE" else a for a in argv]
    res = run(argv)
    assert res.exit_code == 2
    assert reason in res.payload["reason"]


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


def test_gegenbauer_expand(tmp_path):
    poly = write(tmp_path, "p.json", {"poly": ["0", "0", "1"]})  # t^2
    res = run(["gegenbauer", "--dim", "3", "--expand", poly])
    assert res.exit_code == 0
    # t^2 = 1/3 G_0 + 2/3 G_2 for the Legendre family
    assert res.payload["coeffs"] == ["1/3", "0", "2/3"]
    res = run(["gegenbauer", "--dim", "3", "--k", "2"])
    assert res.payload["poly"] == ["-1/2", "0", "3/2"]
