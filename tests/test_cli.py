import json

import numpy as np
import pytest

from poscert.cli import run


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


def test_bound_infeasible_exit_code():
    res = run(["bound", "spherical-code", "--dim", "4", "--cos", "1/2", "--degree", "1",
               "--grid", "100"])
    assert res.exit_code == 1
    assert "infeasible" in res.payload["reason"]


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


@pytest.mark.parametrize("argv, limit", [
    pytest.param(["check", "preserver", "--power", "0.5", "--dim", "3", "--trials", "-1"], ">= 1",
                 id="preserver-trials-negative"),
    pytest.param(["check", "preserver", "--power", "0.5", "--dim", "3", "--trials", "0"], ">= 1",
                 id="preserver-trials-zero"),
    pytest.param(["schur", "verify", "--N", "3", "--degree", "6", "--trials", "0"], ">= 1",
                 id="schur-trials-zero"),
    pytest.param(["schur", "verify", "--N", "8", "--degree", "12"], "between 1 and 7", id="schur-N-8"),
    pytest.param(["lattice", "info", "--name", "Z128"], "between 1 and 64", id="lattice-Z128"),
    pytest.param(["lattice", "info", "--name", "Z256", "--json"], "between 1 and 64", id="lattice-Z256"),
])
def test_sizes_rejected_up_front(argv, limit):
    res = run(argv)
    assert res.exit_code == 2
    assert limit in res.payload["reason"]


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
