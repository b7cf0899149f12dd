"""Integers from outside, numpy's included, are read once as Python ints (polycore.integer, polycore.rat).

numpy keeps an int64 as it is through ``Fraction`` and integer arithmetic, where sums and products wrap
mod 2^64: each case below came out wrong, or was refused, before the reader converted them.
"""

import importlib
import json
from fractions import Fraction as Q

import numpy as np
import pytest

from poscert.delsarte import lp_bound
from poscert.entrywise import power_preserver_witness
from poscert.gegenbauer import gegenbauer, gegenbauer_values, normalized_moment
from poscert.lattice import BinaryCode, Lattice, lattice_invariants, leech_lattice, table_report
from poscert.polycore import integer, rat
from poscert.schurdet import det_series_direct, det_series_formula

gegenbauer_module = importlib.import_module("poscert.gegenbauer")


@pytest.mark.parametrize("x", [7, np.int64(7), np.uint8(7), np.int32(7)])
def test_integer_returns_a_python_int(x):
    n = integer(x, 2, "dimension")
    assert n == 7 and type(n) is int


@pytest.mark.parametrize("x, message", [
    (1, "dimension must be >= 2, got 1"),
    (np.int64(-3), "dimension must be >= 2, got -3"),
    (3.0, "dimension must be an integer, got 3.0"),
    (np.float64(3.0), "dimension must be an integer, got "),
    ("3", "dimension must be an integer, got '3'"),
    (Q(3), "dimension must be an integer, got Fraction(3, 1)"),
])
def test_integer_names_the_parameter(x, message):
    with pytest.raises(ValueError) as exc:
        integer(x, 2, "dimension")
    assert str(exc.value).startswith(message)


def test_rat_reads_a_numpy_integer_as_a_python_int():
    q = rat(np.int64(3_000_000_000))
    assert type(q.numerator) is int
    assert q**3 == 27 * 10**27  # int64: -2,666,827,603,905,609,728


def test_lattice_with_a_numpy_gram_is_exact():
    lat = Lattice("D", np.int64(4), np.diag([10**6] * 4))
    assert type(lat.rank) is int and all(type(x.numerator) is int for row in lat.gram for x in row)
    assert lat.covolume_sq == 10**24
    inv = lattice_invariants(lat)
    assert (inv.lambda1_sq, inv.kissing) == (10**6, 8)


def test_leech_gram_times_3_as_int64_is_positive_definite():
    gram = np.array([[int(x) for x in row] for row in leech_lattice().gram], dtype=np.int64) * 3
    assert Lattice("3 Leech", 24, gram).covolume_sq == 3**24


@pytest.mark.parametrize("args", [(np.int64(8), Q(1, 2), 6), (np.int64(8), Q(1, 2), np.int64(6), np.int32(2000))])
def test_lp_bound_takes_numpy_integers(args):
    res = lp_bound(*args)
    assert type(res.certificate.dim) is int
    assert res.certificate.to_json_dict() == lp_bound(8, Q(1, 2), 6).certificate.to_json_dict()


def test_a_numpy_dimension_leaves_the_gegenbauer_tables_exact(monkeypatch):
    monkeypatch.setattr(gegenbauer_module, "_TABLES", {})
    assert gegenbauer(np.int64(24), 6) == gegenbauer(24, 6)
    assert all(type(c) is int for q, e in gegenbauer_module._TABLES[24] for c in q + (e,))
    res = lp_bound(24, Q(1, 2), 10)
    assert res.certificate.bound == Q(844208361996703, 4294703156)


def test_schur_sides_agree_on_numpy_integers():
    f = np.array([5, -3, 2, 7, 1, 9], dtype=np.int64) * 10**6
    u, v = np.array([1, 2, 3, 4], dtype=np.int64), np.array([5, 6, 7, 8], dtype=np.int64)
    direct, formula = det_series_direct(f, u, v, np.int64(9)), det_series_formula(f, u, v, np.int64(9))
    assert direct == formula == det_series_direct(f.tolist(), u.tolist(), v.tolist(), 9)
    assert type(direct.cutoff) is int and type(formula.cutoff) is int


@pytest.mark.parametrize("call, what", [
    pytest.param(lambda: lp_bound(3.0, Q(1, 2), 6), "dimension", id="lp_bound-n"),
    pytest.param(lambda: lp_bound(3, Q(1, 2), 6.0), "degree", id="lp_bound-d"),
    pytest.param(lambda: lp_bound(3, Q(1, 2), 6, 2000.0), "grid", id="lp_bound-grid"),
    pytest.param(lambda: gegenbauer(3, 2.0), "k", id="gegenbauer-k"),
    pytest.param(lambda: gegenbauer_values(3, 2.0, [0.5]), "kmax", id="gegenbauer_values-kmax"),
    pytest.param(lambda: normalized_moment(3, 2.0), "moment order", id="normalized_moment-j"),
    pytest.param(lambda: power_preserver_witness(3.0, Q(1, 2)), "dimension", id="power_preserver_witness-n"),
    pytest.param(lambda: Lattice("Z1", 1.0, ((1,),)), "rank", id="Lattice-rank"),
    pytest.param(lambda: det_series_direct([1], [1, 2], [1, 2], 1.0), "cutoff", id="det_series_direct-cutoff"),
    pytest.param(lambda: table_report([8.0]), "dimension", id="table_report-dims"),
    pytest.param(lambda: BinaryCode(3.0, [1]), "code length", id="BinaryCode-length"),
    pytest.param(lambda: BinaryCode(3, [1.9]), "generator row", id="BinaryCode-row"),
])
def test_a_float_where_an_integer_is_required_is_refused_by_name(call, what):
    with pytest.raises(ValueError, match=f"^{what} must be an integer, got "):
        call()


def test_table_report_reads_a_numpy_dimension_as_a_python_int():
    report = table_report([np.int64(2)])
    assert type(report["rows"][0]["n"]) is int
    assert json.loads(json.dumps(report)) == table_report([2])


def test_binary_code_of_length_0_is_refused():
    with pytest.raises(ValueError, match=r"^code length must be >= 1, got 0$"):
        BinaryCode(0, [1])


def test_grid_below_degree_plus_2_names_both():
    with pytest.raises(ValueError, match=r"^grid must be >= 8, got 7$"):
        lp_bound(3, Q(1, 2), 6, 7)
