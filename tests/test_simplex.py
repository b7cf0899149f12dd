import itertools

import numpy as np
import pytest

from poscert import simplex
from poscert.simplex import Tableau


def test_optimum_and_duals():
    # max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18: optimum 36 at
    # (2, 6), where the second and third rows bind with duals 3/2 and 1.
    A = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
    b = np.array([4.0, 12.0, 18.0])
    res = Tableau([3.0, 5.0], A, b).solve()
    assert res.status == "optimal"
    assert res.objective == pytest.approx(36.0, abs=1e-12)
    duals = res.reduced_costs[2:]
    assert duals == pytest.approx([0.0, 1.5, 1.0], abs=1e-12)
    # strong duality and dual feasibility
    assert b @ duals == pytest.approx(res.objective, abs=1e-12)
    assert (A.T @ duals >= np.array([3.0, 5.0]) - 1e-12).all()
    assert (res.reduced_costs[:2] >= -1e-12).all()


def test_unbounded():
    # x may grow without limit along -x + y <= 1
    res = Tableau([1.0, 1.0], [[-1.0, 1.0]], [1.0]).solve()
    assert res.status == "unbounded"
    assert res.objective == np.inf


# Chvatal's cycling example ("Linear Programming", 1983, ch. 3): every
# pivot from the origin is degenerate, and Dantzig's rule with the
# lowest-index tie-break returns to the starting basis after six pivots.
CYCLING = ([10.0, -57.0, -9.0, -24.0],
           [[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]],
           [0.0, 0.0, 1.0])


def test_perturbed_b_ends_the_cycle():
    res = Tableau(*CYCLING).solve()
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-12)
    assert res.reduced_costs[4:] == pytest.approx([0.0, 18.0, 1.0], abs=1e-12)
    assert res.pivots == 4


def test_without_perturbation_the_cycle_never_ends(monkeypatch):
    # the same LP on the exact b hits the iteration limit, so the run above
    # owes its end to the perturbation
    monkeypatch.setattr(simplex, "_PERTURB", 0.0)
    monkeypatch.setattr(simplex, "_MAX_ITER", 1000)
    with pytest.raises(RuntimeError, match="iteration limit"):
        Tableau(*CYCLING).solve()


def test_rejects_negative_b_and_bad_shapes():
    with pytest.raises(ValueError, match="b >= 0"):
        Tableau([1.0], [[1.0]], [-1.0])
    with pytest.raises(ValueError, match="inconsistent"):
        Tableau([1.0, 2.0], [[1.0]], [1.0])


LP_3X2 = ([3.0, 5.0], [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]], [4.0, 12.0, 18.0])


@pytest.mark.parametrize("lp, split", [(LP_3X2, 1), (CYCLING, 2)], ids=["3x2", "cycling"])
def test_added_columns_resume_to_the_cold_optimum(lp, split):
    c, A, b = (np.asarray(x, dtype=float) for x in lp)
    cold = Tableau(c, A, b).solve()
    tableau = Tableau(c[:split], A[:, :split], b)
    assert tableau.solve().status == "optimal"
    tableau.add_columns(c[split:], A[:, split:])
    # the basic columns, renumbered past the new ones, still give B^-1 B = I over zero
    # reduced costs: E = [[B^-1, 0], [y, 1]] maps them to I over a zero cost row
    E = tableau.inv[:, :-1]
    assert E @ tableau.cols[:, tableau.basis] == pytest.approx(np.eye(len(b) + 1, len(b)), abs=1e-12)
    warm = tableau.solve()
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    # structural reduced costs in the original column order, then the duals
    assert warm.reduced_costs == pytest.approx(cold.reduced_costs, abs=1e-12)


def test_added_columns_keep_the_slack_block_last():
    # batches of 1, 2, 1, 4, 3 and 10 columns after 2, each added after a solve
    rng = np.random.default_rng(0)
    m, sizes = 3, [2, 1, 2, 1, 4, 3, 10]
    c = rng.integers(1, 5, sum(sizes)) + np.arange(sum(sizes), dtype=float)  # later columns enter
    A = rng.integers(1, 5, (m, sum(sizes))).astype(float)
    b = np.array([4.0, 7.0, 5.0])
    tableau, n = Tableau(c[:2], A[:, :2], b), 2
    for k in sizes[1:]:
        tableau.solve()
        before = tableau.basis.copy()
        tableau.add_columns(c[n:n + k], A[:, n:n + k])
        n += k
        T0 = np.vstack((np.hstack((A[:, :n], np.eye(m))), np.concatenate((-c[:n], np.zeros(m)))))
        assert np.array_equal(tableau.cols, T0)
        # the slack indices shift past the new columns; the structural ones stay
        assert np.array_equal(tableau.basis, np.where(before >= n - k, before + k, before))
        E = tableau.inv[:, :-1]
        assert E @ tableau.cols[:, tableau.basis] == pytest.approx(np.eye(m + 1, m), abs=1e-12)
    assert tableau.solve().objective == pytest.approx(Tableau(c, A, b).solve().objective, abs=1e-12)


@pytest.mark.parametrize("b0, basis", [(4.0, [2, 3, 1]), (4.0 - 8e-9, [1, 3, 0])], ids=["tie", "no-tie"])
def test_ratio_test_breaks_ties_by_the_lowest_basis_index(b0, basis):
    # x0 enters first and takes row 2 (slack 4 leaves), so B^-1 = diag(1, 1, 1/8). Then x1
    # enters with tableau column (4, tol, 1/2): row 1 would allow the shortest step,
    # (0 + 2^-30 2/3) / tol = 0.62, but an entry <= tol never limits it. Rows 0 and 2 both
    # allow a step of 1 + O(2^-32), a tie within tol, and x0 (index 0, in the later row) leaves
    # rather than slack 2 (row 0). With b0 8e-9 lower the rows no longer tie, and slack 2 leaves.
    b = np.array([b0, 0.0, 4.0])
    tableau = Tableau([3.0], [[0.0], [0.0], [8.0]], b)
    assert tableau.solve().pivots == 1
    assert tableau.basis.tolist() == [1, 2, 0]
    tableau.add_columns([2.0], [[4.0], [simplex._TOL], [4.0]])
    assert tableau.basis.tolist() == [2, 3, 0]
    res = tableau.solve()
    assert res.status == "optimal" and res.pivots == 1
    assert tableau.basis.tolist() == basis


def test_added_column_can_make_the_lp_unbounded():
    # max x s.t. x <= 1, then y with cost 1 enters along x - y <= 1
    tableau = Tableau([1.0], [[1.0]], [1.0])
    assert tableau.solve().objective == pytest.approx(1.0, abs=1e-12)
    tableau.add_columns([1.0], [[-1.0]])
    res = tableau.solve()
    assert res.status == "unbounded"
    assert res.objective == np.inf


def test_each_solve_reports_its_pivots():
    tableau = Tableau(*LP_3X2)
    assert tableau.solve().pivots == 2
    assert tableau.solve().pivots == 0  # already optimal: nothing to do


def vertex_optimum(c, A, b):
    """max c.x s.t. A x <= b, x >= 0 by enumerating bases; None if unbounded.

    Each nonsingular m-column block B of [A | I] gives a primal basic
    solution B^-1 b and a dual one y = B^-T c_B. The LP is bounded exactly
    when some dual basic solution is feasible (A^T y >= c, y >= 0), and then
    the best feasible primal and dual basic solutions have the same value.
    """
    m, n = A.shape
    M, cz = np.hstack((A, np.eye(m))), np.concatenate((c, np.zeros(m)))
    primal, dual = [], []
    for idx in map(list, itertools.combinations(range(n + m), m)):
        B = M[:, idx]
        if abs(np.linalg.det(B)) < 0.5:  # integer data: a nonsingular B has |det| >= 1
            continue
        z, y = np.linalg.solve(B, b), np.linalg.solve(B.T, cz[idx])
        if (z >= -1e-12).all():
            primal.append(cz[idx] @ z)
        if (M.T @ y >= cz - 1e-12).all():
            dual.append(b @ y)
    if not dual:
        return None
    assert max(primal) == pytest.approx(min(dual), abs=1e-9)
    return max(primal)


@pytest.mark.parametrize("seed, rows, cols", [pytest.param(s, 3, 6, id=str(s)) for s in range(8)]
                         + [pytest.param(s, 5, 8, id=f"5x8-{s}") for s in range(8)])
def test_matches_vertex_enumeration(seed, rows, cols):
    # small integer LPs, so that ties, zeros in b and degenerate vertices are common;
    # the perturbation of b alone keeps the degenerate ones from cycling
    rng = np.random.default_rng(seed)
    for _ in range(40):
        m, n = int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1))
        c = rng.integers(-2, 4, n).astype(float)
        A = rng.integers(-1, 4, (m, n)).astype(float)
        b = rng.integers(0, 3, m).astype(float)
        best = vertex_optimum(c, A, b)
        warm = Tableau(c[: n // 2], A[:, : n // 2], b)
        warm.solve()
        warm.add_columns(c[n // 2 :], A[:, n // 2 :])
        for res in (Tableau(c, A, b).solve(), warm.solve()):
            if best is None:
                assert res.status == "unbounded", (seed, c, A, b)
                continue
            assert res.status == "optimal", (seed, c, A, b)
            assert res.objective == pytest.approx(best, abs=1e-9)
            # duals may not be unique at a degenerate optimum: they must be dual
            # optimal, and the structural entries their reduced costs
            y = res.reduced_costs[n:]
            assert (y >= -1e-9).all() and b @ y == pytest.approx(best, abs=1e-9)
            assert res.reduced_costs[:n] == pytest.approx(A.T @ y - c, abs=1e-9)
            assert (res.reduced_costs[:n] >= -1e-9).all()
