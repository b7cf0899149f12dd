"""Revised simplex for small linear programs with many columns.

Solves   max c.x  subject to  A x <= b,  x >= 0,  with b >= 0,
so the slack basis is immediately feasible. Pivot columns are chosen by
Dantzig's rule (most negative reduced cost). Against cycling, x_B starts
from b raised by a small amount that differs from row to row (Charnes
1952): basic values then rarely tie at zero, so pivots make progress
where Dantzig's rule on the exact b can cycle. The reported objective is
y.b with the unperturbed b. A solve stops once no reduced cost is below
-max(tol, 16 eps |c_B x_B|): their rounding noise grows with the
objective, and a test on tol alone pivots on that noise at large bounds.
The LPs here have a handful of rows and thousands of columns, so the
solver keeps only the m x m inverse of the basis (the revised method of
Dantzig and Orchard-Hays, 1954): each iteration prices every column in
one matrix-vector product, and a pivot rewrites B^-1, never the columns.
The ratio test runs on Python floats: for up to about 40 rows a loop
over m numbers costs less than the dozen numpy calls it replaces. One
:class:`Tableau` lives across the rounds of a constraint-generation
loop: columns added after a solve enter against the last basis, which
stays primal feasible because b does not change, and the next solve
resumes from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-9
_NOISE = 16 * np.finfo(float).eps  # the float noise of a reduced cost, per unit of |c_B x_B|
_MAX_ITER = 200_000  # some LPs at cos 4/5 and 9/10 in dimensions 22-29 still reach it (README, "delsarte")
_PERTURB = 2.0**-30  # row i of x_B starts at b_i + _PERTURB (i + 1) / m


@dataclass
class SimplexResult:
    status: str  # "optimal" or "unbounded"
    objective: float
    # The reduced costs y.a_j - c_j at termination: the n structural
    # columns, then the m slack columns, whose entries are the dual values
    # y / shadow prices of a max problem.
    reduced_costs: np.ndarray
    pivots: int  # made by this solve


class Tableau:
    """The dense tableau [[B^-1 A, B^-1], [y A - c, y]], y = c_B B^-1, in factors.

    That tableau is E T0 with T0 = [[A, I], [-c, 0]] and E = [[B^-1, 0], [y, 1]].
    ``cols`` holds T0, which a solve only reads; added columns go in before the
    slack block, which stays last. ``inv`` holds E and the right-hand side
    E (b', 0) = (x_B, c_B x_B), b' the perturbed b: the (m + 1) x (m + 2)
    numbers that a pivot rewrites.
    """

    def __init__(self, c, A, b):
        b = np.asarray(b, dtype=float)
        m = b.size
        if b.shape != (m,):
            raise ValueError("inconsistent LP dimensions")
        if (b < 0).any():
            raise ValueError("the simplex requires b >= 0")
        self.m, self.n, self.b = m, 0, b
        self.cols = np.eye(m + 1, m)
        self.inv = np.eye(m + 1, m + 2)
        self.inv[:m, m + 1] = b + _PERTURB * np.arange(1, m + 1) / m
        self.basis = np.arange(m)
        Tableau.add_columns(self, c, A)  # the class's own: an override may expect a finished tableau

    def add_columns(self, c, A) -> None:
        """Append columns A with costs c; the basis and E stay as they are."""
        c, A = np.asarray(c, dtype=float), np.asarray(A, dtype=float)
        m, n, k = self.m, self.n, c.size
        if c.ndim != 1 or A.shape != (m, k):
            raise ValueError("inconsistent LP dimensions")
        self.cols = np.concatenate((self.cols[:, :n], np.vstack((A, -c)), self.cols[:, n:]), axis=1)
        self.basis[self.basis >= n] += k
        self.n += k

    def solve(self) -> SimplexResult:
        """Pivot from the current basis until no reduced cost is negative."""
        inv, basis, m = self.inv, self.basis, self.m
        x, y, E = inv[:m, m + 1], inv[m, : m + 1], inv[:, : m + 1]
        pivots = 0
        for _ in range(_MAX_ITER):
            costs = y @ self.cols  # the objective row (y, 1) T0
            enter = int(costs.argmin())
            if costs.item(enter) >= -max(_TOL, _NOISE * abs(inv.item(m, m + 1))):  # Python floats, cheaper here
                break

            col = E @ self.cols[:, enter]  # the tableau column: B^-1 a, reduced cost
            ratios = [xi / ci if ci > _TOL else np.inf for xi, ci in zip(x.tolist(), col[:m].tolist())]
            best = min(ratios, default=np.inf)
            if best == np.inf:
                return SimplexResult("unbounded", np.inf, costs, pivots)
            ties = [i for i, r in enumerate(ratios) if r <= best + _TOL]
            leave = min(ties, key=basis.__getitem__)  # lowest-index tie-break

            piv, col[leave] = col[leave], 0.0
            inv[leave] /= piv
            inv -= col[:, None] * inv[leave]
            basis[leave] = enter
            pivots += 1
        else:  # Dantzig's rule on the perturbed b can still fail to end in floats at small angles
            raise RuntimeError("simplex iteration limit exceeded")

        # y.b, not c_B x_B: over long runs x_B drifts further than y does
        return SimplexResult("optimal", float(inv[m, :m] @ self.b), costs, pivots)


simplex_max = Tableau.solve  # the name delsarte calls, so a tracer can wrap each solve
