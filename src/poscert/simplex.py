"""Dense tableau simplex for small linear programs.

Solves   max c.x  subject to  A x <= b,  x >= 0,  with b >= 0,
so the slack basis is immediately feasible. Pivot columns are chosen by
Dantzig's rule (most negative reduced cost) while the objective makes
progress; after a run of degenerate pivots the solver switches to
Bland's rule, which rules out cycling. Problem sizes here are tiny (a
handful of rows, a few thousand columns), so a dense tableau is the
right tool. One :class:`Tableau` lives across the rounds of a
constraint-generation loop: columns added after a solve enter against
the last basis, which stays primal feasible because b does not change,
and the next solve resumes from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-9
_MAX_ITER = 200_000
_DEGENERATE_RUN = 40  # consecutive zero-progress pivots before Bland kicks in


@dataclass
class SimplexResult:
    status: str  # "optimal" or "unbounded"
    objective: float
    # The objective row at termination: the n reduced costs of the
    # structural columns, then the m slack columns, whose entries are the
    # dual values / shadow prices of a max problem.
    reduced_costs: np.ndarray
    pivots: int  # made by this solve
    bland: bool  # whether Bland's rule engaged in this solve


class Tableau:
    """Rows [B^-1 A | B^-1 | B^-1 b], then the objective row [y A - c | y | y b]
    with y = c_B B^-1; the slack block starts as I, so it holds B^-1 and y."""

    def __init__(self, c, A, b):
        c, A, b = (np.asarray(x, dtype=float) for x in (c, A, b))
        m, n = A.shape
        if b.shape != (m,) or c.shape != (n,):
            raise ValueError("inconsistent LP dimensions")
        if (b < 0).any():
            raise ValueError("the simplex requires b >= 0")
        self.m, self.n = m, n
        self.T = np.zeros((m + 1, n + m + 1))
        self.T[:m, :n], self.T[m, :n] = A, -c
        self.T[:m, n:-1] = np.eye(m)
        self.T[:m, -1] = b
        self.basis = np.arange(n, n + m)

    def add_columns(self, c, A) -> None:
        """Append columns A with costs c as B^-1 a, with reduced cost y.a - c_j."""
        c, A = np.asarray(c, dtype=float), np.asarray(A, dtype=float)
        m, n = self.m, self.n
        if c.ndim != 1 or A.shape != (m, c.size):
            raise ValueError("inconsistent LP dimensions")
        new = self.T[:, n : n + m] @ A
        new[m] -= c
        self.T = np.concatenate((self.T[:, :n], new, self.T[:, n:]), axis=1)
        self.basis[self.basis >= n] += c.size
        self.n += c.size

    def solve(self) -> SimplexResult:
        """Pivot from the current basis until no reduced cost is negative."""
        T, basis, m = self.T, self.basis, self.m
        stall, pivots, bland = 0, 0, False
        for _ in range(_MAX_ITER):
            costs = T[m, :-1]
            if stall < _DEGENERATE_RUN:
                enter = int(np.argmin(costs))
                if costs[enter] >= -_TOL:
                    break
            else:
                bland = True
                neg = np.nonzero(costs < -_TOL)[0]
                if neg.size == 0:
                    break
                enter = int(neg[0])  # Bland: lowest-index improving column

            col = T[:m, enter]
            pos = col > _TOL
            if not pos.any():
                return SimplexResult("unbounded", np.inf, T[m, :-1].copy(), pivots, bland)
            ratios = np.full(m, np.inf)
            ratios[pos] = T[:m, -1][pos] / col[pos]
            best = ratios.min()
            ties = np.nonzero(ratios <= best + _TOL)[0]
            leave = int(ties[np.argmin(basis[ties])])  # Bland tie-break

            before = T[m, -1]
            piv = T[leave, enter]
            T[leave] /= piv
            colvals = T[:, enter].copy()
            colvals[leave] = 0.0
            T -= np.outer(colvals, T[leave])
            basis[leave] = enter
            pivots += 1
            stall = stall + 1 if T[m, -1] <= before + _TOL else 0
        else:  # pragma: no cover - Bland's rule terminates
            raise RuntimeError("simplex iteration limit exceeded")

        return SimplexResult("optimal", float(T[m, -1]), T[m, :-1].copy(), pivots, bland)


simplex_max = Tableau.solve  # the name delsarte calls, so a tracer can wrap each solve
