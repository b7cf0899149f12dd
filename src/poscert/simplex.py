"""Dense tableau simplex for small linear programs.

Solves   max c.x  subject to  A x <= b,  x >= 0,  with b >= 0,
so the slack basis is immediately feasible. Pivot columns are chosen by
Dantzig's rule (most negative reduced cost) while the objective makes
progress; after a run of degenerate pivots the solver switches to
Bland's rule, which rules out cycling. Problem sizes here are tiny (a
handful of rows, a few thousand columns), so a dense tableau is the
right tool.
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


def simplex_max(c, A, b) -> SimplexResult:
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if (b < 0).any():
        raise ValueError("simplex_max requires b >= 0")

    # Tableau rows: m constraint rows [A | I | b], then the objective row
    # [-c | 0 | 0]. Basis starts at the slacks.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)

    stall = 0
    for _ in range(_MAX_ITER):
        costs = T[m, : n + m]
        if stall < _DEGENERATE_RUN:
            enter = int(np.argmin(costs))
            if costs[enter] >= -_TOL:
                break
        else:
            neg = np.nonzero(costs < -_TOL)[0]
            if neg.size == 0:
                break
            enter = int(neg[0])  # Bland: lowest-index improving column

        col = T[:m, enter]
        pos = col > _TOL
        if not pos.any():
            return SimplexResult("unbounded", np.inf, T[m, : n + m].copy())
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
        stall = stall + 1 if T[m, -1] <= before + _TOL else 0
    else:  # pragma: no cover - Bland's rule terminates
        raise RuntimeError("simplex iteration limit exceeded")

    return SimplexResult("optimal", float(T[m, -1]), T[m, : n + m].copy())
