"""Self-contained simplex solver for small L1 equality-feasibility problems.

Solves  min sum|A x - b|  subject to  x >= 0  by the standard linear program
min sum(p + q) s.t. A x + p - q = b, all variables nonnegative.  The optimum
is 0 exactly when A x = b has a nonnegative solution, and the optimal L1
residual bounds every entrywise residual from above, so the caller can use a
single tolerance for "feasible within tol".

Dense tableau with Bland's rule; intended for problems of a few dozen rows
and columns (the local-polytope membership LP is 17 x 50).
"""

from __future__ import annotations

import numpy as np

_COST_EPS = 1e-11
_PIVOT_EPS = 1e-12
_MAX_PIVOTS = 2000  # Bland's rule terminates in exact arithmetic; this caps round-off cycling


def l1_feasibility(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (x, residual) minimizing sum|a @ x - b| over x >= 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.size:
        raise ValueError(f"incompatible LP shapes {a.shape} and {b.shape}")
    m, n = a.shape

    # Flip rows so the right-hand side is nonnegative, then the +1 residual
    # columns form a feasible starting basis.
    signs = np.where(b < 0.0, -1.0, 1.0)
    tableau = np.zeros((m + 1, n + 2 * m + 1))
    tableau[:m, :n] = a * signs[:, None]
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, n + m:n + 2 * m] = -np.eye(m)
    tableau[:m, -1] = b * signs

    cost = np.zeros(n + 2 * m + 1)
    cost[n:-1] = 1.0
    basis = list(range(n, n + m))

    # Reduced-cost row for the initial basis (all basic columns cost 1): the
    # cost row minus each constraint row in turn, which a reduce along axis 0
    # does in the same order.
    tableau[m] = np.subtract.reduce(np.vstack([cost, tableau[:m]]), axis=0)

    reduced = tableau[m, :-1]  # a view, so it follows every pivot
    for _ in range(_MAX_PIVOTS):
        # Bland's rule: the lowest-index improving column enters.
        improving = (reduced < -_COST_EPS).nonzero()[0]
        if improving.size == 0:
            break
        entering = int(improving[0])

        # The ratio test runs on Python floats, read once per pivot: IEEE
        # division and comparison give the same bits as on float64 scalars.
        column = tableau[:, entering]
        coefs = column[:m].tolist()
        rhs = tableau[:m, -1].tolist()
        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            coef = coefs[i]
            if coef > _PIVOT_EPS:
                ratio = rhs[i] / coef
                if ratio < best_ratio - _PIVOT_EPS or (
                    abs(ratio - best_ratio) <= _PIVOT_EPS
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("L1 feasibility LP is unbounded; inputs are malformed")

        tableau[leaving, :] /= tableau[leaving, entering]
        # Only rows with a nonzero entry change, so the others keep their exact
        # bits (a -0.0 stays -0.0).
        changed = column != 0.0
        changed[leaving] = False
        np.subtract(tableau, column[:, None] * tableau[leaving], out=tableau, where=changed[:, None])
        basis[leaving] = entering
    else:
        raise RuntimeError(f"simplex did not converge within {_MAX_PIVOTS} pivots")

    # max keeps its first argument on a tie, so max(-0.0, 0.0) is -0.0; adding
    # 0.0 turns that into 0.0 and keeps every other value, NaN included.
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = max(tableau[i, -1], 0.0) + 0.0
    residual = max(-float(tableau[m, -1]), 0.0) + 0.0
    return x, residual
