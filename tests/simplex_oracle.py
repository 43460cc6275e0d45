"""Reference simplex the package's l1_feasibility must match bit for bit.

The per-element route: the entering column found by a scan, the ratio test
read one numpy scalar at a time, and each row with a nonzero entering entry
eliminated on its own.  Same Bland's rule, tie rule and reduced-cost setup as
the package's solver, so the weights and the residual must be byte-equal.
"""

from __future__ import annotations

import numpy as np


def l1_feasibility(a, b):
    """Return (x, residual) minimizing sum|a @ x - b| over x >= 0."""
    m, n = a.shape
    signs = np.where(b < 0.0, -1.0, 1.0)
    tableau = np.zeros((m + 1, n + 2 * m + 1))
    tableau[:m, :n] = a * signs[:, None]
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, n + m:n + 2 * m] = -np.eye(m)
    tableau[:m, -1] = b * signs
    cost = np.zeros(n + 2 * m)
    cost[n:] = 1.0
    basis = list(range(n, n + m))
    tableau[m, :-1] = cost
    for row in range(m):
        tableau[m, :] -= tableau[row, :]
    while True:
        reduced = tableau[m, :-1]
        entering = next((j for j in range(reduced.size) if reduced[j] < -1e-11), -1)
        if entering < 0:
            break
        leaving, best_ratio = -1, np.inf
        for i in range(m):
            coef = tableau[i, entering]
            if coef > 1e-12:
                ratio = tableau[i, -1] / coef
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12 and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio, leaving = ratio, i
        pivot = tableau[leaving, entering]
        tableau[leaving, :] /= pivot
        for i in range(m + 1):
            if i != leaving and abs(tableau[i, entering]) > 0.0:
                tableau[i, :] -= tableau[i, entering] * tableau[leaving, :]
        basis[leaving] = entering
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = max(tableau[i, -1], 0.0)
    return x, max(-float(tableau[m, -1]), 0.0)
