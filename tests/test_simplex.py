import numpy as np
import pytest

from noisybell import local_vertices
from noisybell.simplex import l1_feasibility


def test_feasible_system_has_zero_residual():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    x, residual = l1_feasibility(a, b)
    assert residual < 1e-12
    assert np.all(x >= -1e-12)
    assert np.max(np.abs(a @ x - b)) < 1e-12


def test_infeasible_sign_constraint():
    # Only solution to x0 = -1 needs a negative variable.
    a = np.array([[1.0]])
    b = np.array([-1.0])
    x, residual = l1_feasibility(a, b)
    assert abs(residual - 1.0) < 1e-12
    assert abs(x[0]) < 1e-12


def test_inconsistent_rows_report_distance():
    a = np.array([[1.0], [1.0]])
    b = np.array([0.0, 1.0])
    _, residual = l1_feasibility(a, b)
    # best x splits the difference in L1: residual min(|x| + |x-1|) = 1
    assert abs(residual - 1.0) < 1e-12


def test_convex_combination_recovery():
    rng = np.random.default_rng(11)
    vertices = rng.random((8, 5))
    weights = rng.random(5)
    weights /= weights.sum()
    target = vertices @ weights
    system = np.vstack([vertices, np.ones(5)])
    rhs = np.concatenate([target, [1.0]])
    x, residual = l1_feasibility(system, rhs)
    assert residual < 1e-10
    assert abs(x.sum() - 1.0) < 1e-10
    assert np.max(np.abs(vertices @ x - target)) < 1e-10


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        l1_feasibility(np.zeros((2, 2)), np.zeros(3))


# --- per-element oracle ------------------------------------------------------
# The route the vectorized pivot replaced: the entering column found by a scan,
# and each row with a nonzero entering entry eliminated on its own.


def _loop_l1_feasibility(a, b):
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


def test_pivots_match_the_per_element_route_bit_for_bit():
    """Same weights and residual, sign bits of zeros included, on the locality LP."""
    rng = np.random.default_rng(5)
    tables = np.array([vertex.to_flat() for vertex in local_vertices()])
    system = np.vstack([tables.T, np.ones(16)])
    signed_zeros = 0
    for k in range(316):
        if k < 16:
            target = tables[k]
        elif k % 3 == 0:
            target = np.round(rng.dirichlet(np.full(16, 0.3)) @ tables, 3)  # ties and exact zeros
        elif k % 3 == 1:
            target = rng.dirichlet(np.ones(4), size=4).reshape(-1)  # signaling
        else:
            target = rng.dirichlet(np.ones(16)) @ tables
        rhs = np.concatenate([target, [1.0]])
        x, residual = l1_feasibility(system, rhs)
        x_ref, residual_ref = _loop_l1_feasibility(system, rhs)
        assert x.tobytes() == x_ref.tobytes()
        assert np.float64(residual).tobytes() == np.float64(residual_ref).tobytes()
        values = np.append(x, residual)
        signed_zeros += int(np.sum(np.signbit(values) & (values == 0.0)))
    assert signed_zeros > 0  # the comparison reaches -0.0 results
