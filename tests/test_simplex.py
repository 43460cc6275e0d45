from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplex_oracle
from noisybell import (
    sample_experiment,
    sequential_joint_distribution,
)
from noisybell.polytope import _LP_SYSTEM
from noisybell.simplex import l1_feasibility

from dense import UNIFORM, condition, local_vertices


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


# --- the per-element oracle ------------------------------------------------
# tests/simplex_oracle.py keeps the per-element route; the locality LP must
# give the same weights and residual, byte for byte, on every kind of table.


def test_pivots_match_the_per_element_route_bit_for_bit():
    """Same weights and residual, sign bits of zeros included, on the locality LP."""
    rng = np.random.default_rng(5)
    tables = np.array([vertex.to_flat() for vertex in local_vertices()])
    system = np.vstack([tables.T, np.ones(16)])
    zero_residuals = 0
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
        x_ref, residual_ref = simplex_oracle.l1_feasibility(system, rhs)
        assert x.tobytes() == x_ref.tobytes()
        assert np.float64(residual).tobytes() == np.float64(residual_ref).tobytes()
        assert not np.signbit(np.append(x, residual)).any()  # no weight or residual is -0.0
        zero_residuals += residual == 0.0
    assert zero_residuals > 0  # the comparison reaches zero residuals, the ones max(-0.0, 0.0) would sign


def _assert_same_bits(a, b):
    x, residual = l1_feasibility(a, b)
    x_ref, residual_ref = simplex_oracle.l1_feasibility(a, b)
    assert x.tobytes() == x_ref.tobytes()
    assert np.float64(residual).tobytes() == np.float64(residual_ref).tobytes()


def _assert_matches_oracle(probs):
    _assert_same_bits(_LP_SYSTEM, np.concatenate([np.asarray(probs, dtype=float).reshape(-1), [1.0]]))


def _oracle_cases():
    vertices = [vertex.probs for vertex in local_vertices()]
    yield from vertices
    yield UNIFORM.probs
    yield from ((vertices[i] + vertices[j]) / 2.0 for i, j in combinations(range(16), 2))  # many ties
    rng = np.random.default_rng(23)
    for alpha in (0.2, 1.0):
        yield from np.einsum("tk,kxyab->txyab", rng.dirichlet(np.full(16, alpha), size=30), np.array(vertices))
    for n in (2, 3, 8):
        for noise in (0.0, 0.3, 0.6, 0.9):
            yield condition(sequential_joint_distribution(n, noise)).probs
    for seed in range(20):
        yield sample_experiment(2 + seed % 3, 0.1 * (seed % 10), 500, seed).empirical_table.probs  # signaling


def test_locality_lp_matches_the_oracle_bit_for_bit():
    for probs in _oracle_cases():
        _assert_matches_oracle(probs)


_distribution = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda p: sum(p) > 0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(_distribution, min_size=4, max_size=4))
def test_random_normalized_tables_match_the_oracle_bit_for_bit(blocks):
    blocks = np.array(blocks)  # one outcome distribution per setting pair
    _assert_matches_oracle(blocks / blocks.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (1, 0)])
def test_empty_systems_match_the_oracle(shape):
    _assert_same_bits(np.zeros(shape), np.ones(shape[0]))


@pytest.mark.parametrize(
    ("a", "b"),
    [(np.eye(2), [-0.0, 1.0]), ([[1.0, 1.0], [1.0, -1.0]], [-0.0, -0.0]), ([[1.0, 0.0], [1.0, 1.0]], [-0.0, 1.0])],
)
def test_a_negative_zero_right_hand_side_gives_zero_weights(a, b):
    x, residual = l1_feasibility(np.array(a), np.array(b))
    assert not np.signbit(np.append(x, residual)).any()
    _assert_same_bits(np.array(a), np.array(b))
