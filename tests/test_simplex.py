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
from noisybell.polytope import l1_feasibility

from dense import UNIFORM, condition, local_vertices


def test_rejects_bad_shapes():
    for size in (15, 17):
        with pytest.raises(ValueError, match="16 entries"):
            l1_feasibility(np.zeros(size))


# --- the per-element oracle ------------------------------------------------
# tests/simplex_oracle.py keeps the per-element route; the locality LP must
# give the same weights and residual, byte for byte, on every kind of table.

# The membership system, built here from the vertices: a column per vertex, then the weights' sum.
_SYSTEM = np.vstack([np.array([vertex.to_flat() for vertex in local_vertices()]).T, np.ones(16)])


def _assert_matches_oracle(probs):
    """The membership LP's weights and residual, after checking them against the oracle's bit for bit."""
    x, residual = l1_feasibility(probs)
    x_ref, residual_ref = simplex_oracle.l1_feasibility(_SYSTEM, np.append(probs, 1.0))
    assert x.tobytes() == x_ref.tobytes()
    assert np.float64(residual).tobytes() == np.float64(residual_ref).tobytes()
    return x, residual


def test_pivots_match_the_per_element_route_bit_for_bit():
    """Same weights and residual, sign bits of zeros included, on the locality LP."""
    rng = np.random.default_rng(5)
    tables = _SYSTEM[:16].T
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
        x, residual = _assert_matches_oracle(target)
        assert not np.signbit(np.append(x, residual)).any()  # no weight or residual is -0.0
        zero_residuals += residual == 0.0
    assert zero_residuals > 0  # the comparison reaches zero residuals, the ones max(-0.0, 0.0) would sign


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
    # Entries down to -NEGATIVITY_TOL are valid, and the LP flips their rows: mixtures of a few
    # vertices with one zero entry set to -5e-13 and the largest entry of its setting pair raised to match.
    rng = np.random.default_rng(31)
    for _ in range(40):
        picked = rng.choice(16, size=rng.integers(2, 5), replace=False)
        probs = (rng.dirichlet(np.ones(picked.size)) @ _SYSTEM[:16, picked].T).reshape(4, 4)
        pair = rng.choice(np.flatnonzero((probs == 0.0).any(axis=1)))
        probs[pair, rng.choice(np.flatnonzero(probs[pair] == 0.0))] = -5e-13
        probs[pair, probs[pair].argmax()] += 5e-13
        yield probs.reshape(2, 2, 2, 2)


def test_locality_lp_matches_the_oracle_bit_for_bit():
    for probs in _oracle_cases():
        _assert_matches_oracle(probs)


_distribution = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda p: sum(p) > 0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(_distribution, min_size=4, max_size=4))
def test_random_normalized_tables_match_the_oracle_bit_for_bit(blocks):
    blocks = np.array(blocks)  # one outcome distribution per setting pair
    _assert_matches_oracle(blocks / blocks.sum(axis=1, keepdims=True))


_VERTICES = local_vertices()


@pytest.mark.parametrize(
    ("a", "b"), [(_VERTICES[0], _VERTICES[0]), (_VERTICES[3], _VERTICES[12]), (_VERTICES[9], _VERTICES[6])]
)
def test_a_negative_zero_right_hand_side_gives_zero_weights(a, b):
    """The midpoint of tables ``a`` and ``b``, its zeros written -0.0, gives no -0.0 weight or residual."""
    probs = (a.probs + b.probs) / 2.0
    probs[probs == 0.0] = -0.0
    assert np.signbit(probs).any()
    x, residual = _assert_matches_oracle(probs)
    assert not np.signbit(np.append(x, residual)).any()


# Sparse mixtures: 1 to 4 vertices, so most entries and many tableau entries are exact zeros.
# Small integer weights make exact ties in the ratio test too.
_mixture = st.lists(
    st.tuples(st.integers(0, 15), st.one_of(st.integers(1, 8), st.floats(1e-3, 1.0))),
    min_size=1,
    max_size=4,
    unique_by=lambda pick: pick[0],
)


@settings(max_examples=200, deadline=None)
@given(_mixture)
def test_the_sign_of_a_zero_entry_never_reaches_the_weights_or_residual(mixture):
    """A table and the same table with every zero written -0.0 give the same bytes, and the oracle's."""
    vertices, weights = (list(column) for column in zip(*mixture))
    weights = np.array(weights, dtype=float)
    probs = (weights / weights.sum()) @ _SYSTEM[:16, vertices].T
    signed = np.where(probs == 0.0, -0.0, probs)
    x, residual = _assert_matches_oracle(probs)
    x_signed, residual_signed = _assert_matches_oracle(signed)
    assert x_signed.tobytes() == x.tobytes()
    assert np.float64(residual_signed).tobytes() == np.float64(residual).tobytes()
