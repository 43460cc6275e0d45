import math

import numpy as np
import pytest

from noisybell import (
    BehaviorTable,
    TableFormatError,
    SignalingTable,
    chsh_facets,
    is_local_facets,
    is_local_lp,
    noisy_state,
    sequential_joint_distribution,
    violation_threshold,
)

from noisybell.polytope import _LP_SYSTEM

from dense import TSIRELSON, UNIFORM, behavior_table, condition, local_vertices

QUANTUM_TABLE = behavior_table(noisy_state(2, 0.0), TSIRELSON)


def post_selected_table(n, noise):
    """Behavior of the (in, in) branch at the Tsirelson settings, from the closed-form joint law."""
    return condition(sequential_joint_distribution(n, noise))


def mix(tables, weights):
    probs = sum(w * t.probs for w, t in zip(weights, tables))
    return BehaviorTable(probs)


def test_sixteen_deterministic_vertices():
    vertices = local_vertices()
    assert len(vertices) == 16
    assert len(set(tuple(v.to_flat()) for v in vertices)) == 16
    for vertex in vertices:
        assert set(vertex.to_flat()) <= {0.0, 1.0}
        assert vertex.normalization_defect() < 1e-15


def test_vertices_hit_facet_values_plus_minus_two():
    for vertex in local_vertices():
        values = chsh_facets(vertex)
        assert np.all(np.isin(values, [-2.0, 2.0]))


def test_uniform_mixture_of_vertices_is_uniform():
    table = mix(local_vertices(), [1.0 / 16.0] * 16)
    assert np.allclose(table.probs, 0.25, atol=1e-15)


def test_facets_of_uniform_table_vanish():
    assert np.allclose(chsh_facets(UNIFORM), 0.0, atol=1e-15)


def test_facets_of_quantum_table_peak_at_tsirelson():
    values = chsh_facets(QUANTUM_TABLE)
    assert abs(np.max(values) - 2.0 * math.sqrt(2.0)) < 1e-12


def test_facets_match_the_per_setting_loop():
    """chsh_facets equals the loop over the minus sign's position, bit for bit."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        table = BehaviorTable(rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2))
        corr = table.correlators()
        expected = []
        for minus in ((0, 0), (0, 1), (1, 0), (1, 1)):
            base = corr.sum() - 2.0 * corr[minus]
            expected.extend((base, -base))
        assert chsh_facets(table).tobytes() == np.array(expected).tobytes()


def test_vertex_is_local_with_unit_weight():
    vertices = local_vertices()
    for idx in (0, 7, 15):
        verdict = is_local_lp(vertices[idx])
        assert verdict.is_local
        assert abs(verdict.weights[idx] - 1.0) < 1e-9
        assert abs(verdict.weights.sum() - 1.0) < 1e-10


def test_uniform_table_is_local():
    verdict = is_local_lp(UNIFORM)
    assert verdict.is_local
    assert chsh_facets(UNIFORM).max() <= 2.0


@pytest.mark.parametrize("decide", [is_local_lp, is_local_facets], ids=["lp", "facets"])
@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf, -math.inf])
def test_verdicts_refuse_nan_negative_and_infinite_tolerances(decide, tol):
    """A NaN or negative tolerance used to call the uniform table nonlocal."""
    with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
        decide(UNIFORM, tol=tol)


@pytest.mark.parametrize("decide", [is_local_lp, is_local_facets], ids=["lp", "facets"])
def test_zero_tolerance_is_a_valid_tolerance(decide):
    verdict = decide(UNIFORM, tol=0.0)
    assert verdict if isinstance(verdict, bool) else verdict.is_local


def test_quantum_table_is_nonlocal():
    verdict = is_local_lp(QUANTUM_TABLE)
    assert not verdict.is_local
    assert verdict.weights is None
    assert abs(chsh_facets(QUANTUM_TABLE).max() - 2.0 * math.sqrt(2.0)) < 1e-12


def test_post_selected_state_above_threshold_is_local():
    noise = violation_threshold(4) + 0.02
    table = post_selected_table(4, noise)
    assert is_local_lp(table).is_local
    assert is_local_facets(table)


def test_post_selected_state_below_threshold_is_nonlocal():
    noise = violation_threshold(4) - 0.02
    table = post_selected_table(4, noise)
    assert not is_local_lp(table).is_local
    assert not is_local_facets(table)


def test_local_certificate_reconstructs_table():
    rng = np.random.default_rng(314159)
    vertices = local_vertices()
    for _ in range(50):
        weights = rng.exponential(size=16)
        weights /= weights.sum()
        table = mix(vertices, weights)
        verdict = is_local_lp(table)
        assert verdict.is_local
        rebuilt = mix(vertices, verdict.weights)
        assert np.max(np.abs(rebuilt.probs - table.probs)) < 1e-9
        assert verdict.weights.min() >= -1e-12
        assert abs(verdict.weights.sum() - 1.0) < 1e-10


def test_lp_and_facets_agree_on_random_no_signaling_tables():
    """Both criteria classify mixtures of local noise and the quantum table alike."""
    rng = np.random.default_rng(271828)
    vertices = local_vertices()
    for _ in range(200):
        weights = rng.exponential(size=16)
        weights /= weights.sum()
        local_part = mix(vertices, weights)
        mu = rng.random()
        table = BehaviorTable(mu * QUANTUM_TABLE.probs + (1.0 - mu) * local_part.probs)
        assert is_local_lp(table).is_local == is_local_facets(table)


def test_lp_rejects_malformed_table():
    with pytest.raises(TableFormatError):
        is_local_lp(BehaviorTable(np.full((2, 2, 2, 2), 0.2)))


def test_facets_reject_signaling_table():
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 1] = np.array([[0.55, 0.05], [0.05, 0.35]])
    with pytest.raises(SignalingTable):
        is_local_facets(BehaviorTable(probs))


def test_lp_detects_signaling_table_as_nonmember():
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 1] = np.array([[0.55, 0.05], [0.05, 0.35]])
    verdict = is_local_lp(BehaviorTable(probs))
    assert not verdict.is_local


def test_high_noise_large_dimension_stays_nonlocal():
    """At N=100, F=0.9 the conditioned behavior still violates: max facet ~ 2.3969."""
    table = post_selected_table(100, 0.9)
    verdict = is_local_lp(table)
    assert not verdict.is_local
    assert abs(chsh_facets(table).max() - 2.396972139615415) < 1e-10
    assert not is_local_facets(table)


def test_strategy_enumeration_order():
    """Alice-major, (+1, +1) first on each side; LP weights follow this order."""
    for k, vertex in enumerate(local_vertices()):
        assert np.array_equal(_LP_SYSTEM[:16, k], vertex.probs.reshape(-1))
        assert is_local_lp(vertex).weights.argmax() == k


def test_conditioned_lhv_worlds_stay_local(lhv_world_factory):
    """Conditioning a sequential LHV mixture on any positive branch stays local."""
    rng = np.random.default_rng(987654321)
    for _ in range(20):
        joint = lhv_world_factory(rng)
        for a1, b1 in np.argwhere(joint[0, 0].sum(axis=(2, 3)) > 1e-12):  # the branches with positive probability
            assert is_local_lp(condition(joint, a1, b1)).is_local
