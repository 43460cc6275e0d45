import math

import numpy as np
import pytest

from noisybell import (
    BehaviorTable,
    TableFormatError,
    SignalingTable,
    behavior_table,
    chsh_facets,
    condition_on_first,
    is_local_facets,
    is_local_lp,
    local_vertices,
    max_entangled,
    post_selected_closed_form,
    tsirelson_settings,
    violation_threshold,
)

QUANTUM_TABLE = behavior_table(max_entangled(2).density(), tsirelson_settings())


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
    assert np.allclose(chsh_facets(BehaviorTable.uniform()), 0.0, atol=1e-15)


def test_facets_of_quantum_table_peak_at_tsirelson():
    values = chsh_facets(QUANTUM_TABLE)
    assert abs(np.max(values) - 2.0 * math.sqrt(2.0)) < 1e-12


def test_vertex_is_local_with_unit_weight():
    vertices = local_vertices()
    for idx in (0, 7, 15):
        verdict = is_local_lp(vertices[idx])
        assert verdict.is_local
        assert abs(verdict.weights[idx] - 1.0) < 1e-9
        assert abs(verdict.weights.sum() - 1.0) < 1e-10


def test_uniform_table_is_local():
    verdict = is_local_lp(BehaviorTable.uniform())
    assert verdict.is_local
    assert verdict.violated_facet is None


def test_quantum_table_is_nonlocal():
    verdict = is_local_lp(QUANTUM_TABLE)
    assert not verdict.is_local
    assert verdict.weights is None
    assert abs(verdict.max_facet_value - 2.0 * math.sqrt(2.0)) < 1e-12
    assert verdict.violated_facet is not None


def test_post_selected_state_above_threshold_is_local():
    noise = violation_threshold(4) + 0.02
    table = behavior_table(post_selected_closed_form(4, noise), tsirelson_settings())
    assert is_local_lp(table).is_local
    assert is_local_facets(table)


def test_post_selected_state_below_threshold_is_nonlocal():
    noise = violation_threshold(4) - 0.02
    table = behavior_table(post_selected_closed_form(4, noise), tsirelson_settings())
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
    table = behavior_table(post_selected_closed_form(100, 0.9), tsirelson_settings())
    verdict = is_local_lp(table)
    assert not verdict.is_local
    assert abs(verdict.max_facet_value - 2.396972139615415) < 1e-10
    assert not is_local_facets(table)


def test_strategy_enumeration_order():
    """Alice-major, (+1, +1) first on each side; LP weights follow this order."""
    vertices = local_vertices()
    expected = {0: (0, 0, 0, 0), 1: (0, 0, 0, 1), 15: (1, 1, 1, 1)}  # outcome index of a0 a1 b0 b1
    for k, (a0, a1, b0, b1) in expected.items():
        probs = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                probs[x, y, (a0, a1)[x], (b0, b1)[y]] = 1.0
        assert np.array_equal(vertices[k].probs, probs)


def test_conditioned_lhv_worlds_stay_local(lhv_world_factory):
    """Conditioning a sequential LHV mixture on any positive branch stays local."""
    rng = np.random.default_rng(987654321)
    for _ in range(20):
        joint = lhv_world_factory(rng)
        for first_a in ("in", "out"):
            for first_b in ("in", "out"):
                if joint.first_stage_marginal(first_a, first_b) <= 1e-12:
                    continue
                table = condition_on_first(joint, first_a, first_b)
                assert is_local_lp(table).is_local
