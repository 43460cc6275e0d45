import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noisybell import (
    BehaviorTable,
    TableFormatError,
    SignalingTable,
    is_local_facets,
    is_local_lp,
    sequential_joint_distribution,
    violation_threshold,
)

from noisybell import polytope
from noisybell.polytope import _LP_SYSTEM, LOCALITY_TOL, LocalityVerdict, violated_facet

from dense import QUANTUM_TABLE, SIGNALING, UNIFORM, condition, local_vertices


def post_selected_table(n, noise):
    """Behavior of the (in, in) branch at the Tsirelson settings, from the closed-form joint law."""
    return condition(sequential_joint_distribution(n, noise))


def mix(tables, weights):
    probs = sum(w * t.probs for w, t in zip(weights, tables))
    return BehaviorTable(probs)


def shifted(table, size, pair=(0, 1)):
    """``table`` with a zero-sum shift of ``size`` in one setting pair, which moves both sides' marginals by it."""
    probs = table.probs.copy()
    probs[pair] += [[size, 0.0], [0.0, -size]]
    return BehaviorTable(probs)


def sampled(table, count, seed):
    """Frequencies of ``count`` draws from ``table`` in each setting pair."""
    rng = np.random.default_rng(seed)
    counts = [rng.multinomial(count, pair.reshape(-1)) for pair in table.probs.reshape(4, 4)]
    return BehaviorTable(np.reshape(counts, (2, 2, 2, 2)) / count)


def unreachable(*args):
    raise AssertionError("l1_feasibility called")


def test_verdict_equality_is_identity_and_verdicts_hash():
    """A local verdict holds its weights array, which the default dataclass == compared and raised on."""
    first, second = is_local_lp(UNIFORM), is_local_lp(UNIFORM)
    assert isinstance(first, LocalityVerdict) and first.weights is not None
    assert first == first and first != second
    assert len({first, second, first}) == 2


def test_sixteen_deterministic_vertices():
    vertices = local_vertices()
    assert len(vertices) == 16
    assert len(set(tuple(v.to_flat()) for v in vertices)) == 16
    for vertex in vertices:
        assert set(vertex.to_flat()) <= {0.0, 1.0}
        assert vertex.normalization_defect < 1e-15


def test_vertices_hit_facet_values_plus_minus_two():
    for vertex in local_vertices():
        values = vertex.facets
        assert np.all(np.isin(values, [-2.0, 2.0]))


def test_uniform_mixture_of_vertices_is_uniform():
    table = mix(local_vertices(), [1.0 / 16.0] * 16)
    assert np.allclose(table.probs, 0.25, atol=1e-15)


def test_facets_of_uniform_table_vanish():
    assert np.allclose(UNIFORM.facets, 0.0, atol=1e-15)


def test_facets_of_quantum_table_peak_at_tsirelson():
    values = QUANTUM_TABLE.facets
    assert abs(np.max(values) - 2.0 * math.sqrt(2.0)) < 1e-12


def test_vertex_is_local_with_unit_weight():
    vertices = local_vertices()
    for idx in (0, 7, 15):
        verdict = is_local_lp(vertices[idx])
        assert verdict.is_local
        assert abs(verdict.weights[idx] - 1.0) < 1e-9
        assert abs(verdict.weights.sum() - 1.0) < 1e-10
        # A vertex's largest facet is exactly 2, so it is local even with no margin.
        assert is_local_lp(vertices[idx], 0.0).is_local
        assert is_local_facets(vertices[idx], 0.0)


def test_uniform_table_is_local():
    verdict = is_local_lp(UNIFORM)
    assert verdict.is_local
    assert UNIFORM.facets.max() <= 2.0


@pytest.mark.parametrize(
    "decide", [is_local_lp, is_local_facets, violated_facet], ids=["lp", "facets", "violated_facet"]
)
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
    assert abs(QUANTUM_TABLE.facets.max() - 2.0 * math.sqrt(2.0)) < 1e-12


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


@st.composite
def _near_facet_tables(draw):
    """A no-signaling table with d-digit entries and facet i near 2 + excess, as (table, i, excess, 10**d).

    A random local mixture is mixed with the PR box of facet i up to facet value
    2 + excess, then rounded on the no-signaling parametrization in units of
    10**-d: Alice's and Bob's +1 marginals A[x] and B[y] and P(+1, +1 | x, y) =
    C[x, y].  Every setting pair then sums to 1 + delta * 10**-d, the same
    delta for all four, which keeps the table no-signaling.  One C[x, y] is
    moved by whole units to bring facet i back to the nearest value to 2 + excess.
    """
    digits = draw(st.integers(6, 9))
    unit = 10**digits
    facet = draw(st.integers(0, 7))
    excess = draw(st.floats(-10 * LOCALITY_TOL, 10 * LOCALITY_TOL))
    delta = draw(st.integers(-1, 1)) if digits > 6 else 0  # 10**-6 would sit on NORMALIZATION_TOL
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=16, max_size=16)))
    local = sum(w * v.probs for w, v in zip(weights / weights.sum(), local_vertices()))
    (minus_x, minus_y), sign = divmod(facet // 2, 2), 1 - 2 * (facet % 2)  # FACET_LABELS order
    direction = np.full((2, 2), sign)  # facet i = sum of direction[x, y] * E[x, y]
    direction[minus_x, minus_y] = -sign
    box = (1.0 + direction[:, :, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])) / 4.0
    local_value = BehaviorTable(local).facets[facet]
    mu = max(0.0, (2.0 + excess - local_value) / (4.0 - local_value))
    probs = mu * box + (1.0 - mu) * local
    alice = np.rint(probs[:, 0, 0].sum(axis=1) * unit).astype(np.int64)
    bob = np.rint(probs[0, :, :, 0].sum(axis=1) * unit).astype(np.int64)
    joint = np.rint(probs[:, :, 0, 0] * unit).astype(np.int64)
    # Facet i in units of 10**-d: E[x, y] = 4 C - 2 A[x] - 2 B[y] + unit + delta, with facet sign `direction`.
    value = int(np.sum(direction * (4 * joint - 2 * alice[:, None] - 2 * bob[None, :] + unit + delta)))
    joint[minus_x, minus_y] += round(((2.0 + excess) * unit - value) / (4 * direction[minus_x, minus_y]))
    counts = np.empty((2, 2, 2, 2), dtype=np.int64)
    counts[:, :, 0, 0] = joint
    counts[:, :, 0, 1] = alice[:, None] - joint
    counts[:, :, 1, 0] = bob[None, :] - joint
    counts[:, :, 1, 1] = unit + delta - alice[:, None] - bob[None, :] + joint
    assume(counts.min() >= 0)
    return BehaviorTable(counts / unit), facet, excess, unit


@settings(max_examples=300, deadline=None)
@given(case=_near_facet_tables())
def test_methods_agree_near_a_facet_on_rounded_no_signaling_tables(case):
    """The LP and the facets give one verdict near a facet, and a local certificate sums to 1."""
    table, facet, excess, unit = case
    assert table.is_no_signaling()
    assert abs(table.facets[facet] - 2.0 - excess) <= 2.0 / unit + 1e-12  # half a step of one unit in C
    verdict = is_local_lp(table)
    assert verdict.is_local == is_local_facets(table) == (violated_facet(table) is None)
    assert (verdict.weights is None) == (not verdict.is_local)
    if verdict.is_local:
        assert abs(verdict.weights.sum() - 1.0) <= 1e-12


def test_lp_is_not_solved_for_a_no_signaling_table_the_facets_call_nonlocal(monkeypatch):
    """The LP used to run for every table, only to drop its weights on a nonlocal verdict."""
    monkeypatch.setattr(polytope, "l1_feasibility", unreachable)
    mu = (2.0 + 1.1e-9) / (2.0 * math.sqrt(2.0))  # largest facet 2 + 1.1e-9, just past the tolerance
    for table in (QUANTUM_TABLE, mix([QUANTUM_TABLE, UNIFORM], [mu, 1.0 - mu])):
        assert table.is_no_signaling()
        verdict = is_local_lp(table)
        assert (verdict.is_local, verdict.weights) == (False, None)


def test_lp_is_not_solved_for_a_table_whose_signaling_defect_exceeds_tol(monkeypatch):
    """Every vertex is no-signaling, so the LP's L1 residual is at least the signaling defect."""
    monkeypatch.setattr(polytope, "l1_feasibility", unreachable)
    for table in (SIGNALING, sampled(UNIFORM, 1000, 3), shifted(UNIFORM, 1e-7)):
        assert table.signaling_defect > LOCALITY_TOL and not table.is_no_signaling()
        verdict = is_local_lp(table)
        assert (verdict.is_local, verdict.weights) == (False, None)


@st.composite
def _signaling_tables(draw):
    """A vertex mixture, Tsirelson's or the uniform table, shifted by 1e-12 to 1e-2 in one setting pair or sampled."""
    kind = draw(st.sampled_from(["mixture", "tsirelson", "uniform"]))
    if kind == "mixture":
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=16, max_size=16)))
        base = mix(local_vertices(), weights / weights.sum())
    else:
        base = QUANTUM_TABLE if kind == "tsirelson" else UNIFORM
    if draw(st.booleans()):
        return sampled(base, draw(st.integers(100, 10**6)), draw(st.integers(0, 2**32 - 1)))
    size = 10.0 ** draw(st.floats(-12.0, -2.0))
    pair = draw(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))
    assume(base.probs[pair][1, 1] >= size)
    return shifted(base, size, pair)


@settings(max_examples=200, deadline=None)
@given(table=_signaling_tables(), tol=st.floats(-8.0, -2.0).map(lambda e: 10.0**e))
def test_lp_residual_is_at_least_the_signaling_defect(table, tol):
    """The bound that lets a signaling defect past tol decide the verdict without the LP.

    The simplex reads amounts below its tolerances (1e-12 in the ratio test,
    1e-11 in the reduced costs) as zero, so a defect of about 1e-12 can leave a
    residual of 0: the float LP keeps the bound to within 1e-11.
    """
    _, residual = polytope.l1_feasibility(table.probs)
    assert residual >= table.signaling_defect - 1e-11
    if not table.is_no_signaling():  # else the facets decide
        assert is_local_lp(table, tol).is_local == (residual <= tol)


@pytest.mark.parametrize(
    "table",
    [UNIFORM, shifted(UNIFORM, 1e-14), shifted(UNIFORM, 1e-14, (1, 1)), shifted(UNIFORM, 10**-12.5, (1, 1))],
    ids=["uniform", "shift_1e-14", "shift_1e-14_pair_11", "shift_3e-13_pair_11"],
)
def test_lp_residual_of_an_exactly_local_table_is_positive_zero(table):
    """The final cost entry is 0.0 on these tables, and max(-0.0, 0.0) would keep the -0.0."""
    _, residual = polytope.l1_feasibility(table.probs)
    assert residual == 0.0
    assert math.copysign(1.0, residual) == 1.0


def test_lp_rejects_malformed_table():
    with pytest.raises(TableFormatError):
        is_local_lp(BehaviorTable(np.full((2, 2, 2, 2), 0.2)))


def test_facets_reject_signaling_table():
    with pytest.raises(SignalingTable):
        is_local_facets(SIGNALING)


def test_lp_detects_signaling_table_as_nonmember():
    verdict = is_local_lp(SIGNALING)
    assert not verdict.is_local


def test_high_noise_large_dimension_stays_nonlocal():
    """At N=100, F=0.9 the conditioned behavior still violates: max facet ~ 2.3969."""
    table = post_selected_table(100, 0.9)
    verdict = is_local_lp(table)
    assert not verdict.is_local
    assert abs(table.facets.max() - 2.396972139615415) < 1e-10
    assert not is_local_facets(table)


def test_strategy_enumeration_order():
    """Alice-major, (+1, +1) first on each side; LP weights follow this order."""
    for k, vertex in enumerate(local_vertices()):
        assert np.array_equal(_LP_SYSTEM[:16, k], vertex.probs.reshape(-1))
        assert is_local_lp(vertex).weights.argmax() == k
