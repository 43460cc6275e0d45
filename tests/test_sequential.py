import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisybell import chsh_closed_form, success_probability
from noisybell.family import sequential_joint_distribution

from dense import PSI2_MATRIX, TSIRELSON, behavior_table, condition, noisy_state, post_select, projector
from family_helpers import kron_joint, post_selected_closed_form


def first_stage(joint):
    """P(a1, b1) per setting pair, [x][y][a1][b1]."""
    return joint.sum(axis=(4, 5))


def test_projector_matrix_is_idempotent_diagonal():
    mat = projector(4)
    assert np.allclose(mat, np.diag([1, 1, 0, 0]))
    assert np.allclose(mat @ mat, mat)


def test_full_space_projection_is_identity():
    rho = noisy_state(2, 0.37)
    post, prob = post_select(rho, 2)
    assert abs(prob - 1.0) < 1e-12
    assert np.allclose(post, rho, atol=1e-14)


def test_projecting_pure_entangled_state_keeps_two_terms():
    post, prob = post_select(noisy_state(4, 0.0), 4)
    assert abs(prob - 0.5) < 1e-12
    assert np.max(np.abs(post - PSI2_MATRIX)) < 1e-12


def test_projecting_white_noise_stays_white():
    post, prob = post_select(noisy_state(4, 1.0), 4)
    assert abs(prob - 0.25) < 1e-12
    assert np.allclose(post, np.eye(4) / 4.0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_closed_form_limits(n):
    assert np.max(np.abs(post_selected_closed_form(n, 0.0) - PSI2_MATRIX)) < 1e-15
    assert np.allclose(post_selected_closed_form(n, 1.0), np.eye(4) / 4.0, atol=1e-15)


def test_closed_form_retained_fraction_example():
    rho = post_selected_closed_form(4, 0.5)
    # v = 2/3: entry (0,0) is v/2 + (1-v)/4
    assert abs(rho[0, 0].real - (2.0 / 3.0 / 2.0 + 1.0 / 3.0 / 4.0)) < 1e-12


def test_success_probability_values():
    for noise in (0.0, 0.3, 1.0):
        assert abs(success_probability(2, noise) - 1.0) < 1e-15
    assert abs(success_probability(4, 0.0) - 0.5) < 1e-15
    assert abs(success_probability(4, 1.0) - 0.25) < 1e-15


def test_joint_distribution_qubit_case_all_in():
    joint = kron_joint(2, 0.0)
    assert abs(first_stage(joint)[0, 0, 0, 0] - 1.0) < 1e-12
    assert np.all(np.abs(joint.sum(axis=(2, 3, 4, 5)) - 1.0) < 1e-12)


@pytest.mark.parametrize("n,noise", [(2, 0.0), (4, 0.0), (4, 0.5), (3, 0.8), (5, 1.0)])
def test_joint_distribution_invariants(n, noise):
    joint = kron_joint(n, noise)
    assert np.all(np.abs(joint.sum(axis=(2, 3, 4, 5)) - 1.0) < 1e-12)
    assert np.ptp(first_stage(joint), axis=(0, 1)).max() < 1e-12
    assert joint.min() >= 0.0


def test_conditional_correlators_match_post_selected_state():
    """Within the (in, in) branch the correlators are those of the projected state."""
    joint = sequential_joint_distribution(4, 0.0)
    corr = condition(joint).correlators
    for (x, y), diff in [((0, 0), 0.0 - math.pi / 4), ((1, 0), math.pi / 4), ((1, 1), 3 * math.pi / 4)]:
        assert abs(corr[x, y] - math.cos(diff)) < 1e-10


def test_conditioned_table_reaches_tsirelson():
    joint = sequential_joint_distribution(4, 0.0)
    corr = condition(joint).correlators
    s_value = corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1]
    assert abs(s_value - 2.0 * math.sqrt(2.0)) < 1e-10


def test_conditioning_on_certain_branch_is_identity():
    """When the branch has probability 1 conditioning changes nothing."""
    joint = sequential_joint_distribution(2, 0.25)
    assert np.max(np.abs(condition(joint).probs - joint[:, :, 0, 0, :, :])) < 1e-12


def test_conditioned_white_noise_is_uniform():
    joint = sequential_joint_distribution(4, 1.0)
    assert np.allclose(condition(joint).probs, 0.25, atol=1e-12)


def test_out_branch_is_deterministic_plus_one():
    """The rejected subspace carries the constant +1 extension of the observables."""
    joint = sequential_joint_distribution(4, 0.0)
    assert np.allclose(condition(joint, 1, 1).probs[:, :, 0, 0], 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("noise", [0.0, 0.2, 0.5, 0.9, 1.0])
def test_pipeline_equivalence(n, noise):
    """Conditioning the closed-form joint law equals the behavior of the dense post-selected state."""
    joint = sequential_joint_distribution(n, noise)
    via_joint = condition(joint)
    via_state = behavior_table(post_select(noisy_state(n, noise), n)[0], TSIRELSON)
    assert np.max(np.abs(via_joint.probs - via_state.probs)) < 1e-10


# --- closed-form joint law ----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 8, 65, 10**6, 10**150])
@pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
def test_closed_form_joint_invariants(n, noise):
    joint = sequential_joint_distribution(n, noise)
    assert np.all(np.abs(joint.sum(axis=(2, 3, 4, 5)) - 1.0) < 1e-12)
    assert np.ptp(first_stage(joint), axis=(0, 1)).max() < 1e-15
    assert abs(first_stage(joint)[0, 0, 0, 0] - success_probability(n, noise)) < 1e-15
    # The rejected side always reads +1.
    assert not joint[:, :, 0, 1, :, 1].any() and not joint[:, :, 1, 0, 1, :].any()
    assert not joint[:, :, 1, 1].reshape(2, 2, 4)[:, :, 1:].any()


@pytest.mark.parametrize("n,noise", [(2, 0.3), (5, 0.0), (5, 0.4), (65, 0.9)])
def test_closed_form_mixed_branches_are_white_noise(n, noise):
    joint = sequential_joint_distribution(n, noise)
    assert abs(first_stage(joint)[0, 0, 0, 1] - 2.0 * noise * (n - 2) / n**2) < 1e-15
    assert abs(first_stage(joint)[0, 0, 1, 0] - 2.0 * noise * (n - 2) / n**2) < 1e-15
    if noise * (n - 2) > 0:
        assert np.allclose(condition(joint, 0, 1).probs[:, :, :, 0], 0.5, atol=1e-15)


@pytest.mark.parametrize("n", [3, 24, 10**6, 10**12])
def test_closed_form_conditioned_chsh_is_the_closed_form(n):
    table = condition(sequential_joint_distribution(n, 0.3))
    corr = table.correlators
    assert abs(corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1] - chsh_closed_form(n, 0.3)) < 1e-12


@pytest.mark.parametrize(
    "n,noise,error",
    [(1, 0.0, ValueError), (2, -0.1, ValueError), (2, math.nan, ValueError), (10**200, 0.3, OverflowError)],
)
def test_closed_form_joint_rejects_bad_parameters(n, noise, error):
    with pytest.raises(error):
        sequential_joint_distribution(n, noise)


def _dims(top):
    """Integers log-uniform over 2 .. top: a digit count, then an integer with that many digits."""
    return st.integers(1, len(str(top))).flatmap(lambda d: st.integers(max(2, 10 ** (d - 1)), min(10**d - 1, top)))


@settings(max_examples=300, deadline=None)
@given(
    # Python ints up to 10**150, and numpy ints over their whole range, where n * n wraps around.
    n=_dims(10**150) | _dims(2**63 - 1).map(np.int64) | _dims(2**31 - 1).map(np.int32),
    noise=st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1.0 - 2.0**-53]),
)
@example(n=np.int32(50000), noise=1.0)  # int32 n * n is negative
@example(n=np.int64(2**32), noise=1.0)  # int64 n * n is 0
def test_joint_law_is_a_read_only_distribution(n, noise):
    """Every valid input gives a finite, non-negative, normalized, read-only law with setting-free first stage."""
    joint = sequential_joint_distribution(n, noise)
    assert np.array_equal(joint, sequential_joint_distribution(int(n), noise))
    assert joint.shape == (2,) * 6 and joint.dtype == np.float64 and not joint.flags.writeable
    assert np.all(np.isfinite(joint)) and np.all(joint >= 0.0)
    assert np.all(np.abs(joint.sum(axis=(2, 3, 4, 5)) - 1.0) <= 1e-12)
    marginals = first_stage(joint)  # [x][y][a1][b1]
    assert np.all(np.abs(marginals - marginals[0, 0]) <= 1e-15)
    p_in = success_probability(n, noise)
    assert np.all(np.abs(marginals[:, :, 0, 0] - p_in) <= 1e-15 * p_in)
