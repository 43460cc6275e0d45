import math

import numpy as np
import pytest

from noisybell import (
    DensityMatrix,
    SubspaceProjector,
    ZeroProbabilityBranch,
    behavior_table,
    chsh_closed_form,
    chsh_value,
    condition_on_first,
    first_two_levels,
    max_entangled,
    noisy_state,
    post_select,
    post_selected_closed_form,
    success_probability,
    tsirelson_settings,
    validate,
)
from noisybell.sequential import dense_joint_distribution, sequential_joint_distribution

PSI2_MATRIX = max_entangled(2).density().matrix


def test_projector_matrix_is_idempotent_diagonal():
    proj = SubspaceProjector(dim=4, retained=(0, 2))
    mat = proj.matrix()
    assert np.allclose(mat, np.diag([1, 0, 1, 0]))
    assert np.allclose(mat @ mat, mat)


def test_projector_rejects_bad_indices():
    with pytest.raises(ValueError):
        SubspaceProjector(dim=4, retained=(0, 0))
    with pytest.raises(ValueError):
        SubspaceProjector(dim=4, retained=(0, 4))
    with pytest.raises(ValueError):
        SubspaceProjector(dim=4, retained=())


def test_full_space_projection_is_identity():
    rho = noisy_state(2, 0.37)
    proj = first_two_levels(2)
    post, prob = post_select(rho, proj, proj)
    assert abs(prob - 1.0) < 1e-12
    assert np.allclose(post.matrix, rho.matrix, atol=1e-14)


def test_projecting_pure_entangled_state_keeps_two_terms():
    post, prob = post_select(noisy_state(4, 0.0), first_two_levels(4), first_two_levels(4))
    assert abs(prob - 0.5) < 1e-12
    assert np.max(np.abs(post.matrix - PSI2_MATRIX)) < 1e-12


def test_projecting_white_noise_stays_white():
    post, prob = post_select(noisy_state(4, 1.0), first_two_levels(4), first_two_levels(4))
    assert abs(prob - 0.25) < 1e-12
    assert np.allclose(post.matrix, np.eye(4) / 4.0, atol=1e-14)


def test_post_select_zero_branch_raises():
    rho = max_entangled(2).density()  # no support on |0>_A |1>_B
    with pytest.raises(ZeroProbabilityBranch):
        post_select(rho, SubspaceProjector(2, (0,)), SubspaceProjector(2, (1,)))


def test_post_select_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        post_select(noisy_state(2, 0.0), first_two_levels(2), first_two_levels(3))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_closed_form_limits(n):
    assert np.max(np.abs(post_selected_closed_form(n, 0.0).matrix - PSI2_MATRIX)) < 1e-15
    assert np.allclose(post_selected_closed_form(n, 1.0).matrix, np.eye(4) / 4.0, atol=1e-15)


def test_closed_form_retained_fraction_example():
    rho = post_selected_closed_form(4, 0.5)
    # v = 2/3: entry (0,0) is v/2 + (1-v)/4
    assert abs(rho.matrix[0, 0].real - (2.0 / 3.0 / 2.0 + 1.0 / 3.0 / 4.0)) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_equals_dense_projection(n):
    proj = first_two_levels(n)
    for k in range(11):
        noise = k / 10.0
        dense, prob = post_select(noisy_state(n, noise), proj, proj)
        closed = post_selected_closed_form(n, noise)
        assert np.max(np.abs(dense.matrix - closed.matrix)) < 1e-12
        assert abs(prob - success_probability(n, noise)) < 1e-12
        assert validate(dense).ok


def test_success_probability_values():
    for noise in (0.0, 0.3, 1.0):
        assert abs(success_probability(2, noise) - 1.0) < 1e-15
    assert abs(success_probability(4, 0.0) - 0.5) < 1e-15
    assert abs(success_probability(4, 1.0) - 0.25) < 1e-15


def test_joint_distribution_qubit_case_all_in():
    joint = dense_joint_distribution(
        noisy_state(2, 0.0), first_two_levels(2), first_two_levels(2), tsirelson_settings()
    )
    assert abs(joint.first_stage_marginal("in", "in") - 1.0) < 1e-12
    for x in range(2):
        for y in range(2):
            assert abs(joint.setting_total(x, y) - 1.0) < 1e-12


@pytest.mark.parametrize("n,noise", [(2, 0.0), (4, 0.0), (4, 0.5), (3, 0.8), (5, 1.0)])
def test_joint_distribution_invariants(n, noise):
    joint = dense_joint_distribution(
        noisy_state(n, noise), first_two_levels(n), first_two_levels(n), tsirelson_settings()
    )
    for x in range(2):
        for y in range(2):
            assert abs(joint.setting_total(x, y) - 1.0) < 1e-12
    assert joint.marginal_spread() < 1e-12
    assert joint.probs.min() >= 0.0


def test_conditional_correlators_match_post_selected_state():
    """Within the (in, in) branch the correlators are those of the projected state."""
    joint = dense_joint_distribution(
        noisy_state(4, 0.0), first_two_levels(4), first_two_levels(4), tsirelson_settings()
    )
    table = condition_on_first(joint, "in", "in")
    for (x, y), diff in [((0, 0), 0.0 - math.pi / 4), ((1, 0), math.pi / 4), ((1, 1), 3 * math.pi / 4)]:
        assert abs(table.correlator(x, y) - math.cos(diff)) < 1e-10


def test_conditioned_table_reaches_tsirelson():
    joint = dense_joint_distribution(
        noisy_state(4, 0.0), first_two_levels(4), first_two_levels(4), tsirelson_settings()
    )
    table = condition_on_first(joint)
    s_value = table.correlator(0, 0) + table.correlator(0, 1) + table.correlator(1, 0) - table.correlator(1, 1)
    assert abs(s_value - 2.0 * math.sqrt(2.0)) < 1e-10


def test_conditioning_on_certain_branch_is_identity():
    """When the branch has probability 1 conditioning changes nothing."""
    joint = dense_joint_distribution(
        noisy_state(2, 0.25), first_two_levels(2), first_two_levels(2), tsirelson_settings()
    )
    table = condition_on_first(joint, "in", "in")
    assert np.max(np.abs(table.probs - joint.probs[:, :, 0, 0, :, :])) < 1e-12


def test_conditioned_white_noise_is_uniform():
    joint = dense_joint_distribution(
        noisy_state(4, 1.0), first_two_levels(4), first_two_levels(4), tsirelson_settings()
    )
    table = condition_on_first(joint, "in", "in")
    assert np.allclose(table.probs, 0.25, atol=1e-12)


def test_conditioning_on_zero_branch_raises():
    joint = dense_joint_distribution(
        noisy_state(4, 0.0), first_two_levels(4), first_two_levels(4), tsirelson_settings()
    )
    # at zero noise the mixed branches (in, out) / (out, in) are empty
    with pytest.raises(ZeroProbabilityBranch):
        condition_on_first(joint, "in", "out")


def test_out_branch_is_deterministic_plus_one():
    """The rejected subspace carries the constant +1 extension of the observables."""
    joint = dense_joint_distribution(
        noisy_state(4, 0.0), first_two_levels(4), first_two_levels(4), tsirelson_settings()
    )
    table = condition_on_first(joint, "out", "out")
    assert np.allclose(table.probs[:, :, 0, 0], 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("noise", [0.0, 0.2, 0.5, 0.9, 1.0])
def test_pipeline_equivalence(n, noise):
    """Conditioning the joint law equals the behavior of the closed-form state."""
    settings = tsirelson_settings()
    joint = dense_joint_distribution(
        noisy_state(n, noise), first_two_levels(n), first_two_levels(n), settings
    )
    via_joint = condition_on_first(joint, "in", "in")
    via_state = behavior_table(post_selected_closed_form(n, noise), settings)
    assert np.max(np.abs(via_joint.probs - via_state.probs)) < 1e-10


def test_condition_rejects_unknown_branch():
    joint = dense_joint_distribution(
        noisy_state(2, 0.5), first_two_levels(2), first_two_levels(2), tsirelson_settings()
    )
    with pytest.raises(ValueError):
        condition_on_first(joint, "inside", "in")


def test_second_stage_needs_two_level_subspace():
    rho = noisy_state(2, 0.5)
    big = DensityMatrix(np.kron(rho.matrix, np.eye(1)))
    with pytest.raises(ValueError):
        dense_joint_distribution(
            big, SubspaceProjector(2, (0,)), first_two_levels(2), tsirelson_settings()
        )


# --- closed-form joint law ----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 8, 65, 10**6, 10**150])
@pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
def test_closed_form_joint_invariants(n, noise):
    joint = sequential_joint_distribution(n, noise, tsirelson_settings())
    for x in range(2):
        for y in range(2):
            assert abs(joint.setting_total(x, y) - 1.0) < 1e-12
    assert joint.marginal_spread() < 1e-15
    assert abs(joint.first_stage_marginal("in", "in") - success_probability(n, noise)) < 1e-15
    # The rejected side always reads +1.
    assert not joint.probs[:, :, 0, 1, :, 1].any() and not joint.probs[:, :, 1, 0, 1, :].any()
    assert not joint.probs[:, :, 1, 1].reshape(2, 2, 4)[:, :, 1:].any()


@pytest.mark.parametrize("n,noise", [(2, 0.3), (5, 0.0), (5, 0.4), (65, 0.9)])
def test_closed_form_mixed_branches_are_white_noise(n, noise):
    joint = sequential_joint_distribution(n, noise, tsirelson_settings())
    assert abs(joint.first_stage_marginal("in", "out") - 2.0 * noise * (n - 2) / n**2) < 1e-15
    assert abs(joint.first_stage_marginal("out", "in") - 2.0 * noise * (n - 2) / n**2) < 1e-15
    if noise * (n - 2) > 0:
        assert np.allclose(condition_on_first(joint, "in", "out").probs[:, :, :, 0], 0.5, atol=1e-15)


@pytest.mark.parametrize("n", [3, 24, 10**6, 10**12])
def test_closed_form_conditioned_chsh_is_the_closed_form(n):
    table = condition_on_first(sequential_joint_distribution(n, 0.3, tsirelson_settings()))
    corr = table.correlators()
    assert abs(corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1] - chsh_closed_form(n, 0.3)) < 1e-12


@pytest.mark.parametrize(
    "n,noise,error",
    [(1, 0.0, ValueError), (2, -0.1, ValueError), (2, math.nan, ValueError), (10**200, 0.3, OverflowError)],
)
def test_closed_form_joint_rejects_bad_parameters(n, noise, error):
    with pytest.raises(error):
        sequential_joint_distribution(n, noise, tsirelson_settings())
