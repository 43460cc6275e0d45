import math

import numpy as np
import pytest

from noisybell import (
    C_THRESHOLD,
    TSIRELSON_BOUND,
    chsh_closed_form,
    noisy_state,
    retained_fraction,
    violation_threshold,
)

from dense import (
    PSI2_MATRIX,
    TSIRELSON,
    behavior_table,
    chsh_value,
    correlator,
    observable,
    observable_projectors,
    post_select,
    random_state,
)

UNIFORM4 = noisy_state(2, 1.0)

ANGLES = [0.0, 0.3, math.pi / 4, -1.2, 2.9]


@pytest.mark.parametrize("theta", ANGLES)
def test_observable_is_hermitian_with_unit_eigenvalues(theta):
    mat = observable(theta)
    assert np.allclose(mat, mat.conj().T)
    eigs = np.sort(np.linalg.eigvalsh(mat))
    assert np.allclose(eigs, [-1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("theta", ANGLES)
def test_observable_projectors(theta):
    plus, minus = observable_projectors(theta)
    assert np.allclose(plus + minus, np.eye(2), atol=1e-15)
    assert np.allclose(plus @ plus, plus, atol=1e-15)
    assert np.allclose(plus - minus, observable(theta), atol=1e-15)


def test_white_noise_has_no_correlations():
    assert abs(chsh_value(UNIFORM4, TSIRELSON)) < 1e-12
    assert abs(correlator(UNIFORM4, 0.4, -0.9)) < 1e-12


@pytest.mark.parametrize("theta_a", ANGLES)
@pytest.mark.parametrize("theta_b", ANGLES)
def test_correlator_matches_angle_difference(theta_a, theta_b):
    value = correlator(PSI2_MATRIX, theta_a, theta_b)
    assert abs(value - math.cos(theta_a - theta_b)) < 1e-12


@pytest.mark.parametrize("n,noise", [(2, 0.3), (4, 0.5), (7, 0.9)])
def test_correlator_scales_with_retained_fraction(n, noise):
    rho, _ = post_select(noisy_state(n, noise), n)
    v = retained_fraction(n, noise)
    for theta_a, theta_b in [(0.0, 0.7), (1.1, -0.4)]:
        value = correlator(rho, theta_a, theta_b)
        assert abs(value - v * math.cos(theta_a - theta_b)) < 1e-12


def test_closed_form_at_zero_noise():
    for n in (2, 5, 100):
        assert abs(chsh_closed_form(n, 0.0) - TSIRELSON_BOUND) < 1e-12


def test_post_selected_midpoint_does_not_violate():
    # v = 2/3 at (N=4, F=0.5): S = (2/3) * 2*sqrt(2) < 2
    value = chsh_value(post_select(noisy_state(4, 0.5), 4)[0], TSIRELSON)
    assert abs(value - 1.8856180831641267) < 1e-12
    assert value < 2.0


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 100])
def test_violation_iff_below_threshold(n):
    threshold = violation_threshold(n)
    for noise in np.linspace(0.0, 1.0, 41):
        above_two = chsh_closed_form(n, float(noise)) > 2.0
        assert above_two == (noise < threshold) or abs(noise - threshold) < 1e-12


def test_threshold_constant():
    assert abs(C_THRESHOLD - 2.0 / (math.sqrt(2.0) - 1.0)) < 1e-12
    assert abs(C_THRESHOLD - (2.0 + 2.0 * math.sqrt(2.0))) < 1e-12
    assert abs(C_THRESHOLD - 4.83) < 0.005  # two-decimal check


def test_threshold_qubit_value():
    assert abs(violation_threshold(2) - (1.0 - 1.0 / math.sqrt(2.0))) < 1e-12


def test_closed_form_decreasing_in_noise():
    for n in (2, 4, 16):
        values = [chsh_closed_form(n, f) for f in np.linspace(0.0, 1.0, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", range(2, 9))
def test_dense_pipeline_matches_closed_form(n):
    """Project, renormalize, take four correlators; compare to the closed form."""
    for k in range(11):
        noise = k / 10.0
        post, _ = post_select(noisy_state(n, noise), n)
        assert abs(chsh_value(post, TSIRELSON) - chsh_closed_form(n, noise)) < 1e-10


def test_tsirelson_bound_on_random_states():
    """No valid two-qubit state exceeds 2*sqrt(2) at the fixed settings."""
    rng = np.random.default_rng(20250817)
    for _ in range(200):
        value = chsh_value(random_state(rng, 4), TSIRELSON)
        assert abs(value) <= TSIRELSON_BOUND + 1e-9


def test_behavior_table_from_state():
    table = behavior_table(PSI2_MATRIX, TSIRELSON)
    assert table.normalization_defect < 1e-12
    assert table.signaling_defect < 1e-10
    for x in range(2):
        for y in range(2):
            sign = -1.0 if (x, y) == (1, 1) else 1.0
            assert abs(table.correlators[x, y] - sign / math.sqrt(2.0)) < 1e-12

