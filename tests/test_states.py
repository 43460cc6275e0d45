import math

import numpy as np
import pytest

from noisybell import (
    DensityMatrix,
    PureState,
    is_separable_family,
    max_entangled,
    noisy_state,
    validate,
)


def test_max_entangled_qubit_amplitudes():
    psi = max_entangled(2)
    expected = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert np.allclose(psi.amplitudes, expected, atol=1e-15)


def test_max_entangled_qutrit_support():
    psi = max_entangled(3)
    nonzero = np.flatnonzero(np.abs(psi.amplitudes) > 0)
    assert nonzero.tolist() == [0, 4, 8]
    assert np.allclose(psi.amplitudes[nonzero], 1.0 / math.sqrt(3.0), atol=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_max_entangled_normalized(n):
    psi = max_entangled(n)
    assert psi.dim == n * n
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [0, 1])
def test_max_entangled_rejects_small_dimension(n):
    with pytest.raises(ValueError):
        max_entangled(n)


def test_noisy_state_zero_noise_is_pure():
    psi = max_entangled(2)
    rho = noisy_state(2, 0.0)
    assert np.allclose(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-15)


def test_noisy_state_full_noise_is_uniform():
    rho = noisy_state(2, 1.0)
    assert np.allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-15)


def test_noisy_state_half_noise_entry():
    # Hand evaluation of the two terms: 0.5 * 1/2 + 0.5 * 1/4.
    rho = noisy_state(2, 0.5)
    assert abs(rho.matrix[0, 0] - 0.375) < 1e-15


@pytest.mark.parametrize("noise", [-0.1, 1.1, math.inf])
def test_noisy_state_rejects_bad_noise(noise):
    with pytest.raises(ValueError):
        noisy_state(2, noise)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("noise", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_noisy_state_spectrum(n, noise):
    """Eigenvalues are (1-F) + F/N^2 once and F/N^2 with multiplicity N^2 - 1."""
    dim = n * n
    eigs = np.sort(np.linalg.eigvalsh(noisy_state(n, noise).matrix))
    expected = np.sort(np.concatenate([[1.0 - noise + noise / dim], np.full(dim - 1, noise / dim)]))
    assert np.max(np.abs(eigs - expected)) < 1e-10


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("noise", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_noisy_state_passes_validate(n, noise):
    report = validate(noisy_state(n, noise), tol=1e-12)
    assert report.ok
    assert report.hermiticity_defect < 1e-12
    assert report.trace_defect < 1e-12
    assert report.min_eigenvalue >= -1e-10


def test_separability_examples():
    assert is_separable_family(2, 2.0 / 3.0)
    assert not is_separable_family(2, 0.5)
    assert is_separable_family(100, 0.995)


@pytest.mark.parametrize("n", [2, 3, 5, 17])
def test_separability_flips_at_boundary(n):
    boundary = n / (n + 1)
    assert not is_separable_family(n, boundary - 1e-9)
    assert is_separable_family(n, boundary + 1e-9)


def test_validate_off_grid_state():
    report = validate(noisy_state(3, 0.4), tol=1e-12)
    assert report.ok
    assert report.min_eigenvalue >= 0.0


def test_density_matrix_eigenvalues_sorted():
    eigs = noisy_state(2, 0.5).eigenvalues()
    assert eigs.shape == (4,)
    assert abs(eigs[-1] - (0.5 + 0.125)) < 1e-12
    assert all(a <= b for a, b in zip(eigs, eigs[1:]))


def test_validate_reports_trace_defect():
    report = validate(np.eye(2, dtype=complex))  # trace 2
    assert abs(report.trace_defect - 1.0) < 1e-15
    assert not report.ok


def test_validate_pure_state_has_zero_min_eigenvalue():
    report = validate(noisy_state(2, 0.0))
    assert abs(report.min_eigenvalue) < 1e-10


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_density_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        DensityMatrix(np.zeros((2, 3)))


def test_density_matrix_rejects_non_finite():
    mat = np.eye(2, dtype=complex)
    mat[0, 0] = np.nan
    with pytest.raises(ValueError):
        DensityMatrix(mat)


def test_states_are_immutable():
    rho = noisy_state(2, 0.5)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0
