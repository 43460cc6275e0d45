import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noisybell import (
    DensityMatrix,
    PureState,
    chsh_closed_form,
    is_separable_family,
    max_entangled,
    noisy_state,
    validate,
)
from noisybell.states import check_family


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
    report = validate(noisy_state(n, noise))
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


def _partial_transpose(rho: DensityMatrix, n: int) -> np.ndarray:
    """Transpose Bob's factor: <i j|rho^T_B|k l> = <i l|rho|k j>."""
    return rho.matrix.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 5), noise=st.floats(0.0, 1.0))
def test_separability_matches_ppt(n, noise):
    """For this family PPT is exact (Horodecki & Horodecki, PRA 59, 4206 (1999)).

    The smallest partial-transpose eigenvalue is (N+1)(F - N/(N+1))/N**2, so
    1e-9 away from the boundary its sign is far above round-off.
    """
    assume(abs(noise - n / (n + 1)) > 1e-9)
    min_eig = np.linalg.eigvalsh(_partial_transpose(noisy_state(n, noise), n))[0]
    assert is_separable_family(n, noise) == (min_eig >= 0.0)


@pytest.mark.parametrize(
    "noise,first_bad",
    [([0.2, 1.5, -1.0], "1.5"), ([0.0, math.nan, 2.0], "nan"), ([[0.5, 1.0], [-0.25, 0.0]], "-0.25")],
)
def test_check_family_names_first_bad_array_entry(noise, first_bad):
    with pytest.raises(ValueError, match=rf"noise fraction must lie in \[0, 1\], got {first_bad}$"):
        check_family(3, np.array(noise))


def test_family_closed_forms_take_noise_arrays():
    noise = np.array([0.0, 0.5, 0.75, 1.0])
    assert is_separable_family(2, noise).tolist() == [False, False, True, True]
    assert chsh_closed_form(2, noise).tolist() == [chsh_closed_form(2, f) for f in noise.tolist()]
    assert type(chsh_closed_form(2, 0.5)) is float
    assert type(is_separable_family(2, 0.5)) is bool


def test_validate_off_grid_state():
    report = validate(noisy_state(3, 0.4))
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
