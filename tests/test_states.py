import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from noisybell import (
    chsh_closed_form,
    gap_rows,
    is_separable_family,
    noisy_state,
    sample_experiment,
    scan_grid,
    separability_threshold,
    threshold_rows,
    violation_threshold,
)
from noisybell.family import check_family

from dense import PSI2, partial_transpose


# The maximally entangled component is noisy_state(n, 0): the projector onto
# amplitude 1/sqrt(n) at every doubled index m*n + m.


def test_max_entangled_qubit_amplitudes():
    eigs, vecs = np.linalg.eigh(noisy_state(2, 0.0))
    assert abs(eigs[-1] - 1.0) < 1e-15
    assert abs(abs(vecs[:, -1] @ PSI2) - 1.0) < 1e-15


def test_max_entangled_qutrit_support():
    rho = noisy_state(3, 0.0)
    rows, cols = np.nonzero(np.abs(rho) > 0)
    assert sorted(set(rows.tolist())) == sorted(set(cols.tolist())) == [0, 4, 8]
    assert np.allclose(rho[np.ix_([0, 4, 8], [0, 4, 8])], 1.0 / 3.0, atol=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_max_entangled_normalized(n):
    rho = noisy_state(n, 0.0)
    assert rho.shape == (n * n, n * n)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho @ rho - rho)) < 1e-12


@pytest.mark.parametrize("n", [0, 1])
def test_max_entangled_rejects_small_dimension(n):
    with pytest.raises(ValueError):
        noisy_state(n, 0.0)


@pytest.mark.parametrize("n", [2.5, 2.0, np.float64(3.0)])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: scan_grid([n, 2], 0.0, 0.0, 1.0),
        lambda n: threshold_rows([n, 2]),
        lambda n: sample_experiment(n, 0.1, 100, seed=0),
    ],
    ids=["scan_grid", "threshold_rows", "sample_experiment"],
)
def test_family_rejects_a_non_integer_dimension(call, n):
    """scan_grid([2.5, 2], ...) used to write two rows labelled N=2, and sample_experiment(2.5, ...) ran."""
    with pytest.raises(ValueError, match="local dimension must be an integer"):
        call(n)


def test_family_takes_numpy_integer_dimensions():
    assert scan_grid([np.int64(3), 2], 0.0, 0.0, 1.0)["N"].tolist() == [2, 3]
    assert threshold_rows([np.int32(3)])["threshold_closed_form"][0] == pytest.approx(violation_threshold(3))
    # int32 50000**2 wraps to a negative number and int64 (2**32)**2 to 0: the law had negative or inf entries.
    for n in (np.int64(2), np.int32(50000), np.int64(2**32)):
        assert type(check_family(n, 0.5)) is int
        sample, expected = (sample_experiment(m, 1.0, 100, seed=0) for m in (n, int(n)))
        assert (sample.s_empirical, sample.s_stderr) == (expected.s_empirical, expected.s_stderr)
        assert np.array_equal(sample.branch_counts, expected.branch_counts)
    # int32 and int64 at their maxima wrap in n + 1: the separability boundary n / (n + 1) came out negative.
    # uint64 past int64 used to be stored as np.uint64 in the object N column, which Table rejects.
    for n in (np.int32(2**31 - 1), np.int64(2**63 - 1), np.uint64(2**64 - 1)):
        assert is_separable_family(n, 0.5) is is_separable_family(int(n), 0.5) is False
        for table, expected in [
            (scan_grid([n], 0.0, 1.0, 0.25), scan_grid([int(n)], 0.0, 1.0, 0.25)),
            (threshold_rows([n]), threshold_rows([int(n)])),
            (gap_rows([n]), gap_rows([int(n)])),
        ]:
            assert [type(x) for x in table["N"].tolist()] == [type(x) for x in expected["N"].tolist()]
            for name in table.columns:
                assert np.array_equal(table[name], expected[name]), name


def test_noisy_state_zero_noise_is_pure():
    assert np.allclose(noisy_state(2, 0.0), np.outer(PSI2, PSI2), atol=1e-15)


def test_noisy_state_full_noise_is_uniform():
    assert np.allclose(noisy_state(2, 1.0), np.eye(4) / 4.0, atol=1e-15)


def test_noisy_state_half_noise_entry():
    # Hand evaluation of the two terms: 0.5 * 1/2 + 0.5 * 1/4.
    assert abs(noisy_state(2, 0.5)[0, 0] - 0.375) < 1e-15


@pytest.mark.parametrize("noise", [-0.1, 1.1, math.inf])
def test_noisy_state_rejects_bad_noise(noise):
    with pytest.raises(ValueError):
        noisy_state(2, noise)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("noise", [0.0, 0.25, 0.4, 0.5, 0.75, 1.0])
def test_noisy_state_spectrum(n, noise):
    """Eigenvalues are (1-F) + F/N^2 once and F/N^2 with multiplicity N^2 - 1."""
    dim = n * n
    eigs = np.sort(np.linalg.eigvalsh(noisy_state(n, noise)))
    expected = np.sort(np.concatenate([[1.0 - noise + noise / dim], np.full(dim - 1, noise / dim)]))
    assert np.max(np.abs(eigs - expected)) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("noise", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_noisy_state_passes_validate(n, noise):
    """Hermitian, unit trace and positive semidefinite."""
    rho = noisy_state(n, noise)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-10


def test_separability_examples():
    # fl(2/3) lies below 2/3, so the state there is entangled; the next float up is separable.
    assert not is_separable_family(2, 2.0 / 3.0)
    assert is_separable_family(2, math.nextafter(2.0 / 3.0, 1.0))
    assert not is_separable_family(2, 0.5)
    assert is_separable_family(100, 0.995)


@pytest.mark.parametrize("n", [2, 3, 5, 17])
def test_separability_flips_at_boundary(n):
    boundary = n / (n + 1)
    assert not is_separable_family(n, boundary - 1e-9)
    assert is_separable_family(n, boundary + 1e-9)


def test_separability_threshold_is_the_one_boundary():
    """is_separable_family and gap_rows' gap_hi both read N/(N+1) from separability_threshold.

    int32 and int64 at their maxima wrap around in n + 1, and uint64 past int64 has no int64 twin.
    """
    dims = [2, 3, 17, 10**6, np.int32(2**31 - 1), np.int64(2**63 - 1), np.uint64(2**64 - 1)]
    for n in dims:
        boundary = separability_threshold(n)
        assert type(boundary) is float and boundary == int(n) / (int(n) + 1)
        # One ulp either side; one ulp up from 1.0 is no noise fraction.
        for noise in (math.nextafter(boundary, 0.0), boundary, math.nextafter(boundary, 1.0)):
            assert is_separable_family(n, noise) is (Fraction(noise) * (int(n) + 1) >= int(n))
    assert gap_rows(dims)["gap_hi"].tolist() == [separability_threshold(n) for n in dims]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 5), noise=st.floats(0.0, 1.0))
def test_separability_matches_ppt(n, noise):
    """For this family PPT is exact (Horodecki & Horodecki, PRA 59, 4206 (1999)).

    The smallest partial-transpose eigenvalue is (N+1)(F - N/(N+1))/N**2, so
    1e-9 away from the boundary its sign is far above round-off.
    """
    assume(abs(noise - n / (n + 1)) > 1e-9)
    min_eig = np.linalg.eigvalsh(partial_transpose(noisy_state(n, noise), n))[0]
    assert is_separable_family(n, noise) == (min_eig >= 0.0)


@pytest.mark.parametrize(
    "noise,first_bad",
    [([0.2, 1.5, -1.0], "1.5"), ([0.0, math.nan, 2.0], "nan"), ([[0.5, 1.0], [-0.25, 0.0]], "-0.25")],
)
def test_check_family_names_first_bad_array_entry(noise, first_bad):
    with pytest.raises(ValueError, match=rf"noise fraction must lie in \[0, 1\], got {first_bad}$"):
        check_family(3, np.array(noise))


def _elementwise_rule(noise) -> str | None:
    """What check_family raised for noise when it tested every entry, or None where it passed."""
    values = np.asarray(noise)
    bad = ~((values >= 0.0) & (values <= 1.0))
    return f"noise fraction must lie in [0, 1], got {values[bad][0].item()}" if bad.any() else None


_EDGES = st.sampled_from([-0.0, 0.0, 1.0, math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0), math.nan, math.inf])
_REALS = st.one_of(_EDGES, st.floats(0.0, 1.0), st.floats())


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([2, 3, np.int64(5), np.uint8(7), 10**30]),
    noise=st.one_of(
        _REALS,
        _REALS.map(np.float64),
        st.floats(width=32).map(np.float32),
        st.integers(-2, 3),
        arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6), elements=_REALS),
    ),
)
@example(n=2, noise=math.nan)
@example(n=2, noise=-0.0)
@example(n=2, noise=1.0)
@example(n=2, noise=math.nextafter(1.0, 2.0))
@example(n=2, noise=np.array([]))
@example(n=np.int64(3), noise=np.array([0.5, math.nan, -1.0]))
def test_check_family_takes_and_rejects_as_the_elementwise_rule(n, noise):
    """Comparing a scalar once and an array's min and max decides as testing every entry does.

    A rejection names the same first bad entry.
    """
    expected = _elementwise_rule(noise)
    if expected is None:
        checked = check_family(n, noise)
        assert type(checked) is int and checked == n
    else:
        with pytest.raises(ValueError) as raised:
            check_family(n, noise)
        assert str(raised.value) == expected


def test_family_closed_forms_take_noise_arrays():
    noise = np.array([0.0, 0.5, 0.75, 1.0])
    assert is_separable_family(2, noise).tolist() == [False, False, True, True]
    assert chsh_closed_form(2, noise).tolist() == [chsh_closed_form(2, f) for f in noise.tolist()]
    assert type(chsh_closed_form(2, 0.5)) is float
    assert type(is_separable_family(2, 0.5)) is bool


def test_states_are_immutable():
    rho = noisy_state(2, 0.5)
    assert rho.dtype == complex
    with pytest.raises(ValueError):
        rho[0, 0] = 9.0
