"""Dense Kronecker-product oracles for the contraction-based routes.

The package never forms A x B; these references do, with plain np.kron and
np.trace, and must agree with :func:`expectations` and
:func:`dense_joint_distribution` to 1e-14.  The unequal-sides cases
(3 x 4 levels) catch a wrong transpose that square, symmetric inputs hide.
The closed-form joint law the CLI samples from must in turn agree with the
dense route on the noisy family to 1e-14.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noisybell import (
    ChshSettings,
    DensityMatrix,
    SubspaceProjector,
    expectations,
    first_two_levels,
    noisy_state,
)
from noisybell.sequential import dense_joint_distribution, sequential_joint_distribution

TOL = 1e-14

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
chsh_settings = st.builds(ChshSettings, angles, angles, angles, angles)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def dense_expectations(rho: DensityMatrix, ops_a, ops_b) -> np.ndarray:
    return np.array([[np.trace(rho.matrix @ np.kron(a, b)).real for b in ops_b] for a in ops_a])


def dense_joint(rho: DensityMatrix, proj_a, proj_b, chsh: ChshSettings) -> np.ndarray:
    """P[x][y][a1][b1][a2][b2] by Lueders update and full-space effects."""

    def stage_one(proj):
        kept = proj.matrix()
        return kept, np.eye(proj.dim) - kept

    def stage_two(proj, obs):
        # The observable acts on the retained pair; the rejected complement reads +1.
        rows = np.ix_(proj.retained, proj.retained)
        plus = np.eye(proj.dim, dtype=complex) - proj.matrix()
        minus = np.zeros((proj.dim, proj.dim), dtype=complex)
        plus2, minus2 = obs.projectors()
        plus[rows] += plus2
        minus[rows] += minus2
        return plus, minus

    first_a, first_b = stage_one(proj_a), stage_one(proj_b)
    second_a = [stage_two(proj_a, obs) for obs in chsh.alice()]
    second_b = [stage_two(proj_b, obs) for obs in chsh.bob()]
    probs = np.zeros((2,) * 6)
    for a1, b1, x, y, a2, b2 in itertools.product(range(2), repeat=6):
        pi = np.kron(first_a[a1], first_b[b1])
        effect = np.kron(second_a[x][a2], second_b[y][b2])
        probs[x, y, a1, b1, a2, b2] = np.trace(effect @ pi @ rho.matrix @ pi).real
    return probs


def random_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


def random_ops(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Non-Hermitian operators of unit spectral norm, so every expectation is at most 1."""
    ops = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return ops / np.linalg.norm(ops, ord=2, axis=(1, 2))[:, None, None]


@settings(max_examples=40, deadline=None)
@given(seed=seeds, d_a=st.integers(2, 4), d_b=st.integers(2, 4), p=st.integers(1, 3), q=st.integers(1, 3))
def test_expectations_match_kron_trace(seed, d_a, d_b, p, q):
    rng = np.random.default_rng(seed)
    rho = random_state(rng, d_a * d_b)
    ops_a, ops_b = random_ops(rng, p, d_a), random_ops(rng, q, d_b)
    got = expectations(rho, ops_a, ops_b)
    assert got.shape == (p, q)
    assert np.max(np.abs(got - dense_expectations(rho, ops_a, ops_b))) < TOL


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_expectations_unequal_sides(seed):
    rng = np.random.default_rng(seed)
    rho = random_state(rng, 12)
    ops_a, ops_b = random_ops(rng, 2, 3), random_ops(rng, 3, 4)
    assert np.max(np.abs(expectations(rho, ops_a, ops_b) - dense_expectations(rho, ops_a, ops_b))) < TOL


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3, 5]), noise=st.floats(0.0, 1.0), chsh=chsh_settings)
def test_joint_distribution_matches_dense_on_family(n, noise, chsh):
    rho = noisy_state(n, noise)
    proj = first_two_levels(n)
    joint = dense_joint_distribution(rho, proj, proj, chsh)
    assert np.max(np.abs(joint.probs - dense_joint(rho, proj, proj, chsh))) < TOL


@settings(max_examples=30, deadline=None)
@given(noise=st.floats(0.0, 1.0), chsh=chsh_settings)
def test_joint_distribution_non_default_projector(noise, chsh):
    rho = noisy_state(4, noise)
    proj = SubspaceProjector(4, (1, 3))
    joint = dense_joint_distribution(rho, proj, proj, chsh)
    assert np.max(np.abs(joint.probs - dense_joint(rho, proj, proj, chsh))) < TOL


@settings(max_examples=30, deadline=None)
@given(seed=seeds, chsh=chsh_settings)
def test_joint_distribution_unequal_sides(seed, chsh):
    rho = random_state(np.random.default_rng(seed), 12)
    proj_a, proj_b = SubspaceProjector(3, (0, 2)), SubspaceProjector(4, (1, 3))
    joint = dense_joint_distribution(rho, proj_a, proj_b, chsh)
    assert np.max(np.abs(joint.probs - dense_joint(rho, proj_a, proj_b, chsh))) < TOL


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), noise=st.floats(0.0, 1.0), chsh=chsh_settings)
def test_closed_form_joint_distribution_matches_dense(n, noise, chsh):
    proj = first_two_levels(n)
    dense = dense_joint_distribution(noisy_state(n, noise), proj, proj, chsh)
    assert np.max(np.abs(sequential_joint_distribution(n, noise, chsh).probs - dense.probs)) < TOL
