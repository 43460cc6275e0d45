"""The closed-form joint law the CLI samples from equals the Kronecker-product oracle.

``dense.dense_joint`` forms every two-stage effect with np.kron and takes a
plain trace of the Lueders-updated noisy state; the closed form must agree
with it to 1e-14 on the whole family, at random second-stage angles.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noisybell import ChshSettings, noisy_state
from noisybell.sequential import sequential_joint_distribution

from dense import dense_joint

TOL = 1e-14

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
chsh_settings = st.builds(ChshSettings, angles, angles, angles, angles)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), noise=st.floats(0.0, 1.0), chsh=chsh_settings)
def test_closed_form_joint_distribution_matches_dense(n, noise, chsh):
    dense = dense_joint(noisy_state(n, noise), n, chsh)
    assert np.max(np.abs(sequential_joint_distribution(n, noise, chsh) - dense)) < TOL


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3, 5]), noise=st.floats(0.0, 1.0), chsh=chsh_settings)
def test_joint_distribution_matches_dense_on_family(n, noise, chsh):
    """The whole six-index table, at the dimensions the old dense route was checked at."""
    joint = sequential_joint_distribution(n, noise, chsh)
    assert np.max(np.abs(joint - dense_joint(noisy_state(n, noise), n, chsh))) < TOL
