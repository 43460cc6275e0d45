"""The closed-form joint law the CLI samples from equals the Kronecker-product oracle.

``dense.dense_joint`` forms every two-stage effect with np.kron and takes a
plain trace of the Lueders-updated noisy state; the closed form must agree
with it to 1e-14 on the whole family, at the maximal-violation angles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noisybell.family import sequential_joint_distribution

from family_helpers import kron_joint

TOL = 1e-14


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), noise=st.floats(0.0, 1.0))
def test_closed_form_joint_distribution_matches_dense(n, noise):
    assert np.max(np.abs(sequential_joint_distribution(n, noise) - kron_joint(n, noise))) < TOL
