import numpy as np
import pytest
from hypothesis import settings

# Tier-1 draws the same examples on every run, so a failure recurs when the same commit
# runs again; derandomize also turns the example database off.  Each test keeps its own
# max_examples.  The non-gating fuzz job selects "fuzz" with --hypothesis-profile and
# passes a random --hypothesis-seed.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture
def lhv_world_factory():
    """Factory for synthetic sequential LHV worlds.

    Draws a random mixture of deterministic two-stage strategies: each
    strategy fixes the first-stage branch on both sides and a +-1 answer per
    second-stage setting.  The law is indexed [x][y][a1][b1][a2][b2], as
    ``sequential_joint_distribution`` returns it.  Any behavior obtained by conditioning such a
    mixture on a positive-probability branch must lie in the local polytope.
    """

    def make(rng: np.random.Generator, n_strategies: int = 12) -> np.ndarray:
        weights = rng.exponential(size=n_strategies)
        weights /= weights.sum()
        probs = np.zeros((2, 2, 2, 2, 2, 2))
        for weight in weights:
            a1 = int(rng.integers(2))
            b1 = int(rng.integers(2))
            a2 = rng.integers(2, size=2)  # outcome index per Alice setting
            b2 = rng.integers(2, size=2)
            for x in range(2):
                for y in range(2):
                    probs[x, y, a1, b1, a2[x], b2[y]] += weight
        return probs

    return make
