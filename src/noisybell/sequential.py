"""Two-stage projective measurements on the noisy entangled family.

Stage one projects each side onto its first two levels (kept/"in" versus
rejected/"out"); stage two measures a dichotomic observable on the kept
two-level subspace, extended as the constant +1 on the rejected complement.
The joint law of both stages comes in closed form for the noisy family.
"""

from __future__ import annotations

import numpy as np

from .behavior import _freeze
from .chsh import ChshSettings, retained_fraction
from .states import check_family


def success_probability(n: int, noise: float) -> float:
    """Probability that both sides land in their first two levels.

    Closed form (1 - F) * 2/N + F * 4/N**2: the entangled component keeps 2
    of its N equal-weight terms, white noise keeps 4 of N**2 basis states.
    """
    n = check_family(n, noise)
    return (1.0 - noise) * 2.0 / n + noise * 4.0 / (n * n)


def sequential_joint_distribution(n: int, noise: float, settings: ChshSettings) -> np.ndarray:
    """Joint outcome law of the two-stage experiment on the noisy family, in closed form.

    Returns P(a1, b1, a2, b2) per setting pair as a read-only float64 array
    indexed [x][y][a1][b1][a2][b2], first-stage index 0 = "in" (projection
    succeeded) and second-stage index 0 = outcome +1.

    Both sides keep their first two levels.  The post-selected state is
    v |psi_2><psi_2| + (1 - v) I/4 with v = :func:`retained_fraction`, so
    (in, in) is the success probability times (1 + a b v cos(theta_x - theta_y)) / 4
    for outcomes a, b = +-1.  The entangled component never lands in a mixed
    branch, so (in, out) and (out, in) are white noise: F (N-2)/N**2 per
    outcome of the kept side, with the rejected side at +1.  (out, out) takes
    the rest, all at +1.
    """
    n = check_family(n, noise)
    alice = np.array([settings.theta_a, settings.theta_a_prime])
    bob = np.array([settings.theta_b, settings.theta_b_prime])
    correlators = retained_fraction(n, noise) * np.cos(alice[:, None] - bob)  # [x][y]
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])  # a * b, [a2][b2]
    in_in = (1.0 + correlators[:, :, None, None] * signs) / 4.0
    mixed = noise * (n - 2) / (n * n)
    probs = np.zeros((2,) * 6)
    probs[:, :, 0, 0] = success_probability(n, noise) * in_in
    probs[:, :, 0, 1, :, 0] = mixed
    probs[:, :, 1, 0, 0, :] = mixed
    probs[:, :, 1, 1, 0, 0] = (1.0 - noise) * (n - 2) / n + noise * (n - 2) ** 2 / (n * n)
    return _freeze(probs)

