"""The CHSH value and the noise threshold for violation.

The post-selected state of the noisy family is an isotropic two-qubit state,
so every CHSH quantity here is a closed form in the retained fraction
v = N(1-F) / (N(1-F) + 2F): the correlator of the x-z-plane observables at
angles (theta_x, theta_y) is v cos(theta_x - theta_y).  The violation
boundary S(N, F) = 2 solves to F = N / (N + c) with c = 2 / (sqrt(2) - 1).
"""

from __future__ import annotations

import math

from .states import check_family

# Noise-threshold constant: S(N, F) > 2 exactly when F < N / (N + C_THRESHOLD).
C_THRESHOLD = 2.0 / (math.sqrt(2.0) - 1.0)

# Quantum maximum of the CHSH expression.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


def retained_fraction(n: int, noise: float) -> float:
    """Weight of the entangled component in the post-selected two-qubit state."""
    check_family(n, noise)
    return n * (1.0 - noise) / (n * (1.0 - noise) + 2.0 * noise)


def chsh_closed_form(n: int, noise: float) -> float:
    """CHSH value of the post-selected state at the maximal-violation settings.

    Equals 2*sqrt(2) * N(1-F) / (N(1-F) + 2F): the four correlators are
    +-v / sqrt(2).
    """
    return TSIRELSON_BOUND * retained_fraction(n, noise)


def violation_threshold(n: int) -> float:
    """Largest noise fraction below which the post-selected state violates CHSH.

    Returns N / (N + c) with c = 2 / (sqrt(2) - 1); increases strictly with N
    and tends to 1, so any noise level is beaten by a large enough dimension.
    """
    check_family(n, 0.0)
    return n / (n + C_THRESHOLD)
