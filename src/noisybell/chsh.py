"""CHSH settings, the CHSH value and the noise threshold for violation.

The post-selected state of the noisy family is an isotropic two-qubit state,
so every CHSH quantity here is a closed form in the retained fraction
v = N(1-F) / (N(1-F) + 2F): the correlator of the x-z-plane observables at
angles (theta_x, theta_y) is v cos(theta_x - theta_y).  The violation
boundary S(N, F) = 2 solves to F = N / (N + c) with c = 2 / (sqrt(2) - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import check_family

# Noise-threshold constant: S(N, F) > 2 exactly when F < N / (N + C_THRESHOLD).
C_THRESHOLD = 2.0 / (math.sqrt(2.0) - 1.0)

# Quantum maximum of the CHSH expression.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class ChshSettings:
    """Second-stage measurement angles (Alice, Alice', Bob, Bob').

    Angle theta selects the +-1-valued qubit observable
    cos(theta) * sigma_z + sin(theta) * sigma_x.  Every angle must be finite,
    and so must every difference theta_x - theta_y the correlators read.
    """

    theta_a: float
    theta_a_prime: float
    theta_b: float
    theta_b_prime: float

    def __post_init__(self) -> None:
        for name, theta in vars(self).items():
            if not math.isfinite(theta):
                raise ValueError(f"{name} must be finite, got {theta}")
        alice, bob = (self.theta_a, self.theta_a_prime), (self.theta_b, self.theta_b_prime)
        if not all(math.isfinite(a - b) for a in alice for b in bob):
            raise ValueError(f"angle differences overflow: Alice {alice}, Bob {bob}")


def tsirelson_settings() -> ChshSettings:
    """Canonical x-z-plane angles achieving the quantum maximum 2*sqrt(2).

    Fixed to (0, pi/2, pi/4, -pi/4); any locally rotated choice produces the
    same CHSH value on the states this package builds.
    """
    return ChshSettings(0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)


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
