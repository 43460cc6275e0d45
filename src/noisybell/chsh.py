"""CHSH correlators and the noise threshold for violation.

The post-selected state of the noisy family is an isotropic two-qubit state,
so every CHSH quantity here has both a matrix route (traces against local
observables) and a closed form in the retained-fraction
v = N(1-F) / (N(1-F) + 2F).  The violation boundary S(N, F) = 2 solves to
F = N / (N + c) with c = 2 / (sqrt(2) - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorTable
from .states import DensityMatrix, check_family, expectations

# Noise-threshold constant: S(N, F) > 2 exactly when F < N / (N + C_THRESHOLD).
C_THRESHOLD = 2.0 / (math.sqrt(2.0) - 1.0)

# Quantum maximum of the CHSH expression.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class DichotomicObservable:
    """A +-1-valued qubit observable in the x-z plane.

    Represents cos(theta) * sigma_z + sin(theta) * sigma_x; eigenvalues are
    exactly +1 and -1 and the eigenprojectors have the closed form
    (I +- matrix) / 2.
    """

    theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError("angle must be finite")

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, s], [s, -c]], dtype=complex)

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenprojectors (plus, minus), computed analytically."""
        mat = self.matrix()
        eye = np.eye(2, dtype=complex)
        return (eye + mat) / 2.0, (eye - mat) / 2.0


@dataclass(frozen=True)
class ChshSettings:
    """Second-stage measurement angles (Alice, Alice', Bob, Bob')."""

    theta_a: float
    theta_a_prime: float
    theta_b: float
    theta_b_prime: float

    def alice(self) -> tuple[DichotomicObservable, DichotomicObservable]:
        return DichotomicObservable(self.theta_a), DichotomicObservable(self.theta_a_prime)

    def bob(self) -> tuple[DichotomicObservable, DichotomicObservable]:
        return DichotomicObservable(self.theta_b), DichotomicObservable(self.theta_b_prime)


def tsirelson_settings() -> ChshSettings:
    """Canonical x-z-plane angles achieving the quantum maximum 2*sqrt(2).

    Fixed to (0, pi/2, pi/4, -pi/4); any locally rotated choice produces the
    same CHSH value on the states this package builds.
    """
    return ChshSettings(0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)


def correlator(rho4: DensityMatrix, obs_a: DichotomicObservable, obs_b: DichotomicObservable) -> float:
    """Expectation value Tr[rho (A x B)] on a two-qubit state."""
    if rho4.dim != 4:
        raise ValueError(f"correlator expects a 4-dimensional state, got dim {rho4.dim}")
    return float(expectations(rho4, obs_a.matrix()[None], obs_b.matrix()[None])[0, 0])


def chsh_value(rho4: DensityMatrix, settings: ChshSettings) -> float:
    """CHSH expression E(A,B) + E(A,B') + E(A',B) - E(A',B')."""
    a, a_prime = settings.alice()
    b, b_prime = settings.bob()
    return (
        correlator(rho4, a, b)
        + correlator(rho4, a, b_prime)
        + correlator(rho4, a_prime, b)
        - correlator(rho4, a_prime, b_prime)
    )


def behavior_table(rho4: DensityMatrix, settings: ChshSettings) -> BehaviorTable:
    """Outcome distribution P(a, b | x, y) of the four setting pairs.

    Setting index 0 maps to the unprimed observable on each side; outcome
    index 0 is the +1 eigenvalue.
    """
    if rho4.dim != 4:
        raise ValueError(f"behavior_table expects a 4-dimensional state, got dim {rho4.dim}")
    proj_a = np.array([obs.projectors() for obs in settings.alice()]).reshape(4, 2, 2)
    proj_b = np.array([obs.projectors() for obs in settings.bob()]).reshape(4, 2, 2)
    # [x][a] x [y][b]  ->  [x][y][a][b]
    return BehaviorTable(expectations(rho4, proj_a, proj_b).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3))


def retained_fraction(n: int, noise: float) -> float:
    """Weight of the entangled component in the post-selected two-qubit state."""
    check_family(n, noise)
    return n * (1.0 - noise) / (n * (1.0 - noise) + 2.0 * noise)


def chsh_closed_form(n: int, noise: float) -> float:
    """CHSH value of the post-selected state at the maximal-violation settings.

    Equals 2*sqrt(2) * N(1-F) / (N(1-F) + 2F); agrees with the dense
    pipeline (projection, normalization, four correlators) to float precision.
    """
    return TSIRELSON_BOUND * retained_fraction(n, noise)


def violation_threshold(n: int) -> float:
    """Largest noise fraction below which the post-selected state violates CHSH.

    Returns N / (N + c) with c = 2 / (sqrt(2) - 1); increases strictly with N
    and tends to 1, so any noise level is beaten by a large enough dimension.
    """
    if n < 2:
        raise ValueError(f"local dimension must be at least 2, got {n}")
    return n / (n + C_THRESHOLD)
