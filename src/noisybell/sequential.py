"""Two-stage projective measurements on the noisy entangled family.

Stage one projects each side onto its first two levels (kept/"in" versus
rejected/"out"); stage two measures a dichotomic observable on the kept
two-level subspace, extended as the constant +1 on the rejected complement.
The joint law of both stages comes in closed form for the noisy family;
conditioning turns a fixed first-stage branch into a behavior table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorTable, _freeze
from .chsh import ChshSettings, retained_fraction
from .states import check_family

BRANCHES = ("in", "out")

# Branch probabilities below this are treated as true zeros, not round-off.
ZERO_BRANCH_TOL = 1e-14


class ZeroProbabilityBranch(ValueError):
    """Conditioning was requested on a branch of (numerically) zero probability."""


def success_probability(n: int, noise: float) -> float:
    """Probability that both sides land in their first two levels.

    Closed form (1 - F) * 2/N + F * 4/N**2: the entangled component keeps 2
    of its N equal-weight terms, white noise keeps 4 of N**2 basis states.
    """
    check_family(n, noise)
    return (1.0 - noise) * 2.0 / n + noise * 4.0 / (n * n)


@dataclass(frozen=True)
class SequentialJointDistribution:
    """P(a1, b1, a2, b2) per second-stage setting pair.

    Array layout: [x][y][a1][b1][a2][b2] with first-stage index 0 = "in"
    (projection succeeded) and second-stage index 0 = outcome +1.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        if probs.shape != (2, 2, 2, 2, 2, 2):
            raise ValueError(f"joint distribution must have shape (2,)*6, got {probs.shape}")
        if not np.all(np.isfinite(probs)):
            raise ValueError("joint distribution contains non-finite entries")
        if probs.min() < -1e-10:
            raise ValueError(f"joint distribution has negative entry {probs.min()}")
        object.__setattr__(self, "probs", _freeze(np.clip(probs, 0.0, None)))

    def setting_total(self, x: int, y: int) -> float:
        return float(self.probs[x, y].sum())

    def first_stage_marginal(self, first_a: str, first_b: str) -> float:
        """P(a1, b1), read at setting pair (0, 0); identical across settings."""
        a1 = BRANCHES.index(first_a)
        b1 = BRANCHES.index(first_b)
        return float(self.probs[0, 0, a1, b1].sum())

    def marginal_spread(self) -> float:
        """Largest variation of a first-stage marginal across setting pairs."""
        marg = self.probs.sum(axis=(4, 5))  # [x][y][a1][b1]
        return float(np.max(marg.max(axis=(0, 1)) - marg.min(axis=(0, 1))))


def sequential_joint_distribution(n: int, noise: float, settings: ChshSettings) -> SequentialJointDistribution:
    """Joint outcome law of the two-stage experiment on the noisy family, in closed form.

    Both sides keep their first two levels.  The post-selected state is
    v |psi_2><psi_2| + (1 - v) I/4 with v = :func:`retained_fraction`, so
    (in, in) is the success probability times (1 + a b v cos(theta_x - theta_y)) / 4
    for outcomes a, b = +-1.  The entangled component never lands in a mixed
    branch, so (in, out) and (out, in) are white noise: F (N-2)/N**2 per
    outcome of the kept side, with the rejected side at +1.  (out, out) takes
    the rest, all at +1.
    """
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
    return SequentialJointDistribution(probs)


def condition_on_first(
    joint: SequentialJointDistribution, first_a: str = "in", first_b: str = "in"
) -> BehaviorTable:
    """Second-stage behavior table conditioned on a fixed first-stage branch."""
    if first_a not in BRANCHES or first_b not in BRANCHES:
        raise ValueError(f"branch labels must be in {BRANCHES}, got ({first_a!r}, {first_b!r})")
    a1 = BRANCHES.index(first_a)
    b1 = BRANCHES.index(first_b)
    branch = joint.probs[:, :, a1, b1, :, :]  # [x][y][a2][b2]
    marginals = branch.sum(axis=(2, 3))
    if marginals.min() < ZERO_BRANCH_TOL:
        raise ZeroProbabilityBranch(
            f"branch ({first_a}, {first_b}) has probability {marginals.min()}"
        )
    return BehaviorTable(branch / marginals[:, :, None, None])
