"""Two-stage projective measurements on the noisy entangled family.

Stage one projects each side onto a retained subspace (kept/"in" versus
rejected/"out"); stage two measures a dichotomic observable on the retained
two-level subspace.  The post-selected state and the joint law of both
stages come in closed form for the noisy family and by dense projection
(Lueders update) for any state; conditioning turns a fixed first-stage
branch into a behavior table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorTable, _freeze
from .chsh import ChshSettings, DichotomicObservable, behavior_table, retained_fraction
from .states import DensityMatrix, check_family, expectations, max_entangled

BRANCHES = ("in", "out")

# Branch probabilities below this are treated as true zeros, not round-off.
ZERO_BRANCH_TOL = 1e-14


class ZeroProbabilityBranch(ValueError):
    """Conditioning was requested on a branch of (numerically) zero probability."""


@dataclass(frozen=True)
class SubspaceProjector:
    """Diagonal 0/1 projector onto a set of computational basis indices."""

    dim: int
    retained: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"projector dimension must be positive, got {self.dim}")
        indices = tuple(sorted(int(i) for i in self.retained))
        if len(set(indices)) != len(indices):
            raise ValueError("retained indices must be distinct")
        if not indices:
            raise ValueError("projector must retain at least one index")
        if indices[0] < 0 or indices[-1] >= self.dim:
            raise ValueError(f"retained indices {indices} out of range for dim {self.dim}")
        object.__setattr__(self, "retained", indices)

    def matrix(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[self.retained, self.retained] = 1.0
        return mat


def first_two_levels(dim: int) -> SubspaceProjector:
    """The projector used throughout: keep basis levels 0 and 1."""
    return SubspaceProjector(dim=dim, retained=(0, 1))


def post_select(
    rho: DensityMatrix,
    proj_a: SubspaceProjector,
    proj_b: SubspaceProjector,
) -> tuple[DensityMatrix, float]:
    """Project both sides, renormalize, and compress to the retained block.

    Returns the conditional state on the retained subspace (ordered by
    retained index, first factor major) together with the success
    probability p = Tr[(Pi_A x Pi_B) rho].
    """
    if rho.dim != proj_a.dim * proj_b.dim:
        raise ValueError(
            f"state dim {rho.dim} does not factor as {proj_a.dim} x {proj_b.dim}"
        )
    keep = [ia * proj_b.dim + ib for ia in proj_a.retained for ib in proj_b.retained]
    block = rho.matrix[np.ix_(keep, keep)]
    prob = float(np.trace(block).real)
    if prob < ZERO_BRANCH_TOL:
        raise ZeroProbabilityBranch(f"projection succeeds with probability {prob}")
    return DensityMatrix(block / prob), prob


def success_probability(n: int, noise: float) -> float:
    """Probability that both sides land in their first two levels.

    Closed form (1 - F) * 2/N + F * 4/N**2: the entangled component keeps 2
    of its N equal-weight terms, white noise keeps 4 of N**2 basis states.
    """
    check_family(n, noise)
    return (1.0 - noise) * 2.0 / n + noise * 4.0 / (n * n)


def post_selected_closed_form(n: int, noise: float) -> DensityMatrix:
    """Two-qubit conditional state after both first-stage projections succeed.

    Returns v |psi_2><psi_2| + (1 - v) I/4 with v = N(1-F) / (N(1-F) + 2F).
    The identity term is the maximally mixed state of the retained two-qubit
    space, which is what unit trace forces.
    """
    v = retained_fraction(n, noise)
    psi2 = max_entangled(2)
    mat = v * np.outer(psi2.amplitudes, psi2.amplitudes.conj())
    mat += (1.0 - v) * np.eye(4, dtype=complex) / 4.0
    return DensityMatrix(mat)


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


def _second_stage_projectors(
    proj: SubspaceProjector, observable: DichotomicObservable
) -> tuple[np.ndarray, np.ndarray]:
    """Full-space eigenprojectors of the extended second-stage observable.

    The observable acts on the retained two-level subspace; on the rejected
    complement it is extended as the constant +1, so the +1 projector absorbs
    the complement.  Any fixed extension would do once the analysis
    conditions on the "in" branch; this one is the recorded convention.
    """
    if len(proj.retained) != 2:
        raise ValueError(
            f"second-stage observables need a 2-level retained subspace, got {len(proj.retained)}"
        )
    plus2, minus2 = observable.projectors()
    rows = np.array(proj.retained)
    plus = np.eye(proj.dim, dtype=complex) - proj.matrix()
    minus = np.zeros((proj.dim, proj.dim), dtype=complex)
    plus[np.ix_(rows, rows)] += plus2
    minus[np.ix_(rows, rows)] += minus2
    return plus, minus


def _stage_effects(proj: SubspaceProjector, observables: tuple[DichotomicObservable, ...]) -> np.ndarray:
    """Effects Pi1 E2 Pi1 of one side's two stages, indexed [x][a1][a2] and flattened.

    Pi1 is the stage-one projector of branch a1 (in, out) and E2 the
    second-stage projector of outcome a2 under setting x.
    """
    kept = proj.matrix()
    first = np.stack([kept, np.eye(proj.dim, dtype=complex) - kept])[None, :, None]
    second = np.array([_second_stage_projectors(proj, obs) for obs in observables])[:, None, :]
    return (first @ second @ first).reshape(-1, proj.dim, proj.dim)


def sequential_joint_distribution(n: int, noise: float, settings: ChshSettings) -> SequentialJointDistribution:
    """Joint outcome law of the two-stage experiment on the noisy family, in closed form.

    Both sides keep their first two levels.  (in, in) is the success
    probability times the behavior of the post-selected two-qubit state.  The
    entangled component never lands in a mixed branch, so (in, out) and
    (out, in) are white noise: F (N-2)/N**2 per outcome of the kept side,
    with the rejected side at +1.  (out, out) takes the rest, all at +1.
    Equals :func:`dense_joint_distribution` of the family to float precision.
    """
    in_in = behavior_table(post_selected_closed_form(n, noise), settings).probs
    mixed = noise * (n - 2) / (n * n)
    probs = np.zeros((2,) * 6)
    probs[:, :, 0, 0] = success_probability(n, noise) * in_in
    probs[:, :, 0, 1, :, 0] = mixed
    probs[:, :, 1, 0, 0, :] = mixed
    probs[:, :, 1, 1, 0, 0] = (1.0 - noise) * (n - 2) / n + noise * (n - 2) ** 2 / (n * n)
    return SequentialJointDistribution(probs)


def dense_joint_distribution(
    rho: DensityMatrix,
    proj_a: SubspaceProjector,
    proj_b: SubspaceProjector,
    settings: ChshSettings,
) -> SequentialJointDistribution:
    """Joint outcome law of the two-stage experiment on any state, by dense projection.

    Stage one measures {Pi, 1 - Pi} on each side (Lueders update); stage two
    measures the extended dichotomic observables.  Per setting pair the 16
    outcome probabilities sum to 1, and the first-stage marginals do not
    depend on the second-stage settings.  The closed form's test reference.
    """
    values = expectations(
        rho, _stage_effects(proj_a, settings.alice()), _stage_effects(proj_b, settings.bob())
    )
    # [x][a1][a2] x [y][b1][b2]  ->  [x][y][a1][b1][a2][b2]
    probs = values.reshape((2,) * 6).transpose(0, 3, 1, 4, 2, 5)
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
