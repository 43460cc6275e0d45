"""Seeded Monte Carlo runs of the two-stage experiment.

Each run draws a uniformly random setting pair, then draws the four outcomes
(a1, b1, a2, b2) from the exact analytic joint distribution by inverse CDF
over the finite outcome set.  This reproduces the statistics of the
experiment without simulating state collapse, and a fixed seed reproduces
every count bit for bit (numpy PCG64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorTable
from .chsh import ChshSettings, chsh_closed_form, tsirelson_settings
from .sequential import first_two_levels, sequential_joint_distribution
from .states import noisy_state

GENERATOR_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class ExperimentSample:
    """Empirical summary of ``count`` runs, conditioned on the (in, in) branch."""

    dim: int
    noise: float
    count: int
    seed: int
    branch_counts: np.ndarray  # [a1][b1] totals over all runs/settings
    conditioned_counts: np.ndarray  # [x][y][a2][b2] within the (in, in) branch
    empirical_table: BehaviorTable | None
    s_empirical: float | None
    s_stderr: float | None
    s_analytic: float

    @property
    def insufficient_data(self) -> bool:
        """True when some setting pair saw no (in, in) sample, leaving S undefined."""
        return self.empirical_table is None


def sample_experiment(
    dim: int,
    noise: float,
    count: int,
    seed: int,
    settings: ChshSettings | None = None,
) -> ExperimentSample:
    """Run the seeded experiment and estimate the conditioned CHSH value.

    The standard error propagates the per-setting binomial variance of each
    correlator: Var(E_xy) = (1 - E_xy^2) / n_xy.
    """
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    if settings is None:
        settings = tsirelson_settings()

    joint = sequential_joint_distribution(
        noisy_state(dim, noise),
        first_two_levels(dim),
        first_two_levels(dim),
        settings,
    )
    # Per setting pair: CDF over the 16 outcome tuples (a1, b1, a2, b2).
    flat = joint.probs.reshape(2, 2, 16)
    cdf = np.cumsum(flat, axis=2)
    cdf[:, :, -1] = 1.0

    rng = np.random.default_rng(seed)
    setting_draws = rng.integers(0, 4, size=count)
    uniform_draws = rng.random(count)

    counts = np.zeros((2, 2, 16), dtype=np.int64)
    for pair in range(4):
        x, y = divmod(pair, 2)
        mask = setting_draws == pair
        if not np.any(mask):
            continue
        outcomes = np.searchsorted(cdf[x, y], uniform_draws[mask], side="right")
        counts[x, y] += np.bincount(np.minimum(outcomes, 15), minlength=16)

    full = counts.reshape(2, 2, 2, 2, 2, 2)  # [x][y][a1][b1][a2][b2]
    branch_counts = full.sum(axis=(0, 1, 4, 5))
    conditioned = full[:, :, 0, 0, :, :].astype(np.int64)
    per_setting = conditioned.sum(axis=(2, 3))

    s_analytic = chsh_closed_form(dim, noise)
    if per_setting.min() == 0:
        return ExperimentSample(
            dim=dim,
            noise=noise,
            count=count,
            seed=seed,
            branch_counts=branch_counts,
            conditioned_counts=conditioned,
            empirical_table=None,
            s_empirical=None,
            s_stderr=None,
            s_analytic=s_analytic,
        )

    table = BehaviorTable(conditioned / per_setting[:, :, None, None])
    correlators = table.correlators()
    s_empirical = float(correlators[0, 0] + correlators[0, 1] + correlators[1, 0] - correlators[1, 1])
    variance = float(np.sum((1.0 - correlators**2) / per_setting))
    return ExperimentSample(
        dim=dim,
        noise=noise,
        count=count,
        seed=seed,
        branch_counts=branch_counts,
        conditioned_counts=conditioned,
        empirical_table=table,
        s_empirical=s_empirical,
        s_stderr=math.sqrt(variance),
        s_analytic=s_analytic,
    )
