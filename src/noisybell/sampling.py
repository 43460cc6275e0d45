"""Seeded Monte Carlo runs of the two-stage experiment.

Each run draws a uniformly random setting pair, then draws the four outcomes
(a1, b1, a2, b2) from the exact analytic joint distribution by inverse CDF
over the finite outcome set.  This reproduces the statistics of the
experiment without simulating state collapse, and a fixed seed reproduces
every count bit for bit (numpy PCG64).

Runs are drawn and binned in chunks of ``CHUNK``, so memory does not grow
with the run count.  The chunks are cut from the same stream as one-shot
``integers(0, 4, count)`` followed by ``random(count)``, so every run keeps
its (setting, uniform) pair whatever the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorTable
from .chsh import chsh_closed_form
from .sequential import sequential_joint_distribution
from .states import noisy_state  # noqa: F401  not called; bound because perfbench/tracing.py TARGETS names it

GENERATOR_NAME = "numpy-pcg64"
CHUNK = 2**16  # runs drawn and binned at a time
MAX_SAMPLE_COUNT = 2**63 - 1  # outcome counters are int64
_BUCKETS = 4096  # a power of two, so floor(u * _BUCKETS) is the exact bucket of u


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


def sample_experiment(dim: int, noise: float, count: int, seed: int) -> ExperimentSample:
    """Run the seeded experiment at the Tsirelson settings and estimate the conditioned CHSH value.

    The standard error propagates the per-setting binomial variance of each
    correlator: Var(E_xy) = (1 - E_xy^2) / n_xy.
    """
    if not 1 <= count <= MAX_SAMPLE_COUNT:
        raise ValueError(f"sample count must be between 1 and {MAX_SAMPLE_COUNT}, got {count}")
    if seed < 0:
        # numpy's own message ("expected non-negative integer") names no argument.
        raise ValueError(f"sample seed must be non-negative, got {seed}")

    joint = sequential_joint_distribution(dim, noise)
    # Per setting pair: CDF over the 16 outcome tuples (a1, b1, a2, b2).
    cdf = np.cumsum(joint.reshape(2, 2, 16), axis=2)
    cdf[:, :, -1] = 1.0

    counts = _outcome_counts(cdf, _draws(count, seed))
    full = counts.reshape(2, 2, 2, 2, 2, 2)  # [x][y][a1][b1][a2][b2]
    branch_counts = full.sum(axis=(0, 1, 4, 5))
    conditioned = full[:, :, 0, 0, :, :].astype(np.int64)
    per_setting = conditioned.sum(axis=(2, 3))

    table = s_empirical = s_stderr = None  # S is undefined when a setting pair saw no (in, in) run
    if per_setting.min() > 0:
        table = BehaviorTable(conditioned / per_setting[:, :, None, None])
        correlators = table.correlators
        s_empirical = float(correlators[0, 0] + correlators[0, 1] + correlators[1, 0] - correlators[1, 1])
        s_stderr = math.sqrt(float(np.sum((1.0 - correlators**2) / per_setting)))
    return ExperimentSample(
        dim=dim,
        noise=noise,
        count=count,
        seed=seed,
        branch_counts=branch_counts,
        conditioned_counts=conditioned,
        empirical_table=table,
        s_empirical=s_empirical,
        s_stderr=s_stderr,
        s_analytic=chsh_closed_form(dim, noise),
    )


def _draws(count: int, seed: int):
    """Yield (setting, uniform) chunks of ``count`` runs.

    Concatenated, they equal ``integers(0, 4, count)`` followed by
    ``random(count)`` on one ``default_rng(seed)``.  ``integers(0, 4)`` takes
    one 32-bit half of a 64-bit output per draw and never rejects, so the
    uniforms start (count + 1) // 2 outputs in; a second generator advanced
    that far draws them.  The bit generator keeps a spare half between
    calls, so settings chunks of any size continue the one-shot stream.
    """
    settings_rng = np.random.default_rng(seed)
    uniforms_rng = np.random.default_rng(seed)
    uniforms_rng.bit_generator.advance((count + 1) // 2)
    for start in range(0, count, CHUNK):
        size = min(CHUNK, count - start)
        yield settings_rng.integers(0, 4, size=size), uniforms_rng.random(size)


def _outcome_counts(cdf: np.ndarray, draws) -> np.ndarray:
    """Outcome counts [x][y][outcome] of the (setting, uniform) chunks in ``draws``.

    A run with setting pair 2x + y and uniform u has outcome
    ``min(searchsorted(cdf[x, y], u, side="right"), 15)``.  The sorted CDF
    values of all four pairs cut [0, 1) into cells that refine every pair's
    outcome intervals, so runs are counted per (pair, cell) and each cell is
    mapped to its outcome once at the end.  A u finds its cell through a
    table over ``_BUCKETS`` equal buckets; only buckets with a CDF value
    inside need an exact search.
    """
    # Repeated values only leave empty cells.  np.unique would drop them, but
    # under numpy 2.4 it raised the benchmark's peak RSS by about 5 MB at N = 24.
    breaks = np.sort(cdf, axis=None)
    cells = breaks.size + 1  # cell c holds breaks[c - 1] <= u < breaks[c]
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    bucket_cell = np.searchsorted(breaks, edges[:-1], side="right")
    split = np.searchsorted(breaks, edges[1:], side="left") > bucket_cell

    totals = np.zeros(4 * cells, dtype=np.int64)
    for setting, uniform in draws:
        bucket = (uniform * _BUCKETS).astype(np.intp)
        cell = bucket_cell[bucket]
        inside = split[bucket]
        if inside.any():
            cell[inside] = np.searchsorted(breaks, uniform[inside], side="right")
        totals += np.bincount(setting * cells + cell, minlength=4 * cells)

    # Every u in a cell has the outcome of the cell's left end.
    left_ends = np.concatenate(([-np.inf], breaks))
    counts = np.zeros((4, 16), dtype=np.int64)
    for pair, (row, pair_totals) in enumerate(zip(cdf.reshape(4, 16), totals.reshape(4, cells))):
        np.add.at(counts[pair], np.minimum(np.searchsorted(row, left_ends, side="right"), 15), pair_totals)
    return counts.reshape(2, 2, 16)
