"""Seeded Monte Carlo runs of the two-stage experiment.

Each run draws a uniformly random setting pair, then draws the four outcomes
(a1, b1, a2, b2) from the exact analytic joint distribution by inverse CDF
over the finite outcome set.  This reproduces the statistics of the
experiment without simulating state collapse, and a fixed seed reproduces
every count bit for bit (numpy PCG64).

Runs are drawn and binned in chunks of ``CHUNK``, so memory does not grow
with the run count.  A chunk is raw 64-bit PCG64 outputs, cut from the same
stream as one-shot ``integers(0, 4, count)`` followed by ``random(count)``,
so every run keeps its (setting, uniform) pair whatever the chunk size.
Runs are binned from the bits of those outputs, without building floats
except for the few runs that need an exact search.
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
_BUCKET_BITS = 12  # a run's bucket floor(u * _BUCKETS) is the top 12 bits of its word
_BUCKETS = 2**_BUCKET_BITS


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
    """Yield (settings, words) chunks of ``count`` runs.

    ``settings`` holds setting pairs 0..3 as uint8; ``words`` holds one raw
    PCG64 output per run, whose uniform ``(w >> 11) * 2**-53`` is what
    ``random()`` returns.  Concatenated, the chunks equal
    ``integers(0, 4, count)`` followed by ``random(count)`` on one
    ``default_rng(seed)``.  ``integers(0, 4)`` is the top two bits of one
    32-bit half of an output, low half first, and never rejects (Lemire's
    method, range 4), so the settings are ``(w >> 30) & 3`` and ``w >> 62``
    of (size + 1) // 2 outputs, interleaved, and the uniforms start
    (count + 1) // 2 outputs in; a second generator advanced that far draws
    them.  ``CHUNK`` is even, so only the last chunk can leave a half unused.
    """
    settings_bits = np.random.PCG64(seed)
    uniform_bits = np.random.PCG64(seed)
    uniform_bits.advance((count + 1) // 2)
    for start in range(0, count, CHUNK):
        size = min(CHUNK, count - start)
        words = settings_bits.random_raw((size + 1) // 2)
        settings = np.empty(2 * words.size, dtype=np.uint8)
        # Shifts stored straight into the strided uint8 entries keep their low byte.
        np.right_shift(words, 30, out=settings[0::2], casting="unsafe")
        np.right_shift(words, 62, out=settings[1::2], casting="unsafe")
        settings &= 3  # bits 30 and 31 of the low halves; the high halves are below 4 already
        yield settings[:size], uniform_bits.random_raw(size)


def _layout(cdf: np.ndarray) -> tuple:
    """Cells and buckets of the four CDF rows ``cdf[x, y]``.

    The sorted CDF values (breaks) of all four pairs cut [0, 1) into cells
    that refine every pair's outcome intervals: cell c holds
    breaks[c - 1] <= u < breaks[c].  Returns the breaks, the cell each of
    the ``_BUCKETS`` equal buckets starts in, and which buckets a break
    splits; an unsplit bucket lies inside one cell.
    """
    # Repeated values only leave empty cells.  np.unique would drop them, but
    # under numpy 2.4 it raised the benchmark's peak RSS by about 5 MB at N = 24.
    breaks = np.sort(cdf, axis=None)
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    bucket_cell = np.searchsorted(breaks, edges[:-1], side="right")
    split = np.searchsorted(breaks, edges[1:], side="left") > bucket_cell
    return breaks, bucket_cell, split


def _outcome_counts(cdf: np.ndarray, draws) -> np.ndarray:
    """Outcome counts [x][y][outcome] of the (settings, words) chunks in ``draws``.

    A run with setting pair 2x + y and uniform u has outcome
    ``min(searchsorted(cdf[x, y], u, side="right"), 15)``.  The bucket
    ``floor(u * _BUCKETS)`` of u is exactly the top 12 bits ``w >> 52`` of
    its word, so one bincount per chunk tallies every run by its key
    ``setting << 12 | w >> 52``.  Only runs in the at most 64 split buckets
    rebuild u and search the breaks; they are tallied per (setting, cell).
    """
    breaks, _, split = layout = _layout(cdf)
    cells = breaks.size + 1
    bucket_totals = np.zeros(4 * _BUCKETS, dtype=np.int64)
    cell_totals = np.zeros(4 * cells, dtype=np.int64)
    # Reused across chunks: fresh arrays of a chunk's size cost page faults.
    bucket_buffer = np.empty(CHUNK, dtype=np.intp)
    key_buffer = np.empty(CHUNK, dtype=np.intp)
    for settings, words in draws:
        bucket = np.right_shift(words, 64 - _BUCKET_BITS, out=bucket_buffer[: words.size])
        key = np.left_shift(settings, _BUCKET_BITS, out=key_buffer[: words.size], dtype=np.intp)
        key |= bucket
        bucket_totals += np.bincount(key, minlength=4 * _BUCKETS)
        runs = np.flatnonzero(split[bucket])
        if runs.size:
            uniform = (words[runs] >> 11) * 2.0**-53
            cell = np.searchsorted(breaks, uniform, side="right")
            cell_totals += np.bincount(settings[runs].astype(np.intp) * cells + cell, minlength=4 * cells)
    return _fold(cdf, layout, bucket_totals.reshape(4, _BUCKETS), cell_totals.reshape(4, cells))


def _fold(cdf: np.ndarray, layout: tuple, bucket_totals: np.ndarray, cell_totals: np.ndarray) -> np.ndarray:
    """Outcome counts [x][y][outcome] from run totals per (pair, bucket) and per (pair, cell).

    ``bucket_totals`` counts every run, ``cell_totals`` only the runs in
    split buckets, whose bucket totals are skipped.  Every sum is in int64,
    so counts stay exact up to 2**63 - 1 runs.
    """
    breaks, bucket_cell, split = layout
    totals = cell_totals.copy()
    # bucket_cell never decreases, so the buckets starting in one cell are adjacent.
    starts = np.flatnonzero(np.diff(bucket_cell, prepend=-1))
    totals[:, bucket_cell[starts]] += np.add.reduceat(np.where(split, 0, bucket_totals), starts, axis=1)
    # Every u in a cell has the outcome of the cell's left end.
    left_ends = np.concatenate(([-np.inf], breaks))
    counts = np.zeros((4, 16), dtype=np.int64)
    for pair, (row, pair_totals) in enumerate(zip(cdf.reshape(4, 16), totals)):
        np.add.at(counts[pair], np.minimum(np.searchsorted(row, left_ends, side="right"), 15), pair_totals)
    return counts.reshape(2, 2, 16)
