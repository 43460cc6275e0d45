"""Seeded Monte Carlo runs of the two-stage experiment.

Each run draws a uniformly random setting pair, then draws the four outcomes
(a1, b1, a2, b2) from the exact analytic joint distribution by inverse CDF
over the finite outcome set.  This reproduces the statistics of the
experiment without simulating state collapse, and a fixed seed reproduces
every count bit for bit (numpy PCG64).

Runs are drawn and binned in chunks of ``CHUNK``, so memory does not grow
with the run count.  Each array of a chunk holds at most 128 KiB, small
enough for the C allocator to serve from memory the process already holds
instead of mapping and zeroing fresh pages for every chunk.  A chunk is raw
64-bit PCG64 outputs, cut from the same stream as one-shot
``integers(0, 4, count)`` followed by ``random(count)``, so every run keeps
its (setting, uniform) pair whatever the chunk size.  Runs are binned from
the bits of those outputs through one 16 KiB int8 table that maps each
(setting pair, top 12 bits) key to its outcome bin, without building floats
except for the few runs whose bucket holds one of their pair's CDF values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorTable
from .family import chsh_closed_form, sequential_joint_distribution
from .family import noisy_state  # noqa: F401  not called; bound because perfbench/tracing.py TARGETS names it

GENERATOR_NAME = "numpy-pcg64"
CHUNK = 2**14  # runs drawn and binned at a time: an int64 array of a chunk is 128 KiB
MAX_SAMPLE_COUNT = 2**63 - 1  # outcome counters are int64
_BUCKET_BITS = 12  # a run's bucket floor(u * _BUCKETS) is the top 12 bits of its word
_BUCKETS = 2**_BUCKET_BITS


@dataclass(frozen=True)
class ExperimentSample:
    """Empirical summary of the runs of :func:`sample_experiment`, conditioned on the (in, in) branch."""

    branch_counts: np.ndarray  # [a1][b1] totals over all runs/settings
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
    conditioned = full[:, :, 0, 0, :, :]
    per_setting = conditioned.sum(axis=(2, 3))

    table = s_empirical = s_stderr = None  # S is undefined when a setting pair saw no (in, in) run
    if per_setting.min() > 0:
        table = BehaviorTable(conditioned / per_setting[:, :, None, None])
        correlators = table.correlators
        s_empirical = float(correlators[0, 0] + correlators[0, 1] + correlators[1, 0] - correlators[1, 1])
        s_stderr = math.sqrt(float(np.sum((1.0 - correlators**2) / per_setting)))
    return ExperimentSample(
        branch_counts=branch_counts,
        empirical_table=table,
        s_empirical=s_empirical,
        s_stderr=s_stderr,
        s_analytic=chsh_closed_form(dim, noise),
    )


def _draws(count: int, seed: int):
    """Yield (key, words) chunks of ``count`` runs.

    ``words`` holds one raw PCG64 output per run, whose uniform
    ``(w >> 11) * 2**-53`` is what ``random()`` returns; ``key`` holds each
    run's ``p << 12 | w >> 52`` as intp, with p its setting pair 0..3.
    Concatenated, the pairs and uniforms equal ``integers(0, 4, count)``
    followed by ``random(count)`` on one ``default_rng(seed)``.
    ``integers(0, 4)`` is the top two bits of one 32-bit half of an output,
    low half first, and never rejects (Lemire's method, range 4), so the
    pairs are ``halves >> 30`` of the little-endian 32-bit halves of
    (size + 1) // 2 outputs, which lie in run order, and the uniforms start
    (count + 1) // 2 outputs in; a second generator advanced that far draws
    them.  ``CHUNK`` is even, so only the last chunk can leave a half unused.
    """
    settings_bits = np.random.PCG64(seed)
    uniform_bits = np.random.PCG64(seed)
    uniform_bits.advance((count + 1) // 2)
    for start in range(0, count, CHUNK):
        size = min(CHUNK, count - start)
        words = uniform_bits.random_raw(size)
        key = (words >> (64 - _BUCKET_BITS)).view(np.intp)  # below 2**12, so the bits read as intp keep the value
        pairs = settings_bits.random_raw((size + 1) // 2).astype("<u8", copy=False).view("<u4")[:size]
        pairs >>= 30
        pairs <<= _BUCKET_BITS
        key |= pairs
        yield key, words


def _outcome_counts(cdf: np.ndarray, draws) -> np.ndarray:
    """Outcome counts [x][y][outcome] of the (key, words) chunks in ``draws``.

    A run with setting pair p = 2x + y and uniform u has outcome
    ``min(#{j : cdf[x, y, j] <= u}, 15)``.  The bucket ``floor(u * _BUCKETS)``
    of u is exactly the top 12 bits ``w >> 52`` of its word, so a run's key
    ``p << 12 | w >> 52`` names its pair and bucket.  With
    ``s = cdf[x, y] * _BUCKETS`` (exact, as ``_BUCKETS`` is a power of two),
    bucket k starts at outcome ``min(#{j : ceil(s_j) <= k}, 15)``: outcome o
    starts at bucket ``ceil(s_(o-1))``, outcome 0 at bucket 0.  One int8
    table maps every key to its bin ``16 * p + outcome``, or to -1 when some
    ``s_j`` lies strictly inside the bucket, at most 15 per pair.  Only runs
    in such a split bucket rebuild u and count their pair's CDF values at or
    below it.  The counts are int64, exact up to 2**63 - 1 runs.
    """
    rows = cdf.reshape(4, 16)
    scaled = rows * _BUCKETS
    first_keys = _BUCKETS * np.arange(4)[:, None]
    # The first 15 CDF values never decrease, nor do their ceilings, so bins follow each other in key order.
    ceilings = np.minimum(np.ceil(scaled[:, :15]), _BUCKETS).astype(np.intp)
    starts = np.hstack([first_keys, first_keys + ceilings]).ravel()  # first key of each (pair, outcome)
    bins = np.repeat(np.arange(64, dtype=np.int8), np.diff(starts, append=4 * _BUCKETS))
    floors = np.floor(scaled)
    inside = (floors < scaled) & (scaled < _BUCKETS)  # s_j lies strictly inside bucket floor(s_j)
    bins[(first_keys + floors.astype(np.intp))[inside]] = -1
    counts = np.zeros(64, dtype=np.int64)
    for key, words in draws:
        run_bins = bins[key]  # int8: 16 KiB a chunk; an intp table measured slower
        runs = np.flatnonzero(run_bins < 0)
        if runs.size:
            pair = key[runs] >> _BUCKET_BITS
            uniform = (words[runs] >> 11) * 2.0**-53
            run_bins[runs] = 16 * pair + np.minimum(np.count_nonzero(rows[pair] <= uniform[:, None], axis=1), 15)
        counts += np.bincount(run_bins, minlength=64)
    return counts.reshape(2, 2, 16)
