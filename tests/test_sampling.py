import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisybell import chsh_closed_form, sample_experiment
from noisybell.sampling import CHUNK, _draws, _outcome_counts


def test_same_seed_reproduces_every_count():
    first = sample_experiment(2, 0.3, 5000, seed=42)
    second = sample_experiment(2, 0.3, 5000, seed=42)
    assert np.array_equal(first.empirical_table.probs, second.empirical_table.probs)
    assert np.array_equal(first.branch_counts, second.branch_counts)
    assert first.s_empirical == second.s_empirical
    assert first.s_stderr == second.s_stderr


def test_sample_equality_is_identity_and_samples_hash():
    first, second = sample_experiment(2, 0.3, 100, seed=42), sample_experiment(2, 0.3, 100, seed=42)
    assert first == first and first != second
    assert len({first, second, first}) == 2


def test_different_seeds_differ():
    first = sample_experiment(2, 0.3, 5000, seed=1)
    second = sample_experiment(2, 0.3, 5000, seed=2)
    assert not np.array_equal(first.empirical_table.probs, second.empirical_table.probs)


def test_qubit_runs_always_pass_first_stage():
    sample = sample_experiment(2, 0.5, 2000, seed=7)
    assert sample.branch_counts[0, 0] == 2000
    assert sample.branch_counts.sum() == 2000


def test_zero_noise_estimates_tsirelson():
    sample = sample_experiment(2, 0.0, 200_000, seed=123)
    assert not sample.insufficient_data
    assert abs(sample.s_analytic - 2.0 * math.sqrt(2.0)) < 1e-12
    assert abs(sample.s_empirical - sample.s_analytic) <= 5.0 * sample.s_stderr
    assert sample.s_stderr < 0.02


def test_white_noise_estimates_zero():
    sample = sample_experiment(4, 1.0, 100_000, seed=99)
    assert abs(sample.s_analytic) < 1e-12
    assert abs(sample.s_empirical) <= 5.0 * sample.s_stderr


def test_partially_noisy_case_tracks_closed_form():
    sample = sample_experiment(4, 0.4, 300_000, seed=5)
    assert abs(sample.s_analytic - chsh_closed_form(4, 0.4)) < 1e-12
    assert abs(sample.s_empirical - sample.s_analytic) <= 5.0 * sample.s_stderr


def test_single_run_is_insufficient():
    sample = sample_experiment(2, 0.0, 1, seed=3)
    assert sample.insufficient_data
    assert sample.s_empirical is None
    assert sample.s_stderr is None
    assert sample.empirical_table is None
    assert sample.branch_counts[0, 0] == 1


def test_empirical_table_is_normalized():
    sample = sample_experiment(2, 0.2, 20_000, seed=11)
    table = sample.empirical_table
    assert table.normalization_defect < 1e-12
    assert table.probs.min() >= 0.0


def test_rejects_non_positive_count():
    with pytest.raises(ValueError):
        sample_experiment(2, 0.0, 0, seed=1)


def test_memory_does_not_grow_with_count():
    tracemalloc.start()
    try:
        sample_experiment(2, 0.3, 4_000_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # one-shot draws of 4e6 runs held about 88 MB


@pytest.mark.parametrize(("dim", "count"), [(24, 10**5), (2, 10**6)])
def test_chunk_working_set_stays_under_768_kib(dim, count):
    """A chunk's arrays stay small enough for the heap to reuse, chunk after chunk."""
    sample_experiment(2, 0.3, 10, seed=3)  # the first call in a process imports numpy's random modules
    tracemalloc.start()
    try:
        sample_experiment(dim, 0.3, count, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 2**16-run chunks peaked at 2.2 to 2.6 MiB; 2**14-run chunks tallied into 2**14 int64 buckets at 795 KiB
    assert peak < 3 * 2**18


# --- one-shot oracle ---------------------------------------------------------
# The route the word chunks and bucket binning replaced: all settings, then all
# uniforms, from one generator; one mask, searchsorted and bincount per pair.


def _oracle_draws(count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=count), rng.random(count)


def _oracle_counts(cdf, setting_draws, uniform_draws):
    counts = np.zeros((2, 2, 16), dtype=np.int64)
    for pair in range(4):
        x, y = divmod(pair, 2)
        mask = setting_draws == pair
        if not np.any(mask):
            continue
        outcomes = np.searchsorted(cdf[x, y], uniform_draws[mask], side="right")
        counts[x, y] += np.bincount(np.minimum(outcomes, 15), minlength=16)
    return counts


def _uniform(words):
    """What random() makes of each raw PCG64 output."""
    return (words >> 11) * 2.0**-53


# 4 * CHUNK and 8 * CHUNK + 1 are the counts of the two chunk goldens in test_golden.py.
@pytest.mark.parametrize(
    "count", [1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1, 8 * CHUNK + 1]
)
def test_chunked_draws_equal_one_shot_draws(count):
    chunks = list(_draws(count, seed=2024))
    assert all(0 < key.size == words.size <= CHUNK and key.dtype == np.intp for key, words in chunks)
    key = np.concatenate([key for key, _ in chunks])
    words = np.concatenate([words for _, words in chunks])
    expected_settings, expected_uniforms = _oracle_draws(count, seed=2024)
    assert np.array_equal(key >> 12, expected_settings)
    assert np.array_equal(key & 4095, words >> 52)
    assert np.array_equal(_uniform(words).view(np.uint64), expected_uniforms.view(np.uint64))


# A CDF row holds 15 sorted interior values, then the 1.0 that sample_experiment
# forces.  Repeats are zero-probability outcomes; k/4096 sits on a bucket edge;
# a value just above 1 is the round-off a cumulative sum can leave before the 1.0.
_cdf_value = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=4096).map(lambda k: k / 4096),
    st.sampled_from([0.0, 0.5, np.nextafter(1.0, 2.0), np.nextafter(0.25, 0.0)]),
)


@st.composite
def _cdfs(draw):
    rows = []
    for _ in range(4):
        values = draw(st.lists(_cdf_value, min_size=1, max_size=15))
        values = (values * 15)[:15]  # cycling repeats values: zero-probability outcomes
        rows.append(sorted(values) + [1.0])
    return np.array(rows).reshape(2, 2, 16)


@settings(max_examples=60, deadline=None)
@given(cdf=_cdfs(), count=st.integers(min_value=1, max_value=3 * CHUNK + 1), seed=st.integers(0, 2**32))
@example(cdf=np.tile(np.arange(1, 17) / 16, (2, 2, 1)), count=3 * CHUNK + 1, seed=0)
@example(cdf=np.tile(np.r_[np.zeros(15), 1.0], (2, 2, 1)), count=1, seed=5)
# Every outcome but 0 has no bucket: its 15 CDF values lie just above 1, past the last bucket.
@example(cdf=np.tile(np.r_[np.full(15, np.nextafter(1.0, 2.0)), 1.0], (2, 2, 1)), count=CHUNK + 1, seed=3)
def test_cell_binning_matches_one_shot_oracle(cdf, count, seed):
    rng = np.random.default_rng(seed)
    setting_draws = rng.integers(0, 4, size=count)
    uniform_draws = rng.random(count)
    # Put some draws exactly on CDF values and bucket edges, or on the random()
    # lattice k * 2**-53 just below them, and on the lattice neighbours.
    edges = np.concatenate([cdf.ravel(), np.arange(4096) / 4096])
    lattice = np.floor(edges * 2.0**53) * 2.0**-53
    ties = np.concatenate([lattice, lattice - 2.0**-53, lattice + 2.0**-53])
    ties = ties[(ties >= 0.0) & (ties < 1.0)]
    hit = rng.random(count) < 0.25
    uniform_draws[hit] = rng.choice(ties, size=int(hit.sum()))
    # The words random() turns into these uniforms, with random low 11 bits it drops.
    words = (uniform_draws * 2.0**53).astype(np.uint64) << 11 | rng.integers(0, 2**11, size=count, dtype=np.uint64)
    assert np.array_equal(_uniform(words), uniform_draws)
    key = setting_draws << 12 | (words >> 52).astype(np.intp)
    chunks = [(key[i : i + CHUNK], words[i : i + CHUNK]) for i in range(0, count, CHUNK)]
    counts = _outcome_counts(cdf, chunks)
    assert counts.dtype == np.int64  # exact up to 2**63 - 1 runs
    assert np.array_equal(counts, _oracle_counts(cdf, setting_draws, uniform_draws))
