"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from noisybell import (
    BehaviorTable,
    C_THRESHOLD,
    TSIRELSON_BOUND,
    bisect_threshold,
    chsh_closed_form,
    gap_rows,
    is_local_facets,
    is_local_lp,
    sample_experiment,
    scan_grid,
    success_probability,
    violation_threshold,
)
from noisybell.cli import main

from dense import TSIRELSON, behavior_table, chsh_value, condition, local_vertices, noisy_state, post_select
from family_helpers import post_selected_closed_form


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {number} FAIL ({elapsed:.3f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.3f}s, budget {budget}s"
    print(f"[acceptance] criterion {number} PASS ({elapsed:.3f}s): {description}")


def test_criterion_1_threshold_constant():
    with criterion(1, "c = 2/(sqrt(2)-1) ~ 4.83; bisection roots match N/(N+c) to 1e-9", budget=1.0):
        assert abs(C_THRESHOLD - 4.83) < 0.005
        assert abs(C_THRESHOLD - 2.0 / (math.sqrt(2.0) - 1.0)) < 1e-12
        for n in (2, 3, 4, 8, 16, 100):
            assert abs(bisect_threshold(n) - violation_threshold(n)) < 1e-9


def test_criterion_2_closed_form_conditioned_state():
    with criterion(2, "closed form == dense post-selection to 1e-12 for N in [2,8], F on 0.1 grid", budget=10.0):
        for n in range(2, 9):
            for k in range(11):
                noise = k / 10.0
                dense, prob = post_select(noisy_state(n, noise), n)
                assert np.max(np.abs(dense - post_selected_closed_form(n, noise))) < 1e-12
                assert abs(prob - success_probability(n, noise)) < 1e-12


def test_criterion_3_maximal_violation():
    with criterion(3, "CHSH value of the entangled two-qubit state is 2*sqrt(2) to 1e-12"):
        value = chsh_value(noisy_state(2, 0.0), TSIRELSON)
        assert abs(value - TSIRELSON_BOUND) < 1e-12


def test_criterion_4_robustness():
    with criterion(4, "S(100, 0.9) ~ 2.3969 > 2 and the threshold rises monotonically to 1"):
        s_value = chsh_closed_form(100, 0.9)
        assert s_value > 2.0
        assert abs(s_value - 2.396972139615415) < 1e-12
        thresholds = [violation_threshold(n) for n in [2, 3, 4, 8, 16, 32, 100, 10**3, 10**4, 10**6]]
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
        assert abs(1.0 - thresholds[-1]) < 5e-6


def test_criterion_5_lhv_oracle_agreement():
    seed = 20260808
    with criterion(5, f"LP and 8-facet verdicts agree on 1000 random no-signaling tables (seed {seed})", budget=30.0):
        rng = np.random.default_rng(seed)
        vertices = local_vertices()
        quantum = behavior_table(noisy_state(2, 0.0), TSIRELSON)
        checked_local = 0
        checked_nonlocal = 0
        for trial in range(1000):
            weights = rng.exponential(size=16)
            weights /= weights.sum()
            local_part = sum(w * v.probs for w, v in zip(weights, vertices))
            mu = rng.random() if trial % 2 else 0.0  # half pure-local, half quantum mixtures
            table = BehaviorTable(mu * quantum.probs + (1.0 - mu) * local_part)

            verdict = is_local_lp(table, tol=1e-9)
            assert verdict.is_local == is_local_facets(table, tol=1e-9)
            if verdict.is_local:
                rebuilt = sum(w * v.probs for w, v in zip(verdict.weights, vertices))
                assert np.max(np.abs(rebuilt - table.probs)) < 1e-9
                assert verdict.weights.min() >= -1e-12
                assert abs(verdict.weights.sum() - 1.0) < 1e-10
                checked_local += 1
            else:
                checked_nonlocal += 1
        assert checked_local >= 500  # all pure-local mixtures must verify
        assert checked_nonlocal > 0


def test_criterion_6_conditioned_locality(lhv_world_factory):
    seed = 424242
    with criterion(6, f"every positive branch of synthetic sequential LHV worlds is LP-feasible (seed {seed})"):
        rng = np.random.default_rng(seed)
        branches_checked = 0
        for _ in range(40):
            joint = lhv_world_factory(rng, n_strategies=int(rng.integers(2, 20)))
            for a1, b1 in np.argwhere(joint[0, 0].sum(axis=(2, 3)) > 1e-12):  # the branches with positive probability
                assert is_local_lp(condition(joint, a1, b1), tol=1e-9).is_local
                branches_checked += 1
        assert branches_checked >= 40


def test_criterion_7_gap_region():
    with criterion(7, "N=4 gap interval [0.45308, 0.80000) and non-separable/non-violating flags inside"):
        row = gap_rows([4])
        lo, hi = row["gap_lo"][0], row["gap_hi"][0]
        # Endpoints derived from the threshold formula N/(N+c) and the
        # separability boundary N/(N+1): (6 - 2*sqrt(2))/7 and 4/5 exactly.
        assert abs(lo - (6.0 - 2.0 * math.sqrt(2.0)) / 7.0) < 1e-5
        assert abs(hi - 0.8) < 1e-5
        for noise in np.linspace(lo + 1e-6, hi - 1e-6, 9):
            record = scan_grid([4], float(noise), float(noise), 1.0)
            assert len(record) == 1
            assert record["gap"][0]
            assert not record["violates"][0]
            assert not record["separable"][0]


def test_criterion_8_monte_carlo(capsys):
    seed = 1905
    with criterion(8, f"1e6 runs at (N=2, F=0, seed {seed}): S within 5 stderr of 2*sqrt(2); reruns byte-identical", budget=30.0):
        sample = sample_experiment(2, 0.0, 10**6, seed=seed)
        assert not sample.insufficient_data
        assert abs(sample.s_empirical - TSIRELSON_BOUND) <= 5.0 * sample.s_stderr

        rerun = sample_experiment(2, 0.0, 10**6, seed=seed)
        assert np.array_equal(sample.empirical_table.probs, rerun.empirical_table.probs)
        assert sample.s_empirical == rerun.s_empirical

        argv = ["sample", "--dim", "2", "--noise", "0", "--count", "1000000", "--seed", str(seed)]
        assert main(argv) == 0
        out1 = capsys.readouterr().out
        assert main(argv) == 0
        out2 = capsys.readouterr().out
        assert out1.encode() == out2.encode()
