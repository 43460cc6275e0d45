import concurrent.futures
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisybell import (
    BehaviorTable,
    load_table,
    save_table,
)
from noisybell import behavior, cli, polytope, sampling
from noisybell.cli import main
from noisybell.sampling import MAX_SAMPLE_COUNT
from noisybell.scan import BLOCK, records_to_csv, records_to_json, scan_grid

from dense import TSIRELSON, UNIFORM, behavior_table, local_vertices, noisy_state

QUANTUM_TABLE = behavior_table(noisy_state(2, 0.0), TSIRELSON)
_SIGNALING = np.full((2, 2, 2, 2), 0.25)  # Bob's marginal moves with Alice's setting
_SIGNALING[0, 1] = [[0.55, 0.05], [0.05, 0.35]]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_writes_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, stdout, _ = run(
        ["scan", "--dims", "2,4", "--f-min", "0", "--f-max", "1", "--f-step", "0.1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert stdout == ""
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,F,S,violates,threshold,separable,gap,success_prob"
    assert len(lines) == 1 + 2 * 11


def test_scan_stdout_is_deterministic(capsys):
    argv = ["scan", "--dims", "8", "--f-step", "0.25"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_scan_json_format(capsys):
    code, stdout, _ = run(["scan", "--dims", "2", "--f-step", "0.5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload) == 3
    assert payload[0]["N"] == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "dims, step",
    [
        ([2, 5, 16], 5e-5),  # 20,001 points per dimension: five blocks of part of one, the fifth short
        (list(range(2, 412)), 0.01),  # 101 points per dimension: 40 whole dimensions per block, the last 10
    ],
)
def test_scan_streams_in_blocks_of_whole_dimensions_or_part_of_one(dims, step, fmt, monkeypatch, capsys):
    """cmd_scan asks for blocks of at most BLOCK records, of whole dimensions or part of one, as few as fit.

    Together they write the whole grid.
    """
    calls = []

    def recorded(dims, *grid):
        block = scan_grid(dims, *grid)
        calls.append((dims, len(block)))
        return block

    monkeypatch.setattr(cli, "scan_grid", recorded)
    argv = ["scan", "--dims", ",".join(map(str, dims)), "--f-step", str(step), "--format", fmt]
    code, stdout, err = run(argv, capsys)
    assert (code, err) == (0, "")
    whole = scan_grid(dims, 0.0, 1.0, step)
    points = len(whole) // len(dims)
    assert [len(block) for block, _ in calls] == ([1] * 15 if points == 20_001 else [40] * 10 + [10])
    assert len(calls[-1][0]) * points % BLOCK != 0
    assert all(size <= BLOCK and (len(block) == 1 or size == len(block) * points) for block, size in calls)
    assert all(a + b > BLOCK for (_, a), (_, b) in zip(calls, calls[1:]))  # no two neighbours fit in one block
    assert sum(size for _, size in calls) == len(whole)
    assert stdout == (records_to_csv(whole) if fmt == "csv" else records_to_json(whole))


def test_scan_rejects_bad_step(capsys):
    code, _, stderr = run(["scan", "--f-step", "0"], capsys)
    assert code == 1
    assert "error" in stderr


def test_scan_rejects_bad_dims(capsys):
    for command in ("scan", "threshold", "gap"):
        code, stdout, stderr = run([command, "--dims", "1,2"], capsys)
        assert (code, stdout, stderr) == (1, "", "error: local dimension must be at least 2, got 1\n")


@pytest.mark.parametrize("command", ["scan", "threshold", "gap"])
def test_duplicate_dims_collapse(command, capsys):
    code, out, _ = run([command, "--dims", "5,2,5,2"], capsys)
    assert code == 0
    assert out == run([command, "--dims", "2,5"], capsys)[1]


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--f-step", "inf"], "must be finite"),
        (["--f-step", "nan"], "must be finite"),
        (["--f-min", "nan"], "must be finite"),
        (["--f-step", "1e-300"], "noise points"),
        (["--dims", "2,3", "--f-step", "2e-19"], "exceeds the limit"),  # 2 * (5e18 + 1) records
        (["--f-step", "1e-19"], "noise points"),  # 1e19 points, just past 2**63 - 1
    ],
)
def test_scan_rejects_unbounded_grids(flags, message, capsys):
    code, stdout, stderr = run(["scan", *flags], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ") and message in stderr and stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--dims", str(10**160)],  # N^2 in success_prob
        ["scan", "--dims", f"2,{10**160}"],  # the N = 2 records are valid and must not be written
        ["threshold", "--dims", str(10**400)],  # N / (N + c)
        ["gap", "--dims", str(10**400)],
        ["sample", "--dim", str(10**200)],  # N^2 in success_probability
    ],
    ids=["scan", "scan_second_dim", "threshold", "gap", "sample"],
)
def test_dimension_past_float_range_is_usage_error(argv, capsys):
    code, stdout, stderr = run(argv, capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ") and "floating-point range" in stderr and stderr.count("\n") == 1


@pytest.mark.parametrize("existing", [False, True], ids=["missing", "existing"])
@pytest.mark.parametrize(
    "flags",
    [["--dims", f"2,{10**160}"], ["--dims", "2,3", "--f-step", "2e-19"], ["--dims", "2,1"]],
    ids=["dimension_past_float_range", "records_past_bound", "dimension_below_two"],
)
def test_scan_usage_error_leaves_out_untouched(flags, existing, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    if existing:
        out.write_bytes(b"kept\n")
    code, stdout, stderr = run(["scan", *flags, "--out", str(out)], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    if existing:
        assert out.read_bytes() == b"kept\n"
    else:
        assert not out.exists()


def test_unknown_flag_is_usage_error(capsys):
    code, _, stderr = run(["scan", "--nope"], capsys)
    assert code == 1


def test_missing_subcommand_is_usage_error(capsys):
    code, _, stderr = run([], capsys)
    assert code == 1


def test_unwritable_output_path(tmp_path, capsys):
    code, _, stderr = run(["scan", "--out", str(tmp_path / "missing" / "scan.csv")], capsys)
    assert code == 2
    assert "i/o error" in stderr


def test_threshold_report(capsys):
    code, stdout, _ = run(["threshold", "--dims", "2,100", "--format", "json"], capsys)
    assert code == 0
    rows = {row["N"]: row for row in json.loads(stdout)}
    assert rows[2]["threshold_closed_form"] == pytest.approx(0.292893218813, abs=1e-9)
    assert rows[2]["abs_diff"] < 1e-9
    assert rows[100]["threshold_closed_form"] == pytest.approx(0.953939715999, abs=1e-9)


def test_gap_report(capsys):
    code, stdout, _ = run(["gap", "--dims", "4", "--format", "json"], capsys)
    assert code == 0
    row = json.loads(stdout)[0]
    assert row["gap_lo"] == pytest.approx(0.453081839322, abs=1e-9)
    assert row["gap_hi"] == pytest.approx(0.8, abs=1e-12)


def test_lhv_check_uniform_table_is_local(tmp_path, capsys):
    path = tmp_path / "uniform.json"
    save_table(UNIFORM, path)
    code, stdout, _ = run(["lhv-check", str(path)], capsys)
    assert code == 0
    assert "verdict: local" in stdout
    assert "weights:" in stdout


def test_lhv_check_quantum_table_is_nonlocal(tmp_path, capsys):
    path = tmp_path / "quantum.json"
    save_table(QUANTUM_TABLE, path)
    code, stdout, _ = run(["lhv-check", str(path)], capsys)
    assert code == 3
    assert "verdict: nonlocal" in stdout
    assert "2.82842712475" in stdout


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "tight"])
def test_lhv_check_rejects_bad_tolerance(tol, tmp_path, capsys):
    """A NaN or negative tolerance used to turn the uniform table nonlocal."""
    path = tmp_path / "uniform.json"
    save_table(UNIFORM, path)
    code, stdout, stderr = run(["lhv-check", str(path), "--tol", tol], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error:") and stderr.count("\n") == 1


def test_lhv_check_accepts_zero_tolerance(tmp_path, capsys):
    path = tmp_path / "uniform.json"
    save_table(UNIFORM, path)
    code, stdout, _ = run(["lhv-check", str(path), "--tol", "0", "--method", "facets"], capsys)
    assert code == 0
    assert "verdict: local" in stdout


@pytest.mark.parametrize("command", ["scan", "threshold", "gap", "sample"])
def test_tol_is_only_an_lhv_check_flag(command, capsys):
    code, stdout, stderr = run([command, "--tol", "1e-3"], capsys)
    assert code == 1
    assert stdout == ""
    assert "--tol" in stderr


@pytest.mark.parametrize("field", [{"settings": 3}, {"outcomes": None}])
def test_lhv_check_malformed_scenario_is_usage_error(field, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({**field, "px": [0.25] * 16}))
    code, stdout, stderr = run(["lhv-check", str(path)], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: unsupported") and stderr.count("\n") == 1


def test_lhv_check_json_format(tmp_path, capsys):
    path = tmp_path / "quantum.json"
    save_table(QUANTUM_TABLE, path)
    code, stdout, _ = run(["lhv-check", str(path), "--format", "json"], capsys)
    assert code == 3
    payload = json.loads(stdout)
    assert payload["verdict"] == "nonlocal"
    assert payload["max_facet"] == pytest.approx(2.82842712475, abs=1e-9)
    assert payload["violated_facet"]


def test_lhv_check_facets_method(tmp_path, capsys):
    path = tmp_path / "quantum.json"
    save_table(QUANTUM_TABLE, path)
    code, stdout, _ = run(["lhv-check", str(path), "--method", "facets"], capsys)
    assert code == 3
    assert "method: facets" in stdout


def test_lhv_check_rejects_denormalized_table(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"px": [0.9 / 4.0] * 16}))
    code, _, stderr = run(["lhv-check", str(path)], capsys)
    assert code == 1
    assert "error" in stderr


def test_lhv_check_px_past_float_range_is_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"px": [10**400] + [0.25] * 15}))
    code, stdout, stderr = run(["lhv-check", str(path)], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: 'px' entry out of floating-point range") and stderr.count("\n") == 1


def test_lhv_check_deeply_nested_table_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"px": ' + "[" * 50_000 + "]" * 50_000 + "}")
    code, stdout, stderr = run(["lhv-check", str(path)], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: not valid JSON") and stderr.count("\n") == 1


def test_lhv_check_missing_file_is_io_error(tmp_path, capsys):
    code, _, stderr = run(["lhv-check", str(tmp_path / "absent.json")], capsys)
    assert code == 2


def test_lhv_check_facets_falls_back_on_signaling_table(tmp_path, capsys):
    path = tmp_path / "signaling.json"
    save_table(BehaviorTable(_SIGNALING), path)
    code, stdout, stderr = run(["lhv-check", str(path), "--method", "facets"], capsys)
    assert "not applicable" in stderr
    assert "method: lp" in stdout
    assert code == 3  # signaling tables are outside the local polytope
    # no CHSH facet is violated; the report shows the nonmembership is signaling
    assert "violated_facet" not in stdout
    assert "signaling_defect: 0.1" in stdout


def _one_verdict_tables():
    """Tables on which the LP and the facets used to give opposite verdicts at the default --tol."""
    thirds = np.tile([0.3333333, 0.3333333, 0.3333333, 0.0], 4).reshape(2, 2, 2, 2)  # totals 0.9999999
    shifted = np.full((2, 2, 2, 2), 0.25)
    shifted[0, 0, 0] += 2.5e-10  # Alice's (0, 0) marginal moves by 5e-10, below SIGNALING_TOL
    shifted[0, 0, 1] -= 2.5e-10
    mu = (2.0 + 1.1e-9) / (2.0 * math.sqrt(2.0))  # largest facet 2 + 1.1e-9, just past the tolerance
    return {
        "rounded-thirds": (thirds, 0),
        "uniform-times-1+1e-8": (np.full((2, 2, 2, 2), 0.25 * (1.0 + 1e-8)), 0),
        "barely-signaling": (shifted, 0),
        "near-facet": (mu * QUANTUM_TABLE.probs + (1.0 - mu) * UNIFORM.probs, 3),
    }


@pytest.mark.parametrize("method", ["lp", "facets"])
@pytest.mark.parametrize("name", list(_one_verdict_tables()))
def test_lhv_check_methods_give_one_verdict(name, method, tmp_path, capsys):
    """Both methods decide a no-signaling table by its facets; the LP residual only decides signaling tables."""
    probs, expected = _one_verdict_tables()[name]
    table = BehaviorTable(probs)
    assert table.is_no_signaling()
    path = tmp_path / "table.json"
    save_table(table, path)
    code, stdout, stderr = run(["lhv-check", str(path), "--method", method], capsys)
    assert (code, stderr) == (expected, "")
    assert f"method: {method}" in stdout
    assert ("violated_facet" in stdout) == (expected == 3)


def test_lhv_check_fallback_then_io_error_is_one_line(tmp_path, capsys):
    path = tmp_path / "signaling.json"
    save_table(BehaviorTable(_SIGNALING), path)
    out = tmp_path / "missing" / "verdict.txt"
    code, stdout, stderr = run(["lhv-check", str(path), "--method", "facets", "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("i/o error: ") and stderr.count("\n") == 1


def test_lhv_check_reads_negative_zero_entries_as_zero(tmp_path, capsys):
    """A file writing its zeros as -0.0 used to print certificate weights of -0."""
    vertices = local_vertices()
    for table in (vertices[0], vertices[9], BehaviorTable((vertices[3].probs + vertices[12].probs) / 2.0)):
        px = table.to_flat()
        plain, negative = tmp_path / "plain.json", tmp_path / "negative.json"
        plain.write_text(_px_text(px))
        negative.write_text(_px_text([-0.0 if v == 0.0 else v for v in px]))
        assert "-0.0" in negative.read_text()
        for method in ("lp", "facets"):
            for fmt in ("csv", "json"):
                flags = ["--method", method, "--format", fmt]
                expected = run(["lhv-check", str(plain), *flags], capsys)
                assert run(["lhv-check", str(negative), *flags], capsys) == expected


def test_lhv_check_sampled_local_regime_reports_signaling(tmp_path, capsys):
    """Finite-sample tables sit slightly off the no-signaling subspace."""
    table_path = tmp_path / "sampled_local.json"
    code, _, _ = run(
        ["sample", "--dim", "4", "--noise", "0.9", "--count", "50000", "--seed", "2", "--out", str(table_path)],
        capsys,
    )
    assert code == 0
    code, stdout, _ = run(["lhv-check", str(table_path), "--format", "json"], capsys)
    payload = json.loads(stdout)
    assert payload["max_facet"] < 2.0  # deep in the local regime
    assert payload["violated_facet"] is None
    assert 0.0 < payload["signaling_defect"] < 0.05
    assert code == 3  # off the subspace by sampling noise, hence not a member


def test_lhv_call_sites_the_benchmark_traces(monkeypatch, tmp_path, capsys):
    """The benchmark's tracer rebinds these names in noisybell.cli and noisybell.polytope."""
    assert cli.load_table is behavior.load_table
    assert cli.is_local_lp is polytope.is_local_lp
    assert cli.is_local_facets is polytope.is_local_facets
    assert polytope.l1_feasibility.__module__ == "noisybell.polytope"
    calls = []

    def record(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("load_table", "is_local_lp", "is_local_facets"):
        record(cli, name)
    record(polytope, "l1_feasibility")

    quantum = tmp_path / "quantum.json"
    save_table(QUANTUM_TABLE, quantum)
    uniform = tmp_path / "uniform.json"
    save_table(UNIFORM, uniform)
    signaling = tmp_path / "signaling.json"
    save_table(BehaviorTable(_SIGNALING), signaling)
    barely_signaling = tmp_path / "barely_signaling.json"
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 1] += [[5e-8, 0.0], [0.0, -5e-8]]  # signaling defect 5e-8, above SIGNALING_TOL
    save_table(BehaviorTable(probs), barely_signaling)
    # The LP runs only for a local table's certificate, or for a signaling table
    # whose defect is at most --tol: a larger defect bounds the residual past --tol.
    for path, flags, expected_code, expected in (
        (quantum, ["--method", "lp"], 3, ["load_table", "is_local_lp"]),
        (uniform, ["--method", "lp"], 0, ["load_table", "is_local_lp", "l1_feasibility"]),
        (quantum, ["--method", "facets"], 3, ["load_table", "is_local_facets"]),
        (signaling, ["--method", "facets"], 3, ["load_table", "is_local_facets", "is_local_lp"]),
        (
            barely_signaling,
            ["--method", "facets", "--tol", "1e-6"],
            0,
            ["load_table", "is_local_facets", "is_local_lp", "l1_feasibility"],
        ),
    ):
        calls.clear()
        code, stdout, _ = run(["lhv-check", str(path), *flags, "--format", "json"], capsys)
        assert code == expected_code
        assert calls == expected
        weights = json.loads(stdout)["weights"]
        assert (weights is None) == (expected_code == 3)
        assert weights is None or abs(sum(weights) - 1.0) <= 1e-12


def test_parser_is_built_once_per_process(capsys):
    """A per-call argparse rebuild used to cost more than an LP; it must not come back."""
    cli._parser.cache_clear()
    for k in range(20):
        assert main(["threshold", "--dims", str(2 + k)]) == 0
    capsys.readouterr()
    assert cli._parser.cache_info().misses == 1
    # perfbench's tracer reads a __wrapped__ on a traced name as its own wrapper left in place.
    assert not hasattr(cli.build_parser, "__wrapped__")


def test_cached_parser_leaks_nothing_between_calls(tmp_path, capsys):
    """Each call in one process prints what a fresh interpreter prints for the same argv."""
    quantum = tmp_path / "quantum.json"
    save_table(QUANTUM_TABLE, quantum)
    signaling = tmp_path / "signaling.json"
    save_table(BehaviorTable(_SIGNALING), signaling)
    sequence = [
        ["scan"],
        ["lhv-check", str(quantum)],
        ["scan", "--dims", "16,2", "--f-min", "0.2", "--f-step", "0.25", "--format", "json"],
        ["threshold"],
        ["lhv-check", str(quantum), "--method", "facets", "--format", "json"],
        ["gap", "--dims", "3,5", "--format", "json"],
        ["lhv-check", str(signaling), "--method", "facets"],
        ["sample", "--dim", "3", "--noise", "0.2", "--count", "2000", "--seed", "4"],
        ["scan", "--dims", "1"],
        ["lhv-check", str(quantum), "--tol", "nan"],
        ["threshold", "--dims", "5"],
        ["gap"],
        ["scan"],
        ["threshold"],
        ["gap", "--format", "json"],
        ["gap"],
        ["sample", "--format", "json"],
    ]
    in_process = [run(argv, capsys) for argv in sequence]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def fresh_run(argv):
        done = subprocess.run(
            [sys.executable, "-m", "noisybell.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        return done.returncode, done.stdout, done.stderr

    # One fresh interpreter per distinct argv, a few at a time.
    distinct = list(dict.fromkeys(map(tuple, sequence)))
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        fresh = dict(zip(distinct, pool.map(fresh_run, distinct)))
    for argv, result in zip(sequence, in_process):
        assert result == fresh[tuple(argv)], argv
    assert [code for code, _, _ in in_process] == [0, 3, 0, 0, 3, 0, 3, 0, 1, 1] + [0] * 7


def test_sample_stdout_deterministic(capsys):
    argv = ["sample", "--dim", "2", "--noise", "0.1", "--count", "5000", "--seed", "9"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("generator,seed,dim,noise,count,in_in_count,s_empirical")
    assert "numpy-pcg64" in out1


def test_sample_json_report(capsys):
    code, stdout, _ = run(
        ["sample", "--dim", "2", "--noise", "0", "--count", "20000", "--seed", "4", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["generator"] == "numpy-pcg64"
    assert payload["seed"] == 4
    assert abs(payload["s_analytic"] - 2.0 * math.sqrt(2.0)) < 1e-9
    assert abs(payload["s_empirical"] - payload["s_analytic"]) < 0.2


def test_sample_round_trip_through_lhv_check(tmp_path, capsys):
    table_path = tmp_path / "sampled.json"
    code, _, _ = run(
        ["sample", "--dim", "2", "--noise", "0", "--count", "20000", "--seed", "1", "--out", str(table_path)],
        capsys,
    )
    assert code == 0
    loaded = load_table(table_path)
    payload = json.loads(table_path.read_text())
    assert loaded.to_flat() == payload["px"]  # exact float round trip

    code, stdout, _ = run(["lhv-check", str(table_path)], capsys)
    assert code == 3  # zero-noise samples violate CHSH


def test_sample_single_run_notice(tmp_path, capsys):
    out = tmp_path / "one.json"
    code, stdout, stderr = run(
        ["sample", "--dim", "2", "--noise", "0", "--count", "1", "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "insufficient data" in stderr
    assert not out.exists()
    assert "nan" in stdout


def test_sample_rejects_zero_count(capsys):
    code, _, stderr = run(["sample", "--count", "0"], capsys)
    assert code == 1


def test_sample_rejects_negative_seed(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("joint distribution built for a negative seed")

    monkeypatch.setattr(sampling, "sequential_joint_distribution", unreachable)
    code, stdout, stderr = run(["sample", "--seed", "-1"], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == "error: sample seed must be non-negative, got -1\n"


@pytest.mark.parametrize("dim", [64, 65, 10**6])
def test_sample_accepts_large_dimensions(dim, capsys):
    """The closed-form joint law puts no cap on N."""
    code, stdout, stderr = run(["sample", "--dim", str(dim), "--count", str(10**6), "--seed", "1"], capsys)
    assert code == 0
    assert stdout.splitlines()[1].startswith(f"numpy-pcg64,1,{dim},0,{10**6},")
    if dim < 10**6:
        assert stderr == ""
    else:  # both sides are kept with probability about 2/N: 2 runs in 10^6 here
        assert stderr.startswith("notice: insufficient data") and stderr.count("\n") == 1


def test_sample_rejects_counts_past_the_int64_counters(capsys):
    code, stdout, stderr = run(["sample", "--count", str(MAX_SAMPLE_COUNT + 1)], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: sample count must be between 1 and") and stderr.count("\n") == 1


# --- --out rewrites an existing file in place ------------------------------
# The file is written without truncation and cut to length afterwards, so
# whatever was there before, the result holds the bytes of a fresh write.

_REWRITES = [
    ["scan", "--dims", "2,4", "--f-step", "0.1"],
    ["scan", "--dims", "2,4", "--f-step", "0.1", "--format", "json"],
    ["threshold", "--dims", "2,3,100"],
    ["gap", "--dims", "2,3,100", "--format", "json"],
    ["lhv-check", "{tmp}/table.json"],
    ["lhv-check", "{tmp}/table.json", "--format", "json"],
    ["sample", "--dim", "3", "--noise", "0.2", "--count", "1000", "--seed", "5"],
]


def _written(argv, out):
    """Exit code, stdout and the bytes of ``out`` after ``main(argv + ["--out", out])``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--out", str(out)])
    return code, stdout.getvalue(), out.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    argv=st.sampled_from(_REWRITES),
    length=st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 0)]),  # (a, b): a n + b bytes
    filler=st.binary(min_size=1, max_size=3),
)
def test_out_holds_a_fresh_writes_bytes_whatever_was_there(argv, length, filler):
    with tempfile.TemporaryDirectory() as tmp:
        save_table(QUANTUM_TABLE, Path(tmp) / "table.json")
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        fresh = _written(argv, Path(tmp) / "fresh")
        assert fresh[0] in (0, 3) and fresh[2]
        old, size = Path(tmp) / "old", length[0] * len(fresh[2]) + length[1]
        old.write_bytes((filler * size)[:size])
        assert _written(argv, old) == fresh


@pytest.mark.parametrize("argv", [["scan", "--dims", "2"], ["sample", "--count", "100"]])
def test_out_dev_null_is_not_cut(argv, capsys):
    """ftruncate fails on /dev/null, a FIFO or a pipe, so only a regular file is cut."""
    code, _, stderr = run([*argv, "--out", os.devnull], capsys)
    assert (code, stderr) == (0, "")


def test_out_dev_stdout_on_a_pipe(capsys):
    argv = ["threshold", "--dims", "2,3"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "noisybell.cli", *argv, "--out", "/dev/stdout"], capture_output=True, env=env, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode() == run(argv, capsys)[1]


def test_out_symlink_stays_a_link_and_its_target_gets_the_bytes(tmp_path, capsys):
    argv = ["scan", "--dims", "2", "--f-step", "0.5"]
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"x" * 10_000)
    link.symlink_to(target)
    code, stdout, _ = run([*argv, "--out", str(link)], capsys)
    assert (code, stdout) == (0, "")
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == run(argv, capsys)[1]


@pytest.mark.parametrize("argv", [["gap"], ["sample", "--count", "100"]])
def test_out_keeps_an_existing_files_inode_and_mode(argv, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"x" * 10_000)
    out.chmod(0o640)
    before = out.stat()
    assert run([*argv, "--out", str(out)], capsys)[0] == 0
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert 0 < after.st_size < 10_000


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_an_exception_mid_write_leaves_exactly_the_blocks_written(error, monkeypatch, tmp_path, capsys):
    """No tail of the old file survives an interrupted write: the file is cut where the writes stopped."""
    argv = ["scan", "--dims", "2", "--f-step", "5e-5"]  # 20,001 records: five blocks
    out = tmp_path / "scan.csv"
    out.write_bytes(b"x" * 10**6)
    first_block = []

    def once_then_raise(records, header):
        if first_block:
            raise error
        first_block.append(records_to_csv(records, header=header))
        return first_block[0]

    monkeypatch.setattr(cli, "records_to_csv", once_then_raise)
    if isinstance(error, OSError):
        code, _, stderr = run([*argv, "--out", str(out)], capsys)
        assert (code, stderr) == (2, "i/o error: [Errno 28] No space left on device\n")
    else:
        with pytest.raises(KeyboardInterrupt):
            main([*argv, "--out", str(out)])
    assert out.read_text() == first_block[0]


def test_a_failed_cut_does_not_hide_the_error_that_stopped_the_write(monkeypatch):
    """With /dev/null taken for a regular file, the cut fails (EINVAL).  After clean writes that error is
    raised; after writes that raised, their exception is."""
    monkeypatch.setattr(behavior.stat, "S_ISREG", lambda mode: True)
    with pytest.raises(OSError) as cut:
        with behavior._overwrite(os.devnull) as write:
            write("x")
    assert cut.value.errno == 22
    with pytest.raises(KeyboardInterrupt):
        with behavior._overwrite(os.devnull) as write:
            write("x")
            raise KeyboardInterrupt


# --- the CLI contract, over drawn argv ---------------------------------------
# Every argv ends in a result or in one documented line on stderr: no
# exception leaves main, the exit code is documented, and a rerun repeats
# every byte.  --count and --f-step are bounded so each run stays small.

_BAD_NUMBERS = ["nan", "inf", "-inf", "-0", "0x10", "", "1e400", "ten"]
_HUGE_DIMS = [10**6, 10**150, 10**154, 10**155, 10**300, 10**400]
_dim = st.one_of(st.integers(-1, 70), st.sampled_from(_HUGE_DIMS)).map(str)
_int_text = st.one_of(_dim, st.sampled_from(_BAD_NUMBERS))
_count = st.one_of(st.integers(-1, 10**4).map(str), st.sampled_from(_BAD_NUMBERS))
_seed = st.one_of(st.integers(-2, 2**64).map(str), st.sampled_from(_BAD_NUMBERS + [str(10**400)]))
_noise = st.one_of(st.floats(-0.25, 1.25).map(repr), st.sampled_from(_BAD_NUMBERS + ["0", "1"]))
_f_step = st.one_of(st.floats(1e-3, 2.0).map(repr), st.sampled_from(["0", "-0", "-0.1", "nan", "inf", "1e-300", ""]))
_tol = st.one_of(st.floats(0.0, 1e-3).map(repr), st.sampled_from(["nan", "-1", "inf", "", "-0", "0x1"]))
_dims = st.one_of(
    st.lists(st.one_of(st.integers(-1, 2000), st.sampled_from(_HUGE_DIMS)), min_size=1, max_size=4).map(
        lambda dims: ",".join(map(str, dims))
    ),
    st.sampled_from(_BAD_NUMBERS + [",", "2,,3", "2;3"]),
)
_format = st.sampled_from(["csv", "json", "xml", ""])
_out = st.sampled_from(["{tmp}/out.txt", "{tmp}/missing/out.txt", "{tmp}"])
_FLAGS = {
    "scan": {"--dims": _dims, "--f-min": _noise, "--f-max": _noise, "--f-step": _f_step},
    "threshold": {"--dims": _dims},
    "gap": {"--dims": _dims},
    "lhv-check": {"--method": st.sampled_from(["lp", "facets", "simplex"]), "--tol": _tol},
    "sample": {"--dim": _int_text, "--noise": _noise, "--count": _count, "--seed": _seed},
}


def _px_text(px) -> str:
    return json.dumps({"settings": [2, 2], "outcomes": [2, 2], "px": px})


_VERTICES = np.array([vertex.probs for vertex in local_vertices()])
_table_text = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16).filter(lambda w: sum(w) > 0).map(
        lambda w: _px_text(np.einsum("k,kxyab->xyab", np.array(w) / sum(w), _VERTICES).reshape(-1).tolist())
    ),
    st.sampled_from(
        [
            _px_text(QUANTUM_TABLE.to_flat()),
            _px_text(_SIGNALING.reshape(-1).tolist()),
            _px_text([0.25] * 16),
            _px_text([0.9 / 4.0] * 16),
            _px_text([-0.25, 0.5, 0.5, 0.25] + [0.25] * 12),
            '{"px": [' + "1" + "0" * 400 + ", 0, 0, 0" + ", 0.25" * 12 + "]}",
            '{"px": [NaN' + ", 0.25" * 15 + "]}",
            '{"px": [1e400' + ", 0.25" * 15 + "]}",
            '{"px": [true' + ", 0.25" * 15 + "]}",
            '{"px": ["0.25"' + ", 0.25" * 15 + "]}",
            '{"settings": [3, 2], "px": []}',
            '{"px": ' + "[" * 5000 + "]" * 5000 + "}",
            "[0.25]",
            "{}",
            "",
            "{not json",
        ]
    ),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from([*_FLAGS, "bogus"]))
    argv = [command]
    if command == "lhv-check":
        argv.append(draw(st.sampled_from(["{tmp}/table.json", "{tmp}/absent.json", "{tmp}"])))
    flags = {**_FLAGS.get(command, {}), "--format": _format, "--out": _out}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=5)):
        argv += [flag, draw(flags[flag])]
    if draw(st.integers(0, 9)) == 0:  # a flag this subcommand does not have, or one with no value
        argv += draw(st.sampled_from([["--tol", "1e-3"], ["--nope"], ["--dims"], ["--count", "5", "extra"]]))
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_argv(), table=_table_text)
def test_cli_contract(argv, table):
    def once(args, workdir):
        for path in workdir.glob("out.txt"):
            path.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        out = workdir / "out.txt"
        return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.is_file() else None

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "table.json").write_text(table, encoding="utf-8")
        args = [arg.replace("{tmp}", tmp) for arg in argv]
        first = once(args, workdir)
        assert once(args, workdir) == first
    code, _, stderr, _ = first
    assert code in (0, 1, 2, 3)
    assert stderr == "" or (
        stderr.count("\n") == 1 and stderr.endswith("\n") and stderr.startswith(("error: ", "i/o error: ", "notice: "))
    ), stderr
