import json
import math

import numpy as np
import pytest

from noisybell import BehaviorTable, behavior_table, load_table, max_entangled, save_table, tsirelson_settings
from noisybell.cli import main
from noisybell.scan import CSV_HEADER

QUANTUM_TABLE = behavior_table(max_entangled(2).density(), tsirelson_settings())


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
    assert lines[0] == CSV_HEADER
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


def test_scan_rejects_bad_step(capsys):
    code, _, stderr = run(["scan", "--f-step", "0"], capsys)
    assert code == 1
    assert "error" in stderr


def test_scan_rejects_bad_dims(capsys):
    code, _, stderr = run(["scan", "--dims", "1,2"], capsys)
    assert code == 1
    assert "error" in stderr


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
    save_table(BehaviorTable.uniform(), path)
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
    save_table(BehaviorTable.uniform(), path)
    code, stdout, stderr = run(["lhv-check", str(path), "--tol", tol], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error:") and stderr.count("\n") == 1


def test_lhv_check_accepts_zero_tolerance(tmp_path, capsys):
    path = tmp_path / "uniform.json"
    save_table(BehaviorTable.uniform(), path)
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


def test_lhv_check_missing_file_is_io_error(tmp_path, capsys):
    code, _, stderr = run(["lhv-check", str(tmp_path / "absent.json")], capsys)
    assert code == 2


def test_lhv_check_facets_falls_back_on_signaling_table(tmp_path, capsys):
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 1] = np.array([[0.55, 0.05], [0.05, 0.35]])
    path = tmp_path / "signaling.json"
    save_table(BehaviorTable(probs), path)
    code, stdout, stderr = run(["lhv-check", str(path), "--method", "facets"], capsys)
    assert "not applicable" in stderr
    assert "method: lp" in stdout
    assert code == 3  # signaling tables are outside the local polytope
    # no CHSH facet is violated; the report shows the nonmembership is signaling
    assert "violated_facet" not in stdout
    assert "signaling_defect: 0.1" in stdout


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
