"""The package's whole contract with the benchmark's tracer, checked by running that tracer.

``perfbench/tracing.py`` rebinds the module attributes its ``TARGETS`` name to
timing wrappers, and each span's self time counts towards one per-layer
metric.  The test installs the real ``Tracer`` after the CLI's parser exists,
runs each command shape the benchmark runs through ``cli.main``, and compares
the spans recorded with the calls those metrics expect.  A call site that is
renamed, bypassed, reached through another name, bound once inside a function
or looked up on the defining module shows as a wrong span sequence.
"""

import importlib.util
import sys
from pathlib import Path

from noisybell import BehaviorTable, cli, save_table

from dense import QUANTUM_TABLE, SIGNALING, UNIFORM

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

LHV = ["build_parser", "load_table"]
# (argv, exit code, the names of the spans it records in the order they start).
CASES = [
    (["lhv-check", "quantum.json", "--method", "lp"], 3, LHV + ["is_local_lp"]),
    (["lhv-check", "uniform.json", "--method", "lp"], 0, LHV + ["is_local_lp", "l1_feasibility"]),
    (["lhv-check", "quantum.json", "--method", "facets"], 3, LHV + ["is_local_facets"]),
    # The facets do not apply to a signaling table; its defect above --tol decides it without the LP.
    (["lhv-check", "signaling.json", "--method", "facets"], 3, LHV + ["is_local_facets", "is_local_lp"]),
    # A defect of 5e-8 is signaling, but within --tol only the LP's residual can decide it.
    (
        ["lhv-check", "barely_signaling.json", "--method", "facets", "--tol", "1e-6"],
        0,
        LHV + ["is_local_facets", "is_local_lp", "l1_feasibility"],
    ),
    (
        ["sample", "--dim", "24", "--noise", "0.3", "--count", "20000", "--seed", "7", "--out", "sample.json"],
        0,
        ["build_parser", "sample_experiment", "sequential_joint_distribution", "save_table"],
    ),
    # 2,501 points per dimension: one dimension per block, so two blocks.
    (
        ["scan", "--dims", "2,16", "--f-step", "4e-4", "--out", "scan.csv"],
        0,
        ["build_parser"] + ["scan_grid", "records_to_csv"] * 2,
    ),
    (
        ["scan", "--dims", "2,16", "--f-step", "4e-4", "--format", "json", "--out", "scan.json"],
        0,
        ["build_parser"] + ["scan_grid", "records_to_json"] * 2,
    ),
    (["threshold", "--dims", "2,16"], 0, ["build_parser", "threshold_rows", "rows_to_csv"]),
    (["threshold", "--dims", "2,16", "--format", "json"], 0, ["build_parser", "threshold_rows", "rows_to_json"]),
    (["gap", "--dims", "2,16"], 0, ["build_parser", "gap_rows", "rows_to_csv"]),
    (["gap", "--dims", "2,16", "--format", "json"], 0, ["build_parser", "gap_rows", "rows_to_json"]),
]


def test_tracer_finds_every_target(monkeypatch, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up here
    spec.loader.exec_module(tracing)

    monkeypatch.chdir(tmp_path)
    barely_signaling = UNIFORM.probs.copy()
    barely_signaling[0, 1] += [[5e-8, 0.0], [0.0, -5e-8]]
    for name, table in [("quantum", QUANTUM_TABLE), ("uniform", UNIFORM), ("signaling", SIGNALING)]:
        save_table(table, f"{name}.json")
    save_table(BehaviorTable(barely_signaling), "barely_signaling.json")

    tracer = tracing.Tracer(tracing.TARGETS)  # raises MissingTarget when a call site is gone
    sites = [(sys.modules[module], attr) for module, attr, _ in tracing.TARGETS]
    originals = [getattr(module, attr) for module, attr in sites]
    for (module, attr), fn in zip(sites, originals):
        assert getattr(sys.modules[fn.__module__], attr) is fn, f"{module.__name__}.{attr} is not the package's own"
    cli.build_parser()  # the benchmark rebinds the targets after the parser exists
    tracer.install()
    try:
        for argv, code, expected in CASES:
            first = len(tracer.spans)
            assert cli.main(argv) == code, argv
            assert [span.name for span in tracer.spans[first:]] == expected, argv
            report = capsys.readouterr().out
            if argv[0] == "lhv-check":  # a local verdict's report ends in its weights, which sum to 1
                fields = dict(line.split(": ", 1) for line in report.splitlines())
                assert ("weights" in fields) == (code == 0), argv
                assert code or abs(sum(map(float, fields["weights"].split(","))) - 1.0) <= 1e-12, argv
    finally:
        tracer.uninstall()

    reached = {span.name for span in tracer.spans}
    assert {attr for _, attr, _ in tracing.TARGETS} - reached == {"noisy_state"}
    assert all(span.value > 0 for span in tracer.spans if span.name == "scan_grid")
    assert [getattr(module, attr) for module, attr in sites] == originals
    assert not hasattr(cli.build_parser, "__wrapped__")
