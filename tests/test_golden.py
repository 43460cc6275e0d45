"""Exact stdout and table-file bytes of representative CLI commands.

The files under ``tests/golden/`` pin what the CLI prints and writes, so a
refactor that moves a single byte fails here.  Each case's stdout is in
``<name>.out`` and, for ``sample`` runs with ``--out``, the written table is
in ``<name>.table.json``.  The ``lhv-check`` inputs are fixed files in the
same directory: a vertex mixture, a Tsirelson table, and two tables written
by the ``sample_fallback_*`` cases, which run before the checks that read them.

Regenerate only when an output change is intended, by running this file as a
script with the package to capture on the import path::

    PYTHONPATH=src python tests/test_golden.py

Outputs too large to commit are pinned by digest in ``DIGESTS``; the script
prints that table for pasting into this file.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from noisybell import chsh_closed_form
from noisybell.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (name, argv, exit code).  "{out}" becomes a temporary table path and
# "{golden}" the golden directory.
CASES = (
    ("sample_n2_csv", ["sample", "--dim", "2", "--count", "20000", "--seed", "11", "--out", "{out}"], 0),
    ("sample_n2_json", ["sample", "--dim", "2", "--noise", "0.4", "--seed", "3", "--format", "json"], 0),
    (
        "sample_n5_csv",
        ["sample", "--dim", "5", "--noise", "0.3", "--count", "50000", "--seed", "7", "--out", "{out}"],
        0,
    ),
    (
        "sample_n5_json",
        ["sample", "--dim", "5", "--noise", "0.6", "--count", "30000", "--seed", "5", "--format", "json"],
        0,
    ),
    (
        "sample_n24_csv",
        ["sample", "--dim", "24", "--noise", "0.1", "--count", "100000", "--seed", "2", "--out", "{out}"],
        0,
    ),
    (
        "sample_n24_json",
        ["sample", "--dim", "24", "--noise", "0.5", "--count", "100000", "--seed", "9", "--format", "json"],
        0,
    ),
    # Chunk boundaries of the streamed Monte Carlo (2**16 runs a chunk): an odd
    # count that crosses two boundaries, and exactly one full chunk.
    (
        "sample_chunks_csv",
        ["sample", "--dim", "3", "--noise", "0.25", "--count", "131073", "--seed", "17", "--out", "{out}"],
        0,
    ),
    (
        "sample_one_chunk_json",
        ["sample", "--dim", "2", "--noise", "0.9", "--count", "65536", "--seed", "4", "--format", "json"],
        0,
    ),
    # Dimensions the dense N^2 x N^2 route could not reach, up to near the float range.
    (
        "sample_n65_csv",
        ["sample", "--dim", "65", "--noise", "0.2", "--count", "200000", "--seed", "13", "--out", "{out}"],
        0,
    ),
    (
        "sample_dim_1e6_json",
        ["sample", "--dim", str(10**6), "--noise", "0.5", "--count", str(10**6), "--seed", "6", "--format", "json"],
        0,
    ),
    ("sample_dim_1e150_csv", ["sample", "--dim", str(10**150), "--noise", "0.7", "--count", "1000", "--seed", "1"], 0),
    ("scan_csv", ["scan", "--dims", "2,16,1024", "--f-step", "0.01"], 0),
    ("scan_json", ["scan", "--dims", "2,16,1024", "--f-step", "0.01", "--format", "json"], 0),
    # Bounds off the default grid, a step that does not divide the range, N near 10^5.
    ("scan_offgrid_csv", ["scan", "--dims", "3,7,99991", "--f-min", "0.13", "--f-max", "0.77", "--f-step", "0.07"], 0),
    (
        "scan_offgrid_json",
        ["scan", "--dims", "3,7,99991", "--f-min", "0.13", "--f-max", "0.77", "--f-step", "0.07", "--format", "json"],
        0,
    ),
    # Dimensions near the float range: N^2 in success_prob overflows just past 10^154, N / (N + c) past 10^308.
    ("scan_dim_1e154_csv", ["scan", "--dims", f"2,{10**154}", "--f-step", "0.5"], 0),
    ("threshold_dim_1e300_csv", ["threshold", "--dims", f"2,{10**300}"], 0),
    # A subnormal noise bound: JSON prints the shortest float that the 12-digit text reads back as.
    ("scan_subnormal_json", ["scan", "--dims", "2", "--f-min", "5e-320", "--f-max", "5e-320", "--format", "json"], 0),
    ("gap_dim_1e300_json", ["gap", "--dims", f"2,{10**300}", "--format", "json"], 0),
    ("threshold_csv", ["threshold"], 0),
    ("threshold_json", ["threshold", "--dims", "2,5,1024", "--format", "json"], 0),
    ("gap_csv", ["gap"], 0),
    ("gap_json", ["gap", "--dims", "2,5,1024", "--format", "json"], 0),
    # Finite-sample tables signal, so --method facets falls back to the LP; the
    # lhv-check cases below read the tables these two runs write.
    (
        "sample_fallback_n2_csv",
        ["sample", "--dim", "2", "--noise", "0.9", "--count", "20000", "--seed", "5", "--out", "{out}"],
        0,
    ),
    (
        "sample_fallback_n3_csv",
        ["sample", "--dim", "3", "--noise", "0.2", "--count", "20000", "--seed", "8", "--out", "{out}"],
        0,
    ),
    ("lhv_mixture_lp_json", ["lhv-check", "{golden}/vertex_mixture.json", "--format", "json"], 0),
    ("lhv_mixture_facets", ["lhv-check", "{golden}/vertex_mixture.json", "--method", "facets"], 0),
    ("lhv_tsirelson_lp", ["lhv-check", "{golden}/tsirelson.json"], 3),
    (
        "lhv_tsirelson_facets_json",
        ["lhv-check", "{golden}/tsirelson.json", "--method", "facets", "--format", "json"],
        3,
    ),
    # Nonlocal without a violated facet (CHSH far below 2), and with one.
    ("lhv_fallback_facets", ["lhv-check", "{golden}/sample_fallback_n2_csv.table.json", "--method", "facets"], 3),
    (
        "lhv_fallback_violated_json",
        ["lhv-check", "{golden}/sample_fallback_n3_csv.table.json", "--method", "facets", "--format", "json"],
        3,
    ),
)


# Outputs too large to commit, pinned by SHA-256 and byte length.  scan writes
# in blocks of 2**14 records: one dimension with one record fewer than a block,
# a whole block and one record more (F steps of 2**-15, so the point counts are
# exact), and three dimensions of about 3.5 blocks each on an off-grid F range,
# one of them past int64.  Each goes to stdout and to --out ("{out}"), where
# the digest is of the written file and stdout must stay empty.
_EDGE = ["--dims", "5", "--f-step", "3.0517578125e-05", "--f-max"]
_WIDE = ["--dims", f"3,97,{10**20}", "--f-min", "0.0123", "--f-max", "0.9871", "--f-step", "1.7e-5"]


def _digest_cases() -> dict[str, list[str]]:
    cases = {}
    for fmt in ("csv", "json"):
        for sink, tail in (("stdout", []), ("out", ["--out", "{out}"])):
            flags = ["--format", fmt, *tail]
            for edge, f_max in (("below", "0.49993896484375"), ("at", "0.499969482421875"), ("above", "0.5")):
                cases[f"scan_block_{edge}_{fmt}_{sink}"] = ["scan", *_EDGE, f_max, *flags]
            cases[f"scan_wide_{fmt}_{sink}"] = ["scan", *_WIDE, *flags]
    return cases


DIGEST_CASES = _digest_cases()
DIGESTS = {
    'scan_block_below_csv_stdout': ('a26edceed2aeca8c687fb721948b7a1a38780141e7a1eba625d1e56642a4d0f9', 1273104),
    'scan_block_at_csv_stdout': ('ca9145aaae6a9661090cd6dce4c9705284807e92d7e5f4ddc271cce105f32ec5', 1273182),
    'scan_block_above_csv_stdout': ('d9b6d2b9a5580298bf7790dc513a0f2879ceccbfc7bf90a8804bd4f9f5116083', 1273238),
    'scan_wide_csv_stdout': ('b214266f7016867573a25df6934ab6f5671a00fd92ff3256d7d9389d5c311460', 12709335),
    'scan_block_below_csv_out': ('a26edceed2aeca8c687fb721948b7a1a38780141e7a1eba625d1e56642a4d0f9', 1273104),
    'scan_block_at_csv_out': ('ca9145aaae6a9661090cd6dce4c9705284807e92d7e5f4ddc271cce105f32ec5', 1273182),
    'scan_block_above_csv_out': ('d9b6d2b9a5580298bf7790dc513a0f2879ceccbfc7bf90a8804bd4f9f5116083', 1273238),
    'scan_wide_csv_out': ('b214266f7016867573a25df6934ab6f5671a00fd92ff3256d7d9389d5c311460', 12709335),
    'scan_block_below_json_stdout': ('cf62f05efe88444322c9e01a81ab9313a14945a828dc1736dab2c569f888a8d6', 3304549),
    'scan_block_at_json_stdout': ('10e705df007a84f799351abdfbd3f3c2b7637b4979ca965e5555a2fdd784caf3', 3304751),
    'scan_block_above_json_stdout': ('aff71c7acc3863f362325f819f260100d45c333a5d6d281ab68f302715a9a8e1', 3304931),
    'scan_wide_json_stdout': ('68616f96750e1c39eabd28a5e4259c0dbb82f0211dadb80be52af2635397bf29', 34155194),
    'scan_block_below_json_out': ('cf62f05efe88444322c9e01a81ab9313a14945a828dc1736dab2c569f888a8d6', 3304549),
    'scan_block_at_json_out': ('10e705df007a84f799351abdfbd3f3c2b7637b4979ca965e5555a2fdd784caf3', 3304751),
    'scan_block_above_json_out': ('aff71c7acc3863f362325f819f260100d45c333a5d6d281ab68f302715a9a8e1', 3304931),
    'scan_wide_json_out': ('68616f96750e1c39eabd28a5e4259c0dbb82f0211dadb80be52af2635397bf29', 34155194),
}


def run_case(argv: list[str], workdir: Path) -> tuple[int, str, str | None]:
    """Exit code, stdout, and the written table (if any) of one CLI run."""
    out = workdir / "out.json"
    args = [a.replace("{out}", str(out)).replace("{golden}", str(GOLDEN)) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(args)
    table = out.read_text(encoding="utf-8") if out.exists() else None
    return code, stdout.getvalue(), table


@pytest.mark.parametrize("name,argv,exit_code", CASES, ids=[c[0] for c in CASES])
def test_golden_bytes(name, argv, exit_code, tmp_path):
    code, stdout, table = run_case(argv, tmp_path)
    assert code == exit_code
    assert stdout == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    table_file = GOLDEN / f"{name}.table.json"
    assert table == (table_file.read_text(encoding="utf-8") if table_file.exists() else None)


@pytest.mark.parametrize("name", DIGESTS)
def test_digest_bytes(name, tmp_path):
    argv = DIGEST_CASES[name]
    code, stdout, written = run_case(argv, tmp_path)
    assert code == 0
    if "{out}" in argv:
        assert stdout == ""
        text = written
    else:
        assert written is None
        text = stdout
    assert _digest(text) == DIGESTS[name]


def _digest(text: str) -> tuple[str, int]:
    data = text.encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data)


@pytest.mark.parametrize("name", ["sample_n65_csv", "sample_dim_1e6_json", "sample_dim_1e150_csv"])
def test_large_dimension_goldens_report_the_closed_form(name):
    argv = {case[0]: case[1] for case in CASES}[name]
    dim, noise = int(argv[argv.index("--dim") + 1]), float(argv[argv.index("--noise") + 1])
    text = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if name.endswith("_json"):
        reported = json.loads(text)["s_analytic"]
    else:
        reported = float(text.splitlines()[1].split(",")[-1])
    assert abs(reported - chsh_closed_form(dim, noise)) < 1e-11  # 12 significant digits


def _write_inputs() -> None:
    """The two lhv-check inputs: a seeded vertex mixture and a Tsirelson table."""
    answers = np.array(list(itertools.product((0, 1), repeat=4)))  # a0 a1 b0 b1, 0 = +1
    vertices = np.zeros((16, 2, 2, 2, 2))
    for k, (a0, a1, b0, b1) in enumerate(answers):
        for x, y in itertools.product(range(2), repeat=2):
            vertices[k, x, y, (a0, a1)[x], (b0, b1)[y]] = 1.0
    weights = np.random.default_rng(20011).dirichlet(np.full(16, 0.5))
    mixture = np.einsum("k,kxyab->xyab", weights, vertices)
    signs = np.array([1.0, -1.0])
    cos = np.cos(np.array([0.0, math.pi / 2])[:, None] - np.array([math.pi / 4, -math.pi / 4])[None, :])
    tsirelson = (1.0 + np.einsum("a,b,xy->xyab", signs, signs, cos)) / 4.0
    for name, probs in (("vertex_mixture", mixture), ("tsirelson", tsirelson)):
        payload = {"settings": [2, 2], "outcomes": [2, 2], "px": probs.reshape(-1).tolist()}
        (GOLDEN / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    _write_inputs()
    for name, argv, exit_code in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, table = run_case(argv, Path(tmp))
        if code != exit_code:
            sys.exit(f"{name}: exit {code}, expected {exit_code}")
        (GOLDEN / f"{name}.out").write_text(stdout, encoding="utf-8")
        if table is not None:
            (GOLDEN / f"{name}.table.json").write_text(table, encoding="utf-8")
    print("DIGESTS = {")
    for name, argv in DIGEST_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, written = run_case(argv, Path(tmp))
        if code != 0:
            sys.exit(f"{name}: exit {code}, expected 0")
        print(f"    {name!r}: {_digest(written if '{out}' in argv else stdout)!r},")
    print("}")


if __name__ == "__main__":
    _write_golden()
