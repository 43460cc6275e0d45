"""Workload inputs and output checks for the noisybell benchmark.

Inputs come from the benchmark seed through numpy's PCG64.  Every check
uses the closed forms and criteria written out below in numpy; none of them
calls package code, so a defect in the package cannot also hide in its check.

An op is the unit that is timed: one or more CLI argument lists run one
after another through ``noisybell.cli.main``.  Each workload has a short
list of distinct ops that the benchmark cycles through.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SQRT2 = math.sqrt(2.0)
C_THRESHOLD = 2.0 / (SQRT2 - 1.0)
TOL = 1e-9  # the CLI's default --tol
SIGNALING_TOL = 1e-8  # no-signaling tolerance of the facet criterion
# A 12-significant-digit print differs from its exact value by at most 5e-13
# relative; the slack above that absorbs last-ulp differences in the oracle.
REL12 = 1e-11
ABS12 = 1e-14
# A flag is not checked where its closed-form boundary is this close, since
# round-off may decide it either way.
FLAG_MARGIN = 1e-9

SAMPLE_HEADER = "generator,seed,dim,noise,count,in_in_count,s_empirical,s_stderr,s_analytic"
SCAN_COLUMNS = ("N", "F", "S", "violates", "threshold", "separable", "gap", "success_prob")
BOOL_COLUMNS = ("violates", "separable", "gap")
THRESHOLD_HEADER = "N,threshold_closed_form,bisection_root,abs_diff"
SCAN_DIMS = (2, 16, 1024)

# Per scale: sample (dim, count) pairs, scan steps (CSV, JSON), lhv-batch passes.
SIZES = {
    "full": {
        "sample-highdim": (24, 100_000),
        "sample-manyruns": (2, 10_000_000),
        "scan-steps": ("2e-5", "1e-4"),
        "lhv-passes": 40,
    },
    "smoke": {
        "sample-highdim": (6, 20_000),
        "sample-manyruns": (2, 200_000),
        "scan-steps": ("1e-2", "5e-2"),
        "lhv-passes": 2,
    },
}
NAMES = ("sample-highdim", "sample-manyruns", "scan-grid", "lhv-batch")
SAMPLE_OPS = 4  # distinct (noise, seed) pairs per sample workload
# An lhv-batch op checks one table of each kind with each method.  Single
# checks take about 2 ms without the LP and 3 ms with it; a pass over all six
# keeps the op time unimodal, so its median is steady.
LHV_PASS = 6


@dataclass(frozen=True)
class Op:
    """CLI argument lists timed as one op, and what the check needs to know."""

    commands: tuple[tuple[str, ...], ...]
    outputs: tuple[Path, ...]  # files the commands write
    work: int  # Monte Carlo runs, records emitted or tables checked
    expect: dict


@dataclass
class Outcome:
    """What one op produced: exit codes, captured stdout and written files."""

    seconds: float
    rcs: list[int]
    stdouts: list[str]
    files: list[bytes]
    error: str | None = None


def save(out: Outcome, op: Op, index: int, outdir: Path) -> None:
    """Store an outcome for checking: a JSON record plus copies of the written files."""
    for k, path in enumerate(op.outputs):
        if path.exists():
            shutil.copyfile(path, outdir / f"{index}.file{k}")
    record = {"seconds": out.seconds, "rcs": out.rcs, "stdouts": out.stdouts, "error": out.error}
    (outdir / f"{index}.json").write_text(json.dumps(record))


def load(op: Op, index: int, outdir: Path) -> Outcome:
    """Read back an outcome stored by :func:`save`."""
    record = json.loads((outdir / f"{index}.json").read_text())
    files = []
    for k in range(len(op.outputs)):
        path = outdir / f"{index}.file{k}"
        files.append(path.read_bytes() if path.exists() else b"")
    return Outcome(record["seconds"], record["rcs"], record["stdouts"], files, record["error"])


# A check returns its error messages and the facts it read from the output.
Check = Callable[[Op, Outcome], tuple[list[str], dict]]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    check: Check
    dim: int | None = None  # sample dimension, for the computed layer sizes


def make(name: str, seed: int, scale: str, workdir: Path) -> Workload:
    """Build the workload's ops from the seed; lhv-batch writes its table files to ``workdir``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    sizes = SIZES[scale]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    workdir.mkdir(parents=True, exist_ok=True)
    if name.startswith("sample-"):
        return _sample_workload(name, rng, *sizes[name], workdir)
    if name == "scan-grid":
        return _scan_workload(*sizes["scan-steps"], workdir)
    return _lhv_workload(rng, sizes["lhv-passes"], workdir)


def close12(value, reference, units: int = 1) -> bool:
    """True when ``value`` is ``reference`` printed at 12 significant digits."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return bool(np.all(np.abs(value - reference) <= units * REL12 * np.abs(reference) + ABS12))


def retained_fraction(n, noise):
    return n * (1.0 - noise) / (n * (1.0 - noise) + 2.0 * noise)


def success_probability(n, noise):
    return (1.0 - noise) * 2.0 / n + noise * 4.0 / (n * n)


# --- sample -----------------------------------------------------------------


def _sample_workload(name: str, rng, dim: int, count: int, workdir: Path) -> Workload:
    ops = []
    for k in range(SAMPLE_OPS):
        # F up to 0.5 keeps every setting pair well populated at N = 24.
        noise = f"{rng.uniform(0.02, 0.5):.6f}"
        seed = str(int(rng.integers(0, 2**31)))
        table = workdir / f"{name}-{k}.json"
        argv = ("sample", "--dim", str(dim), "--count", str(count), "--noise", noise, "--seed", seed, "--out", str(table))
        expect = {"dim": dim, "count": count, "noise": float(noise), "seed": int(seed)}
        ops.append(Op((argv,), (table,), count, expect))
    return Workload(name, tuple(ops), check_sample, dim)


def check_sample(op: Op, out: Outcome) -> tuple[list[str], dict]:
    exp = op.expect
    dim, count, noise = exp["dim"], exp["count"], exp["noise"]
    if out.rcs != [0]:
        return [f"sample exit codes {out.rcs}, expected [0]"], {}
    lines = out.stdouts[0].split("\n")
    if len(lines) != 3 or lines[0] != SAMPLE_HEADER or lines[2] != "":
        return [f"sample stdout is not a header and one row: {out.stdouts[0]!r}"], {}
    row = dict(zip(SAMPLE_HEADER.split(","), lines[1].split(",")))
    errors = []
    echoed = (row.get("generator"), row.get("seed"), row.get("dim"), row.get("count"))
    if echoed != ("numpy-pcg64", str(exp["seed"]), str(dim), str(count)) or float(row["noise"]) != noise:
        errors.append(f"sample echoes the wrong arguments: {lines[1]}")
    in_in = int(row["in_in_count"])
    s_emp, s_err, s_an = (float(row[key]) for key in ("s_empirical", "s_stderr", "s_analytic"))

    if not close12(s_an, 2.0 * SQRT2 * retained_fraction(dim, noise)):
        errors.append(f"s_analytic {s_an} is not 2*sqrt(2)*v")
    if not abs(s_emp - s_an) <= 5.0 * s_err:
        errors.append(f"s_empirical {s_emp} is more than 5 stderr ({s_err}) from {s_an}")
    p_ii = success_probability(dim, noise)
    sigma = math.sqrt(count * p_ii * max(1.0 - p_ii, 0.0))
    if abs(in_in - count * p_ii) > 6.0 * sigma + 0.5:
        errors.append(f"in_in_count {in_in} is more than 6 sigma from {count} * {p_ii}")

    try:
        payload = json.loads(out.files[0])
        px = np.array(payload["px"], dtype=float)
        meta = payload["meta"]
    except (ValueError, KeyError, TypeError) as exc:
        return errors + [f"sample table is unreadable: {exc}"], {}
    if px.shape != (16,) or not np.all(np.isfinite(px)) or px.min() < 0.0:
        errors.append(f"sample table px must be 16 finite non-negative entries, got {px.shape}")
    else:
        probs = px.reshape(2, 2, 2, 2)
        if not np.all(np.abs(probs.sum(axis=(2, 3)) - 1.0) <= 1e-12):
            errors.append("a setting pair of the sample table does not sum to 1")
        if not close12(s_emp, chsh_value(probs)):
            errors.append(f"s_empirical {s_emp} does not match the written table")
    if meta != {"generator": "numpy-pcg64", "seed": exp["seed"], "count": count}:
        errors.append(f"sample table meta {meta} does not echo the run")
    return errors, {"in_in": in_in, "draws": count}


# --- scan -------------------------------------------------------------------


def _scan_workload(csv_step: str, json_step: str, workdir: Path) -> Workload:
    dims = ",".join(str(n) for n in SCAN_DIMS)
    csv_path, json_path = workdir / "scan.csv", workdir / "scan.json"
    commands = (
        ("scan", "--dims", dims, "--f-step", csv_step, "--out", str(csv_path)),
        ("scan", "--dims", dims, "--f-step", json_step, "--format", "json", "--out", str(json_path)),
        ("threshold", "--dims", dims),
        ("gap", "--dims", dims, "--format", "json"),
    )
    grids = {"csv": noise_grid(float(csv_step)), "json": noise_grid(float(json_step))}
    records = len(SCAN_DIMS) * (grids["csv"].size + grids["json"].size + 2)
    op = Op(commands, (csv_path, json_path), records, {"grids": grids})
    return Workload("scan-grid", (op,), check_scan)


def noise_grid(step: float) -> np.ndarray:
    """The documented scan grid on [0, 1]: min(k * step, 1) for k = 0 .. floor(1/step)."""
    steps = int(1.0 / step + 1e-9)
    return np.minimum(np.arange(steps + 1) * step, 1.0)


def check_scan(op: Op, out: Outcome) -> tuple[list[str], dict]:
    if out.rcs != [0, 0, 0, 0]:
        return [f"scan-grid exit codes {out.rcs}, expected all 0"], {}
    grids = op.expect["grids"]
    errors = []
    csv_cols = _parse_scan_csv(out.files[0].decode(), errors)
    json_cols = _parse_scan_json(out.files[1], errors)
    for label, cols in (("csv", csv_cols), ("json", json_cols)):
        if cols is not None:
            errors += [f"scan {label}: {e}" for e in _scan_errors(cols, grids[label])]
    if csv_cols is not None and json_cols is not None:
        errors += _scan_agreement(csv_cols, json_cols)
    errors += _threshold_errors(out.stdouts[2]) + _gap_errors(out.stdouts[3])
    out_bytes = sum(len(s.encode()) for s in out.stdouts) + sum(len(f) for f in out.files)
    return errors, {"out_bytes": out_bytes}


def _parse_scan_csv(text: str, errors: list[str]) -> dict | None:
    lines = text.split("\n")
    if lines[0] != ",".join(SCAN_COLUMNS) or lines[-1] != "":
        errors.append("scan csv header or trailing newline is wrong")
        return None
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != len(SCAN_COLUMNS) for row in rows):
        errors.append("scan csv has a row of the wrong width")
        return None
    raw = dict(zip(SCAN_COLUMNS, zip(*rows))) if rows else {c: () for c in SCAN_COLUMNS}
    cols = {}
    for name, values in raw.items():
        if name in BOOL_COLUMNS:
            if not set(values) <= {"true", "false"}:
                errors.append(f"scan csv column {name} holds a non-boolean")
                return None
            cols[name] = np.array(values) == "true"
        else:
            cols[name] = np.array(values, dtype=float)
    return cols


def _parse_scan_json(text: bytes, errors: list[str]) -> dict | None:
    try:
        records = json.loads(text)
    except ValueError as exc:
        errors.append(f"scan json does not parse: {exc}")
        return None
    if not isinstance(records, list) or any(
        not isinstance(r, dict) or tuple(r) != SCAN_COLUMNS for r in records
    ):
        errors.append("scan json is not a list of records with the scan columns")
        return None
    cols = {}
    for name in SCAN_COLUMNS:
        values = [r[name] for r in records]
        if name in BOOL_COLUMNS:
            if not all(isinstance(v, bool) for v in values):
                errors.append(f"scan json field {name} holds a non-boolean")
                return None
            cols[name] = np.array(values, dtype=bool)
        else:
            cols[name] = np.array(values, dtype=float)
    return cols


def _scan_errors(cols: dict, grid: np.ndarray) -> list[str]:
    dims = np.array(SCAN_DIMS, dtype=float)
    n = np.repeat(dims, grid.size)
    f = np.tile(grid, dims.size)
    if cols["N"].size != n.size:
        return [f"{cols['N'].size} records, expected {n.size} (dims x grid)"]
    errors = []
    if not np.array_equal(cols["N"], n):
        errors.append("N column is not the sorted dims, each over the grid")
    s = 2.0 * SQRT2 * retained_fraction(n, f)
    threshold = n / (n + C_THRESHOLD)
    separable_at = n / (n + 1.0)
    for name, ref in (("F", f), ("S", s), ("threshold", threshold), ("success_prob", success_probability(n, f))):
        if not close12(cols[name], ref):
            errors.append(f"{name} does not match its closed form at 12 digits")
    clear_s = np.abs(s - 2.0) > FLAG_MARGIN
    clear_sep = np.abs(f - separable_at) > FLAG_MARGIN
    clear_gap = clear_sep & (np.abs(f - threshold) > FLAG_MARGIN)
    separable = f >= separable_at
    for name, ref, clear in (
        ("violates", s > 2.0, clear_s),
        ("separable", separable, clear_sep),
        ("gap", (f >= threshold) & ~separable, clear_gap),
    ):
        if not np.array_equal(cols[name][clear], ref[clear]):
            errors.append(f"{name} flags disagree with the closed forms")
    return errors


def _scan_agreement(csv_cols: dict, json_cols: dict) -> list[str]:
    """Every JSON record equals the CSV record at the same (N, F) print.

    The two grids compute a shared F as k * step with different k and step,
    which can differ by an ulp, so reals may differ by one unit in their
    12th printed digit.
    """
    index = {(n, f): i for i, (n, f) in enumerate(zip(csv_cols["N"].tolist(), csv_cols["F"].tolist()))}
    rows = [index.get(key) for key in zip(json_cols["N"].tolist(), json_cols["F"].tolist())]
    if None in rows:
        return ["a scan json grid point is missing from the csv grid"]
    rows = np.array(rows, dtype=np.int64)
    bad = [
        name
        for name in SCAN_COLUMNS
        if not (
            np.array_equal(csv_cols[name][rows], json_cols[name])
            or (name not in BOOL_COLUMNS and close12(json_cols[name], csv_cols[name][rows], units=2))
        )
    ]
    return [f"scan json and csv disagree on {', '.join(bad)}"] if bad else []


def _threshold_errors(text: str) -> list[str]:
    lines = text.split("\n")
    if lines[0] != THRESHOLD_HEADER or lines[-1] != "" or len(lines) != len(SCAN_DIMS) + 2:
        return [f"threshold stdout has the wrong shape: {text!r}"]
    rows = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
    n = np.array(SCAN_DIMS, dtype=float)
    ref = n / (n + C_THRESHOLD)
    errors = []
    if not np.array_equal(rows[:, 0], n) or not close12(rows[:, 1], ref):
        errors.append("threshold closed form does not match N/(N+c)")
    if not np.all(np.abs(rows[:, 2] - ref) <= REL12) or not np.all((rows[:, 3] >= 0.0) & (rows[:, 3] <= REL12)):
        errors.append("threshold bisection root is not within 1e-11 of N/(N+c)")
    return errors


def _gap_errors(text: str) -> list[str]:
    try:
        rows = json.loads(text)
        table = np.array([[r["N"], r["gap_lo"], r["gap_hi"], r["width"]] for r in rows], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"gap stdout is unreadable: {exc}"]
    n = np.array(SCAN_DIMS, dtype=float)
    lo, hi = n / (n + C_THRESHOLD), n / (n + 1.0)
    if table.shape != (len(SCAN_DIMS), 4) or not np.array_equal(table[:, 0], n):
        return ["gap rows are not one per dimension"]
    if not (close12(table[:, 1], lo) and close12(table[:, 2], hi) and close12(table[:, 3], hi - lo)):
        return ["gap interval does not match [N/(N+c), N/(N+1))"]
    return []


# --- lhv-check --------------------------------------------------------------

# The 16 deterministic strategies, Alice-major, outcome index 0 (= +1) first
# on each side: vertex k answers a_x = STRATEGIES[k, x] and b_y = STRATEGIES[k, 2 + y].
STRATEGIES = np.array(list(itertools.product((0, 1), repeat=4)))
_IDX = np.arange(2)
VERTICES = (
    (STRATEGIES[:, :2, None, None, None] == _IDX[None, None, None, :, None])
    & (STRATEGIES[:, None, 2:, None, None] == _IDX[None, None, None, None, :])
).astype(float)  # [vertex][x][y][a][b]
SIGNS = np.array([1.0, -1.0])  # outcome index -> value


def correlators(probs: np.ndarray) -> np.ndarray:
    return np.einsum("xyab,a,b->xy", probs, SIGNS, SIGNS)


def chsh_value(probs: np.ndarray) -> float:
    e = correlators(probs)
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def max_facet(probs: np.ndarray) -> float:
    """Largest of the 8 CHSH expressions +-(E00 + E01 + E10 + E11 - 2 E_xy)."""
    e = correlators(probs)
    return float(np.max(np.abs(e.sum() - 2.0 * e)))


def signaling_defect(probs: np.ndarray) -> float:
    alice = probs.sum(axis=3)  # [x][y][a]
    bob = probs.sum(axis=2)  # [x][y][b]
    return float(max(np.abs(alice[:, 0] - alice[:, 1]).max(), np.abs(bob[0] - bob[1]).max()))


def fine_local(probs: np.ndarray) -> bool:
    """Fine's criterion: positive, no-signaling, and all 8 CHSH facets at most 2."""
    return bool(probs.min() >= -1e-12 and signaling_defect(probs) <= SIGNALING_TOL and max_facet(probs) <= 2.0 + TOL)


def _lhv_workload(rng, passes: int, workdir: Path) -> Workload:
    ops = []
    for p in range(passes):
        commands, checks = [], []
        for k in range(LHV_PASS):
            probs = (_vertex_mixture, _tsirelson_table, _sampled_table)[k % 3](rng)
            path = workdir / f"table-{p}-{k}.json"
            path.write_text(json.dumps({"settings": [2, 2], "outcomes": [2, 2], "px": probs.reshape(-1).tolist()}))
            method = "facets" if k % 2 else "lp"
            commands.append(("lhv-check", str(path), "--method", method))
            checks.append((probs, method))
        ops.append(Op(tuple(commands), (), LHV_PASS, {"checks": checks}))
    return Workload("lhv-batch", tuple(ops), check_lhv)


def _vertex_mixture(rng) -> np.ndarray:
    """A random convex mixture of the 16 vertices: local, with a certificate."""
    return np.einsum("k,kxyab->xyab", rng.dirichlet(np.full(16, 0.5)), VERTICES)


def _tsirelson_table(rng) -> np.ndarray:
    """(1 + ab v cos(theta_x - theta_y)) / 4 at Tsirelson angles; nonlocal iff v > 1/sqrt(2)."""
    if rng.random() < 0.5:
        v = 1.0 / SQRT2 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, -1.0)
    else:
        v = rng.uniform(0.3, 1.0)
        while abs(v - 1.0 / SQRT2) < 1e-6:
            v = rng.uniform(0.3, 1.0)
    theta_a = np.array([0.0, math.pi / 2.0])
    theta_b = np.array([math.pi / 4.0, -math.pi / 4.0])
    cos = np.cos(theta_a[:, None] - theta_b[None, :])
    return (1.0 + np.einsum("a,b,xy->xyab", SIGNS, SIGNS, v * cos)) / 4.0


def _sampled_table(rng) -> np.ndarray:
    """Finite-sample frequencies of a local or Tsirelson table; they signal."""
    truth = _vertex_mixture(rng) if rng.random() < 0.5 else _tsirelson_table(rng)
    while True:
        runs = int(rng.integers(200, 20_000))
        counts = np.array([rng.multinomial(runs, p.reshape(-1)) for p in truth.reshape(4, 4)])
        probs = (counts / runs).reshape(2, 2, 2, 2)
        if signaling_defect(probs) > 1e-6:
            return probs


_FACET_LABEL = re.compile(r"([+-])\[E(\d)(\d)\+E(\d)(\d)\+E(\d)(\d)-E(\d)(\d)\]")


def _facet_value(label: str, e: np.ndarray) -> float | None:
    match = _FACET_LABEL.fullmatch(label)
    if match is None:
        return None
    sign = 1.0 if match[1] == "+" else -1.0
    idx = [int(d) for d in match.groups()[1:]]
    terms = [e[idx[i], idx[i + 1]] for i in range(0, 8, 2)]
    return sign * (terms[0] + terms[1] + terms[2] - terms[3])


def check_lhv(op: Op, out: Outcome) -> tuple[list[str], dict]:
    checks = op.expect["checks"]
    if len(out.rcs) != len(checks):
        return [f"{len(out.rcs)} of {len(checks)} lhv-check commands ran"], {}
    errors = []
    for k, ((probs, method), rc, stdout) in enumerate(zip(checks, out.rcs, out.stdouts)):
        errors += [f"table {k} ({method}): {e}" for e in _lhv_errors(probs, method, rc, stdout)]
    return errors, {}


def _lhv_errors(probs: np.ndarray, method: str, rc: int, stdout: str) -> list[str]:
    local = fine_local(probs)
    if rc != (0 if local else 3):
        return [f"lhv-check exit {rc}, Fine's criterion says {'local' if local else 'nonlocal'}"]
    report = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    errors = []
    applies = method == "facets" and signaling_defect(probs) <= SIGNALING_TOL
    if report.get("verdict") != ("local" if local else "nonlocal"):
        errors.append(f"verdict {report.get('verdict')!r} disagrees with Fine's criterion")
    if report.get("method") != ("facets" if applies else "lp"):
        errors.append(f"method {report.get('method')!r}, expected {'facets' if applies else 'lp'}")
    try:
        reported = (float(report["max_facet"]), float(report["signaling_defect"]))
    except (KeyError, ValueError):
        return errors + ["lhv-check omits max_facet or signaling_defect"]
    if not close12(reported[0], max_facet(probs)) or not close12(reported[1], signaling_defect(probs)):
        errors.append(f"max_facet/signaling_defect {reported} disagree with the table")

    violated = not local and max_facet(probs) > 2.0 + TOL
    label = report.get("violated_facet")
    if violated != (label is not None):
        errors.append(f"violated_facet {label!r} where the facets say {violated}")
    elif label is not None:
        value = _facet_value(label, correlators(probs))
        if value is None or abs(value - max_facet(probs)) > 1e-12:
            errors.append(f"violated_facet {label!r} is not the largest facet")

    wants_weights = local and not applies
    if wants_weights != ("weights" in report):
        errors.append(f"weights {'missing' if wants_weights else 'present'} for this verdict")
    elif wants_weights:
        weights = np.array(report["weights"].split(","), dtype=float)
        rebuilt = np.einsum("k,kxyab->xyab", weights, VERTICES) if weights.shape == (16,) else None
        if rebuilt is None or weights.min() < 0.0 or np.abs(rebuilt - probs).max() > TOL:
            errors.append("LP weights do not reproduce the table within 1e-9")
    return errors
