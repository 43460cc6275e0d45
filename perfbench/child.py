"""One workload run in a fresh interpreter, driving noisybell.cli.main in-process.

Started by run.py with the pinned environment.  Ops run one after another.
Each op's stdout and written files are hashed between ops, outside the timed
interval; the first outcome of each distinct op is saved to ``--outcomes``
for run.py to check after this process has exited, so the checks add
nothing to this process's peak RSS.  The result goes to ``--result`` as
JSON, and, when traced, the spans beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from noisybell import cli  # noqa: E402


def execute(op: workloads.Op, tracer: tracing.Tracer | None = None, op_id: int = -1) -> workloads.Outcome:
    """Run the op's commands in order and time them."""
    rcs, stdouts, error = [], [], None
    if tracer is not None:
        tracer.begin_op(op_id)
    start = perf_counter()
    for argv in op.commands:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rcs.append(cli.main(list(argv)))
        except Exception:  # an escaped exception fails the op, not the run
            error = traceback.format_exc(limit=3)
            break
        stdouts.append(out.getvalue())
    end = perf_counter()
    if tracer is not None:
        tracer.end_op(start, end)
    return workloads.Outcome(end - start, rcs, stdouts, [], error)


def digest(out: workloads.Outcome, paths: tuple[Path, ...]) -> str:
    """SHA-256 of the exit codes, stdout and written files of one op."""
    h = hashlib.sha256(f"error={out.error is not None}\n".encode())
    for rc, text in zip(out.rcs, out.stdouts):
        data = text.encode()
        h.update(f"rc={rc} stdout={len(data)}\n".encode() + data)
    for path in paths:
        h.update(f"file={path.name}\n".encode())
        if path.exists():
            with path.open("rb") as f:
                while chunk := f.read(1 << 20):
                    h.update(chunk)
    return h.hexdigest()


def run(workload: workloads.Workload, seconds: float, tracer: tracing.Tracer | None, outdir: Path) -> dict:
    """Warm up once, then run ops until ``seconds`` have passed and every op ran once.

    With a tracer, ops alternate between traced and untraced, and the parity
    flips on each pass over the ops, so every op runs both ways under the
    same conditions.
    """
    first: dict[int, str] = {}
    mismatched: list[int] = []

    def one(index: int, op_id: int, traced: bool) -> float:
        op = workload.ops[index]
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        out = execute(op, tracer if traced else None, op_id)
        sha = digest(out, op.outputs)
        if index not in first:
            first[index] = sha
            workloads.save(out, op, index, outdir)
        elif sha != first[index]:
            mismatched.append(op_id)
        return out.seconds

    one(0, -1, tracer is not None)
    op_seconds, indices, traced_ops = [], [], []
    least = len(workload.ops) * (2 if tracer else 1)
    start = perf_counter()
    # Start no op that the last op's time says would end past the window.
    while len(indices) < least or perf_counter() - start + op_seconds[-1] <= seconds:
        op_id = len(indices)
        index = op_id % len(workload.ops)
        traced = tracer is not None and (index + op_id // len(workload.ops)) % 2 == 0
        gc.collect()
        op_seconds.append(one(index, op_id, traced))
        indices.append(index)
        if traced:
            traced_ops.append(op_id)
    combined = hashlib.sha256("".join(first[i] for i in range(len(workload.ops))).encode()).hexdigest()
    return {
        "op_seconds": op_seconds,
        "indices": indices,
        "traced": traced_ops,
        "mismatched": mismatched,
        "digest": combined,
        "numpy": np.__version__,
        "blas": _blas_build(),
    }


def _blas_build() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}: {blas.get('openblas configuration', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--outcomes", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    loaded = Path(cli.__file__).resolve()
    if not loaded.is_relative_to(ROOT / "src"):
        print(f"error: imported noisybell from {loaded}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()  # raises MissingTarget before any op runs
    workload = workloads.make(args.workload, args.seed, args.scale, args.workdir)
    result = run(workload, args.seconds, tracer, args.outcomes)
    args.result.write_text(json.dumps(result))
    if tracer is not None:
        spans = [dataclasses.astuple(s) for s in tracer.spans]
        args.result.with_suffix(".spans.json").write_text(json.dumps(spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
