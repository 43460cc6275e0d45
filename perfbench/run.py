"""noisybell benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
Each run starts the workload in a fresh child interpreter (child.py) with
BLAS pinned to one thread, and drives ``noisybell.cli.main`` there in-process,
one op after another.  Every output is checked against the benchmark's own
numpy oracles (workloads.py).  The last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the run exits 1 when
any check failed.

Workloads (the seed draws noise values, sample seeds and table files):
  sample-highdim   sample --dim 24 --count 100000: the dense joint
                   distribution does nearly all the work.
  sample-manyruns  sample --dim 2 --count 10000000: the same command with the
                   work in Monte Carlo drawing and binning.
  scan-grid        scan (CSV and JSON), threshold and gap on dims 2,16,1024:
                   grid compute and both emitters each take a fifth or more.
  lhv-batch        lhv-check on seeded tables; an op checks a vertex mixture,
                   a Tsirelson-angle table and a finite-sample table, each by
                   LP and by facets.  The only workload that reaches the LP,
                   and the CLI's own per-call cost dominates.

--trace 0 reports the end-to-end metrics (tracing off):
  work_per_s   units/s  Monte Carlo runs, records emitted or tables checked,
                        over the summed wall time of the ops after a warm-up op
  peak_rss_mb  MB       peak RSS of the child (2**20 bytes)
  setup_s      s        median over fresh launches of interpreter start plus
                        ``import noisybell.cli``
and prints op_s_p50, the median op wall time, with op_s_p90 where a run has
at least 100 ops.  Those two stay out of the result line: when the host's
speed shifts for seconds at a time, as on shared CPUs, the median of a few
dozen ops jumps between levels, while the summed time behind work_per_s
moves less.
--trace 1 alternates traced and untraced ops in one child and reports the
per-layer metrics of tracing.UNITS over the traced ops: mean self time per op
of each layer, counts taken at the layer boundaries, and trace.overhead_s,
the traced minus the untraced op_s_p50.  Units ending in "-computed" are
derived from sizes, not measured.

Outputs of the same ops hash to one SHA-256 digest per workload and seed,
printed on stdout and stored in the run manifest under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_LAUNCHES = {"full": 9, "smoke": 3}
RUN_LIMIT_S = 170.0  # the whole run, children included, ends within this

END_TO_END = {"work_per_s": "units/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = tracing.UNITS


class BenchError(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _timeout(signum, frame):
    raise TimeoutError


def wait(proc: subprocess.Popen, deadline: float, what: str):
    """Block until ``proc`` exits and return its rusage; kill it at ``deadline``.

    A blocking wait4 under an interval timer, rather than Popen.wait's
    polling, keeps the measured wall time free of poll intervals.
    """
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - perf_counter(), 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        raise BenchError(f"{what} did not finish in time") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return usage


def run_child(args, traced: bool, seconds: float, deadline: float) -> tuple[dict, float]:
    """Run child.py to completion and check its outputs; return its result and peak RSS in MB."""
    tag = f"{args.workload}-seed{args.seed}-trace{int(traced)}"
    result_path = OUT / f"{tag}.json"
    outcomes = OUT / f"{tag}.outcomes"
    result_path.unlink(missing_ok=True)
    shutil.rmtree(outcomes, ignore_errors=True)
    outcomes.mkdir()
    workdir = OUT / f"work-{args.workload}"
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds), "--scale", args.scale,
        "--workdir", str(workdir), "--outcomes", str(outcomes), "--result", str(result_path),
    ] + (["--traced"] if traced else [])
    usage = wait(subprocess.Popen(argv, env=pinned_env(), cwd=ROOT, stdout=sys.stderr), deadline, tag)
    result = json.loads(result_path.read_text())
    workload = workloads.make(args.workload, args.seed, args.scale, workdir)
    result.update(verify(workload, result, outcomes))
    if not result["errors"]:
        shutil.rmtree(outcomes)  # kept only to debug a failed check
    if traced:
        spans = [tracing.Span(*s) for s in json.loads(result_path.with_suffix(".spans.json").read_text())]
        layers, errors = tracing.summarize(spans, {**result["facts"], "dim": workload.dim})
        result["layers"] = layers
        result["errors"] += errors
    return result, usage.ru_maxrss / 1024.0


def check(workload: workloads.Workload, index: int, out: workloads.Outcome) -> tuple[list[str], dict]:
    """The workload's check of one outcome; an exception or unparsable output is a failure."""
    if out.error is not None:
        return [f"exception: {out.error}"], {}
    try:
        return workload.check(workload.ops[index], out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {exc!r}"], {}


def verify(workload: workloads.Workload, result: dict, outcomes: Path) -> dict:
    """Check each distinct op's saved outcome once and count failed ops.

    Every later run of an op produced the same bytes unless the child listed
    it as mismatched, so one check covers all its runs.
    """
    verdicts = [check(workload, i, workloads.load(workload.ops[i], i, outcomes)) for i in range(len(workload.ops))]
    mismatched = set(result["mismatched"])
    errors = [f"{workload.name} op {i}: {e}" for i, (errs, _) in enumerate(verdicts) for e in errs]
    if mismatched:
        errors.append(f"{len(mismatched)} ops produced other bytes than the first run of the same op")
    ops = [(-1, 0)] + list(enumerate(result["indices"]))
    facts = {"in_in": 0, "draws": 0, "out_bytes": 0}  # over the traced ops, for the layer metrics
    for op_id in result.get("traced", []):
        for key, value in verdicts[result["indices"][op_id]][1].items():
            facts[key] += value
    return {
        "attempted": len(ops),
        "failed": sum(bool(verdicts[index][0]) or op_id in mismatched for op_id, index in ops),
        "errors": errors,
        "facts": facts,
        "work": sum(workload.ops[index].work for index in result["indices"]),
    }


def setup_seconds(launches: int, deadline: float) -> float:
    """Median wall time of a fresh interpreter importing noisybell.cli."""
    times = []
    for _ in range(launches):
        start = perf_counter()
        wait(subprocess.Popen([sys.executable, "-c", "import noisybell.cli"], env=pinned_env(), cwd=ROOT), deadline, "setup")
        times.append(perf_counter() - start)
    return statistics.median(times)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "noisybell").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full", help="smoke: tiny sizes for self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "noisybell" / "cli.py").is_file():
        print(f"error: no noisybell package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = perf_counter() + RUN_LIMIT_S

    try:
        if args.trace:
            res, _ = run_child(args, True, args.seconds, deadline)
            traced = set(res["traced"])
            times = [t for op, t in enumerate(res["op_seconds"]) if op not in traced]
            traced_p50 = statistics.median(t for op, t in enumerate(res["op_seconds"]) if op in traced)
            layers = dict(res["layers"], **{"trace.overhead_s": traced_p50 - statistics.median(times)})
            metrics = {name: layers[name] for name in PER_LAYER}
        else:
            setup = setup_seconds(SETUP_LAUNCHES[args.scale], deadline)
            res, rss = run_child(args, False, args.seconds, deadline)
            times = res["op_seconds"]
            values = {
                "work_per_s": res["work"] / sum(res["op_seconds"]),
                "peak_rss_mb": rss,
                "setup_s": setup,
            }
            metrics = {name: values[name] for name in END_TO_END}
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, errors = res["attempted"], res["failed"], res["errors"]
    units = PER_LAYER if args.trace else END_TO_END
    latency = {"op_s_p50": statistics.median(times)}  # over the untraced ops
    if len(times) >= 100:
        latency["op_s_p90"] = statistics.quantiles(times, n=10)[-1]

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "output_digest": res["digest"],
        "env": PINNED,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "blas": res["blas"],
        "ops": len(res["op_seconds"]),
        "metrics": metrics,
        "latency_s": latency,
    }
    manifest_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(res['op_seconds'])} timed ops, output digest {res['digest']}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    for name, value in latency.items():
        print(f"{name} {value:.6g} s over {len(times)} untraced ops")
    if args.trace:
        print(f"tracing overhead {metrics['trace.overhead_s']:.6g} s per op (traced minus untraced op_s_p50)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for error in errors:
        print(f"FAILED {error}")
    print(f"manifest {manifest_path.relative_to(ROOT)}")
    correct = failed == 0 and not errors
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
