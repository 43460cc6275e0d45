"""Self-tests of the benchmark: python3 perfbench/selftest.py

A smoke run of every workload at tiny sizes, checks that corrupted outputs
count as failures, and the benchmark's refusals.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import child
import run
import tracing
import workloads

SCRATCH = run.OUT / "selftest"


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


class SmokeRun(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), workloads.NAMES)

    def test_every_workload_reports_every_metric_with_its_unit(self):
        for name in workloads.NAMES:
            for trace, units in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "7", "--seconds", "0.5", "--trace", trace, "--scale", "smoke")
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)


class CorruptedOutputs(unittest.TestCase):
    def saved_outcomes(self, name: str) -> tuple[workloads.Workload, Path]:
        """Run every op of the workload once and save its outcome as the child does."""
        workload = workloads.make(name, 3, "smoke", SCRATCH / name)
        outdir = SCRATCH / f"{name}.outcomes"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        for index, op in enumerate(workload.ops):
            workloads.save(child.execute(op), op, index, outdir)
        clean = run.verify(workload, {"indices": [], "mismatched": []}, outdir)
        self.assertEqual(clean["failed"], 0, clean["errors"])
        return workload, outdir

    def failures_after(self, name: str, corrupt) -> str:
        """Corrupt the first saved outcome; it must count as one failed op."""
        workload, outdir = self.saved_outcomes(name)
        corrupt(outdir)
        verdict = run.verify(workload, {"indices": [], "mismatched": []}, outdir)
        self.assertEqual((verdict["attempted"], verdict["failed"]), (1, 1), verdict["errors"])
        return " ".join(verdict["errors"])

    def test_altered_table_entries_fail(self):
        def corrupt(outdir):
            table = outdir / "0.file0"
            payload = json.loads(table.read_text())
            payload["px"][0] += 0.01
            payload["px"][1] -= 0.01
            table.write_text(json.dumps(payload))

        self.assertIn("does not match the written table", self.failures_after("sample-highdim", corrupt))

    def test_altered_scan_value_fails(self):
        def corrupt(outdir):
            csv = outdir / "0.file0"
            csv.write_bytes(csv.read_bytes().replace(b",2.82842712475,", b",2.82842712575,", 1))

        self.assertIn("S does not match", self.failures_after("scan-grid", corrupt))

    def test_flipped_verdict_fails(self):
        def corrupt(outdir):
            record = json.loads((outdir / "0.json").read_text())
            text = record["stdouts"][0]
            swap = ("local", "nonlocal") if text.startswith("verdict: local") else ("nonlocal", "local")
            record["stdouts"][0] = text.replace(*swap, 1)
            (outdir / "0.json").write_text(json.dumps(record))

        self.assertIn("disagrees with Fine's criterion", self.failures_after("lhv-batch", corrupt))

    def test_changed_bytes_on_a_repeated_op_fail(self):
        workload, outdir = self.saved_outcomes("lhv-batch")
        verdict = run.verify(workload, {"indices": [0, 0], "mismatched": [1]}, outdir)
        self.assertEqual((verdict["attempted"], verdict["failed"]), (3, 1), verdict["errors"])


class Refusals(unittest.TestCase):
    def test_missing_wrap_target_fails_before_wrapping(self):
        from noisybell import cli

        with self.assertRaises(tracing.MissingTarget):
            tracing.Tracer(tracing.TARGETS + (("noisybell.cli", "no_such_function", "cli.self_s"),))
        self.assertFalse(hasattr(cli.build_parser, "__wrapped__"))

    def test_run_without_the_package_fails_without_a_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "lhv-batch", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
