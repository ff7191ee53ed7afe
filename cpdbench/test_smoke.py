#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload of workloads.json (those of BENCHMARK.json) at its
tiny `smoke` size, untraced and traced, through run.py, and checks the
result line, the output checks and the Perfetto trace. Run from the
repository root:

    python3 cpdbench/test_smoke.py
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(HERE, "workloads.json")) as f:
    WORKLOADS = sorted(json.load(f)["workloads"])


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out


class SmokeTest(unittest.TestCase):

    def check_result(self, workload, trace, wanted):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stdout[-3000:] + out.stderr[-3000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
        return result

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_result(workload, 0, BENCH["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_write_layers_and_a_trace(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_result(workload, 1, BENCH["per_layer"])
                self.assertGreater(result["metrics"]["trace.coverage"]["value"], 0)
                path = os.path.join(ROOT, ".bench_build", "work", "traces",
                                    "%s-seed%d.json" % (workload, SEED))
                with open(path) as f:
                    trace = json.load(f)
                spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
                self.assertTrue(spans)
                self.assertTrue(all(e["dur"] >= 0 for e in spans))

    def test_bare_directory_fails_without_a_result(self):
        # Without the repository's sources the build must fail loudly.
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "cpdbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "cpdbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=600)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
