#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 e2ebench/test_e2ebench.py

- Every workload, at a seed held out from tuning, in both modes: exit 0,
  no failed operation, and exactly the metric names and units that
  BENCHMARK.json lists (end_to_end untraced, per_layer traced); the
  prob layer reads 0 on esup and stream, and the trace file is valid
  JSON.
- Without the source tree the command fails fast and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
HELD_OUT_SEED = 7919
SECONDS = "2"


def run_bench(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class HeldOutSeedTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        proc = run_bench("--workload", workload, "--seed", str(HELD_OUT_SEED),
                         "--seconds", SECONDS, "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_line(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIn("error_rate = 0 ", proc.stdout)
        listed = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        for m in listed:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return proc, result["metrics"]

    def test_untraced(self):
        for workload in ("esup", "prob", "stream"):
            with self.subTest(workload=workload):
                _, metrics = self.check(workload, 0)
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced(self):
        for workload in ("esup", "prob", "stream"):
            with self.subTest(workload=workload):
                proc, metrics = self.check(workload, 1)
                prob = {n: m["value"] for n, m in metrics.items()
                        if n.startswith("prob.")}
                if workload == "prob":
                    self.assertGreater(prob["prob.tail_evals"], 0)
                else:
                    self.assertEqual(set(prob.values()), {0})
                trace = next(line.split(": ", 1)[1] for line in proc.stdout.splitlines()
                             if line.startswith("# trace_file: "))
                with open(trace) as f:
                    self.assertTrue(json.load(f)["traceEvents"])


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run_bench("--workload", "esup", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare,
                             script=os.path.join(bare, "e2ebench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
