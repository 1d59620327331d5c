#!/usr/bin/env python3
"""The benchmark's own test: runs every workload at a tiny size and checks
that each metric named in BENCHMARK.json prints with its unit, that the run
is correct, and that a deliberately corrupted answer is caught (failed_frac
above 0, non-zero exit).

Run from the repository root (builds on first use):

    python3 perfbench/test_bench.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, lines, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        table = "\n".join(lines[:-1])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # The human-readable table names every metric with its unit.
            self.assertRegex(
                table, rf"#\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}")

    def test_end_to_end_metrics_print_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.check_metrics(lines, result, BENCH["end_to_end"])
                text = "\n".join(lines)
                self.assertRegex(text, r"failed_frac\s+0 ratio")
                # Reported but not gated (too noisy to bound): still printed.
                reported = []
                if workload != "hot_cache":
                    reported += ["open_p50_us", "open_p99_us"]
                if workload == "live_rerank":
                    reported += ["write_p50_us", "write_p99_us"]
                for name in reported:
                    self.assertRegex(text, rf"#\s+{name}\s+\S+ us")
                for key in ("commit=", "nproc=", "kernel_isa=", "seed=",
                            "model: d=64", "db=", "engine: threads=",
                            "wal: flush="):
                    self.assertIn(key, "\n".join(lines))

    def test_traced_pass_prints_every_layer_metric_and_the_ledger(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, trace=1)
                self.assertEqual(code, 0, "\n".join(lines))
                self.check_metrics(lines, result, BENCH["per_layer"])
                text = "\n".join(lines)
                match = re.search(r"sum\s+([\d.]+) us = traced Query ([\d.]+) us",
                                  text)
                self.assertIsNotNone(match, text)
                self.assertAlmostEqual(float(match.group(1)),
                                       float(match.group(2)), delta=0.02)
                self.assertIn("trace.overhead_frac", text)

    def test_corrupted_answers_fail_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload,
                                          extra=("--corrupt-every", "3"))
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                frac = re.search(r"failed_frac\s+(\S+) ratio", "\n".join(lines))
                self.assertGreater(float(frac.group(1)), 0.0)


if __name__ == "__main__":
    unittest.main()
