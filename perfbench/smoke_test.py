#!/usr/bin/env python3
"""Smoke test of the benchmark's own code at its smallest size.

    python3 perfbench/smoke_test.py

Runs every workload untraced and traced at --size smoke for one second
and checks that:
  * the last stdout line is the result object, with zero failed
    operations among at least one attempted;
  * every metric BENCHMARK.json names is printed, with its unit: all
    end-to-end metrics untraced, all per-layer metrics traced;
  * the traced run wrote a span trace whose spans nest, each child inside
    its parent's interval.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=False)
    return done


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check_result(self, done, names_units):
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names_units))
        for name, unit in names_units.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def check_spans_nest(self, path):
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        self.assertGreater(len(events), 0)
        by_span = {e["args"]["span"]: e for e in events}
        for e in events:
            parent = e["args"]["parent"]
            if parent == 0:
                continue
            p = by_span[parent]
            # Timestamps are printed to the nanosecond (3 decimals of us).
            slack = 0.002
            self.assertGreaterEqual(e["ts"] + slack, p["ts"],
                                    f"{e['name']} starts before {p['name']}")
            self.assertLessEqual(e["ts"] + e["dur"],
                                 p["ts"] + p["dur"] + slack,
                                 f"{e['name']} ends after {p['name']}")

    def test_workloads(self):
        end_to_end = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload, trace=0):
                result = self.check_result(run(workload, 0), end_to_end)
                for name in end_to_end:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)
            with self.subTest(workload=workload, trace=1):
                self.check_result(run(workload, 1), per_layer)
                self.check_spans_nest(os.path.join(
                    ROOT, ".bench_out", f"trace-{workload}-7.json"))


if __name__ == "__main__":
    unittest.main()
