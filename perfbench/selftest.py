#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root (takes about a minute; builds on first use):

    python3 perfbench/selftest.py

Checks that
  * a tiny run (--seconds 1) of every workload, untraced and traced, prints
    exactly the metrics BENCHMARK.json names, each with its unit, and that
    every oracle passes on it;
  * each oracle rejects a deliberately corrupted result (a flipped race
    verdict, an unrepaired program claimed fixed, a one-byte response
    change), via `perfbench --selftest-oracles`;
  * run.py exits nonzero without a result line in a directory that holds
    only BENCHMARK.json and perfbench/ (no sources to build).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True)


class TinyRuns(unittest.TestCase):
    def check(self, trace):
        spec = load_spec()
        wanted = {m["name"]: m["unit"]
                  for m in spec["per_layer" if trace else "end_to_end"]}
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                proc = run_bench(w["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, wanted)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check(0)

    def test_traced_prints_every_per_layer_metric(self):
        self.check(1)


class Oracles(unittest.TestCase):
    def test_each_oracle_rejects_a_corrupted_result(self):
        # Builds the binary if needed.
        self.assertEqual(run_bench("service_mix", 0).returncode, 0)
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        binary = os.path.join(ROOT, target, "perfbench", "perfbench")
        proc = subprocess.run([binary, "--selftest-oracles"], cwd=ROOT,
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("FAILED", proc.stdout)


class NoSources(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"))
            proc = run_bench("csan_locked", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
