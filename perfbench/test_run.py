#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny versions of its workloads.

  python3 perfbench/test_run.py

The first test builds the benchmark binary (about half a minute on four
cores); the rest take seconds.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "ecnbench")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tests")

# The three workload shapes at a size that runs in well under a second.
TINY = {
    "dumbbell_tiny": {"topo": "dumbbell", "scheme": "ecn-sharp", "load": 0.7,
                      "flows": 150},
    "fattree_tiny": {"topo": "fattree", "k": 4, "scheme": "ecn-sharp",
                     "load": 0.5, "flows": 80},
    "interdc_tiny": {"topo": "interdc", "scheme": "ecn-sharp", "load": 0.5,
                     "flows": 30, "sketch": "on",
                     "trace": "points:2048"},
}


def write_workloads(name, workloads):
    os.makedirs(TMP_DIR, exist_ok=True)
    path = os.path.join(TMP_DIR, name)
    with open(path, "w") as f:
        json.dump({"workloads": workloads}, f)
    return path


def run_bench(workload, workloads_file, seed=2, trace=0):
    """Runs run.py; returns (stdout lines, parsed last line)."""
    result = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace),
         "--workloads-file", workloads_file],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if result.returncode != 0:
        raise AssertionError(f"run.py exited {result.returncode}:\n{result.stderr[-3000:]}")
    lines = result.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.tiny = write_workloads("tiny.json", TINY)

    def assert_metrics(self, out, specs):
        self.assertEqual(set(out["metrics"]), {m["name"] for m in specs})
        for spec in specs:
            metric = out["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float), spec["name"])

    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                lines, out = run_bench(workload, self.tiny)
                self.assertTrue(out["correct"], lines)
                self.assertGreater(out["attempted"], 0)
                self.assertEqual(out["failed"], 0)
                self.assert_metrics(out, self.bench["end_to_end"])
                self.assertTrue(any("fail_frac" in line for line in lines))

    def test_every_per_layer_metric_is_printed_with_its_unit(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                lines, out = run_bench(workload, self.tiny, trace=1)
                self.assertTrue(out["correct"], lines)
                self.assert_metrics(out, self.bench["per_layer"])

    def test_wrong_pinned_digest_is_a_failure_and_the_right_one_passes(self):
        workloads = {"dumbbell_tiny": dict(TINY["dumbbell_tiny"],
                                           pinned_digest="0000000000000000")}
        path = write_workloads("wrong_digest.json", workloads)
        lines, out = run_bench("dumbbell_tiny", path, seed=1)
        self.assertFalse(out["correct"])
        # Only the first pass runs seed 1; all of its flows count as failed.
        self.assertEqual(out["failed"], TINY["dumbbell_tiny"]["flows"])
        failure = next(line for line in lines if "!= pinned" in line)
        actual = failure.split("digest ")[1].split(" ")[0]

        workloads["dumbbell_tiny"]["pinned_digest"] = actual
        path = write_workloads("right_digest.json", workloads)
        lines, out = run_bench("dumbbell_tiny", path, seed=1)
        self.assertTrue(out["correct"], lines)
        self.assertEqual(out["failed"], 0)

    def test_traced_run_matches_untraced_simulated_statistics(self):
        run_bench("interdc_tiny", self.tiny)  # builds the binary if needed
        for workload, definition in TINY.items():
            with self.subTest(workload=workload):
                config = dict(definition, workload=workload, seed=3)
                path = os.path.join(TMP_DIR, workload + "-config.json")
                with open(path, "w") as f:
                    json.dump(config, f)
                plain = self.ecnbench("run", path)
                traced = self.ecnbench("trace", path,
                                       os.path.join(TMP_DIR, workload + "-spans.json"))
                self.assertEqual(plain["stats"], traced["stats"])
                self.assertEqual(plain["digest"], traced["digest"])
                self.assertEqual(traced["accounting_error"], "")

    def ecnbench(self, *args):
        result = subprocess.run([BINARY, *args], capture_output=True, text=True,
                                timeout=300)
        self.assertEqual(result.returncode, 0, result.stderr)
        return json.loads(result.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    unittest.main()
