#!/usr/bin/env python3
"""The benchmark's own tests, at tiny input sizes.

    python3 perfbench/test_bench.py

Builds the benchmark binary through run.py, then checks that
  * every metric named in BENCHMARK.json prints, with its unit, for every
    workload, untraced (end_to_end) and traced (per_layer);
  * a result stream with one result dropped fails the correctness check;
  * the same seed gives byte-identical generated inputs.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seed=1, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny",
           *extra]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600,
                          check=False)


def result_of(proc):
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, trace, spec_key):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                proc = run(workload, trace=trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                doc = result_of(proc)
                self.assertTrue(doc["correct"])
                self.assertGreaterEqual(doc["attempted"], 1)
                self.assertEqual(doc["failed"], 0)
                want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
                got = doc["metrics"]
                self.assertEqual(set(got), set(want))
                for name, unit in want.items():
                    self.assertEqual(got[name]["unit"], unit, name)
                    self.assertIsInstance(got[name]["value"], (int, float))

    def test_end_to_end_metrics_print_with_units(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics_print_with_units(self):
        self.check_metrics(1, "per_layer")

    def test_dropped_result_fails_the_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, extra=["--corrupt-drop-one"])
                self.assertNotEqual(proc.returncode, 0)
                doc = result_of(proc)
                self.assertFalse(doc["correct"])
                self.assertGreater(doc["failed"], 0)

    def test_same_seed_gives_identical_inputs(self):
        # Inside the checkout's build directory, like every benchmark write.
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, ".bench_build")) as tmp:
            for workload in WORKLOADS:
                paths = [os.path.join(tmp, f"{workload}-{i}.txt")
                         for i in range(3)]
                for path, seed in zip(paths, (7, 7, 8)):
                    proc = run(workload, seed=seed,
                               extra=["--dump-inputs", path])
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                with open(paths[0], "rb") as a, open(paths[1], "rb") as b, \
                        open(paths[2], "rb") as c:
                    first, again, other = a.read(), b.read(), c.read()
                self.assertTrue(first)
                self.assertEqual(first, again, workload)
                self.assertNotEqual(first, other, workload)


if __name__ == "__main__":
    unittest.main()
