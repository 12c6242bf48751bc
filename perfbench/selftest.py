#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny scale.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
- the benchmark's unit tests pass;
- every workload, untraced and traced, prints exactly the metrics that
  BENCHMARK.json declares for that mode, each with its declared unit, reads
  correct, and fails no op;
- a deliberately wrong reference output is counted as a failure on every
  workload and in both modes, so the output check has teeth.
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
ENV = dict(os.environ)
ENV.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))


def run(workload, trace, *extra):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--tiny", *extra,
    ]
    p = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def test_unit_tests_pass(self):
        manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
        p = subprocess.run(
            ["cargo", "test", "--quiet", "--offline", "--release", "--manifest-path", manifest],
            cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=900,
        )
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_every_declared_metric_is_emitted_with_its_unit(self):
        for w in BENCH["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = run(w["name"], trace)
                    want = {m["name"]: m["unit"] for m in BENCH[kind]}
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)

    def test_a_wrong_reference_counts_as_a_failure(self):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    r = run(w["name"], trace, "--bad-reference")
                    self.assertFalse(r["correct"])
                    self.assertGreater(r["failed"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
