"""The benchmark's own tests, at a tiny scale.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a checkout; the first run builds the benchmark.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = {
    "browse": ["--users", "600", "--ticks", "20"],
    "churn": ["--users", "600", "--ticks", "20"],
    "serve": ["--users", "200", "--requests", "3000"],
}


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def perfbench(workload, trace, *extra, seed=7):
    """Runs the binary at a tiny scale: (exit code, result object)."""
    os.makedirs(run.RUN_DIR, exist_ok=True)
    command = [run.BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), *TINY[workload],
               *extra]
    done = subprocess.run(command, cwd=run.RUN_DIR, stdout=subprocess.PIPE,
                          text=True, timeout=300)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def test_metric_names_match_pattern_and_have_units(self):
        names = []
        for section in ("end_to_end", "per_layer"):
            for metric in spec()[section]:
                self.assertRegex(metric["name"], NAME)
                self.assertLessEqual(len(metric["name"]), 64)
                self.assertRegex(metric["unit"], UNIT)
                names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_each_workload_finishes_at_a_tiny_scale(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result = perfbench(workload, trace)
                    failed = [c for c in result["checks"] if not c["ok"]]
                    self.assertEqual(failed, [])
                    self.assertEqual(code, 0)
                    self.assertEqual(run.validate(result, bool(trace)), [])
                    expected = run.expected_metrics(bool(trace))
                    for name, metric in result["metrics"].items():
                        self.assertRegex(name, NAME)
                        self.assertEqual(metric["unit"], expected[name])

    def test_a_failing_reply_is_counted_as_failed(self):
        code, result = perfbench("serve", 0, "--inject-mismatch")
        self.assertEqual(code, 2)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])
        self.assertGreaterEqual(result["attempted"], 3000)
        self.assertTrue(any("failed" in p for p in
                            run.validate(result, False)))

    def test_allocations_per_user_tick_repeat_exactly(self):
        values = [perfbench("browse", 1)[1]["metrics"]
                  ["sim.allocs_per_user_tick"]["value"] for _ in range(2)]
        self.assertGreater(values[0], 0)
        self.assertEqual(values[0], values[1])


if __name__ == "__main__":
    unittest.main()
