#!/usr/bin/env python3
"""Self-tests of the wayplace benchmark.

    python3 wpbench/test_wpbench.py

Run from the repository root. The harness tests build it (first time
only); the two forced-failure tests run short workloads, about a minute
in all.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*args):
    """Runs the benchmark; returns (exit code, parsed result line or None)."""
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                       cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None


class MetricNames(unittest.TestCase):
    def test_every_declared_name_is_well_formed_and_unique(self):
        spec = run.load_spec()
        names = [m["name"] for section in ("end_to_end", "per_layer")
                 for m in spec[section]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, run.METRIC_NAME)

    def test_setup_time_is_declared_as_required(self):
        setup = [m for m in run.load_spec()["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower", "bound": 0.25}])


class Percentile(unittest.TestCase):
    def test_refuses_a_tail_with_fewer_than_ten_samples_beyond_it(self):
        with self.assertRaises(ValueError):
            run.percentile(list(range(999)), 99)
        with self.assertRaises(ValueError):
            run.percentile(list(range(19)), 50)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_nearest_rank(self):
        samples = list(range(1, 1001))
        self.assertEqual(run.percentile(samples, 99), 990)
        self.assertEqual(run.percentile(samples, 50), 500)
        self.assertEqual(run.percentile(list(reversed(samples)), 99), 990)


class GoldenCheck(unittest.TestCase):
    def test_a_changed_guest_field_is_reported(self):
        with open(os.path.join(ROOT, run.GOLDEN)) as f:
            text = f.read()
        # Edit the text itself, so every other number keeps its bytes.
        head, cells = text.split('"cells"', 1)
        cells = re.sub(r'"cycles": (\d+)',
                       lambda m: f'"cycles": {int(m.group(1)) + 1}', cells, count=1)
        cells = re.sub(r'"wall_seconds": [0-9.e-]+', '"wall_seconds": 9.5',
                       cells, count=1)  # a host field: ignored
        path = os.path.join(ROOT, ".bench_build", "golden_selftest.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(head + '"cells"' + cells)
        compared, bad = run.golden_check([path])
        os.remove(path)
        self.assertEqual(compared, 1242)
        self.assertEqual(len(bad), 1)
        self.assertIn("cycles", bad[0])


class HarnessDerivations(unittest.TestCase):
    def test_redundant_ratio_counts_only_repeated_simulations(self):
        # The harness's own unit checks: sweep.redundant_ratio is 2/5 when
        # every requested cell was simulated and 0 once duplicates are
        # answered from one simulation.
        harness = os.path.join(run.build(), "wpbench_harness")
        r = subprocess.run([harness, "--self-test"], capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stderr)


class ForcedFailure(unittest.TestCase):
    """A broken unit of work must be counted, not lost."""

    def assert_counted(self, rc, result):
        self.assertNotEqual(rc, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_persistently_faulting_cell(self):
        self.assert_counted(*bench("--workload", "corun_switch", "--seed", "3",
                                   "--seconds", "16", "--inject-failure"))

    def test_malformed_serve_request(self):
        self.assert_counted(*bench("--workload", "serve_mixed", "--seed", "3",
                                   "--seconds", "5", "--inject-failure"))


if __name__ == "__main__":
    unittest.main()
