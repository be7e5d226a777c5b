#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Builds perfbench like run.py does, then checks that

  * a clean short run of every workload reports no failed operation,
  * a deliberately corrupted answer (run.py --corrupt) makes the run fail:
    the result line has correct=false and failed > 0, and the exit code is
    not 0,
  * the structural counters of census_query and belief_game (round trips,
    sharded and fallback runs, forks, successor hits and misses, guard
    materializations, forced evaluations) repeat exactly across two traced
    runs at one seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as perfrun  # noqa: E402

WORKLOADS = ["census_query", "serve_mixed", "belief_game"]


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.exe = perfrun.build()
        cls.out_dir = os.path.join(perfrun.build_dir(), "results")
        os.makedirs(cls.out_dir, exist_ok=True)

    def run_line(self, workload, corrupt):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "7", "--seconds", "2", "--trace", "0"]
        if corrupt:
            cmd.append("--corrupt")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        return proc.returncode, json.loads(proc.stdout.splitlines()[-1])

    def counters(self, workload, tag):
        out = os.path.join(self.out_dir, "test-%s-%s.json" % (workload, tag))
        subprocess.run([self.exe, "--workload", workload, "--seed", "5",
                        "--seconds", "2", "--trace", "1", "--out", out],
                       check=True, stdout=subprocess.DEVNULL, timeout=300)
        with open(out) as f:
            counters = json.load(f)["counters"]
        return {k: v for k, v in counters.items()
                if k.startswith(workload + ".")}

    def test_clean_runs_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, line = self.run_line(workload, corrupt=False)
                self.assertEqual(code, 0)
                self.assertTrue(line["correct"])
                self.assertEqual(line["failed"], 0)
                self.assertGreater(line["attempted"], 0)

    def test_corrupted_answer_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, line = self.run_line(workload, corrupt=True)
                self.assertNotEqual(code, 0)
                self.assertFalse(line["correct"])
                self.assertGreater(line["failed"], 0)

    def test_structural_counters_repeat(self):
        for workload in ["census_query", "belief_game"]:
            with self.subTest(workload=workload):
                first = self.counters(workload, "a")
                second = self.counters(workload, "b")
                self.assertTrue(first)
                self.assertEqual(first, second)


if __name__ == "__main__":
    unittest.main()
