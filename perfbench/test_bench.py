#!/usr/bin/env python3
"""Self-test of the benchmark: exact counts repeat, outputs are checked.

    python3 perfbench/test_bench.py        # from the repository root

Builds through run.py, then runs every workload twice with the same seed
and a fixed request count (traced, so the layer-by-layer replay is
compared with the untraced one inside each run).  The cache, subtree and
memo counts, engine.solves, pareto.front_points and the FNV-1a digest of
all normalised responses must repeat exactly; another seed must give
other responses.  Also builds and runs perfbench_check_cases, the unit
cases of the answer checks.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

REQUESTS = {"solve_cold": 700, "serve_warm": 3000, "edit_session": 1500}


def bench(binary, workload, seed, trace=1):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--requests",
         str(REQUESTS[workload]), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


class ExactCounts(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if not cls.binary:
            raise RuntimeError("perfbench did not build")

    def test_counts_and_digest_repeat(self):
        for workload in REQUESTS:
            with self.subTest(workload=workload):
                code_a, a = bench(self.binary, workload, 7)
                code_b, b = bench(self.binary, workload, 7)
                for r, code in ((a, code_a), (b, code_b)):
                    self.assertEqual(code, 0, r["problems"])
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(r["attempted"], REQUESTS[workload])
                self.assertEqual(a["digest"], b["digest"])
                self.assertEqual(a["counts"], b["counts"])
                self.assertEqual(a["traced_counts"], b["traced_counts"])
                for name in ("service.cache_hits", "service.cache_misses",
                             "service.subtree_hits", "service.subtree_misses",
                             "service.session_memo_hits",
                             "service.session_memo_misses", "engine.solves",
                             "pareto.front_points"):
                    self.assertEqual(a["per_layer"][name]["value"],
                                     b["per_layer"][name]["value"], name)

    def test_answer_checks(self):
        out = os.path.dirname(self.binary)
        subprocess.run(["cmake", "--build", out, "--target",
                        "perfbench_check_cases"], check=True,
                       stdout=subprocess.DEVNULL, timeout=850)
        done = subprocess.run([os.path.join(out, "perfbench_check_cases")],
                              stdout=subprocess.PIPE, text=True, timeout=60)
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_seed_changes_the_requests(self):
        _, a = bench(self.binary, "solve_cold", 7, trace=0)
        _, b = bench(self.binary, "solve_cold", 8, trace=0)
        self.assertNotEqual(a["digest"], b["digest"])

    def test_workload_shapes(self):
        _, cold = bench(self.binary, "solve_cold", 7)
        _, warm = bench(self.binary, "serve_warm", 7)
        _, edit = bench(self.binary, "edit_session", 7)
        # solve_cold misses every time; serve_warm hits every time.
        self.assertEqual(cold["per_layer"]["service.cache_hits"]["value"], 0)
        self.assertEqual(cold["per_layer"]["engine.solves"]["value"],
                         REQUESTS["solve_cold"])
        self.assertEqual(warm["per_layer"]["service.cache_misses"]["value"], 0)
        self.assertEqual(warm["per_layer"]["engine.solves"]["value"], 0)
        self.assertGreater(edit["per_layer"]["service.session_memo_hits"]["value"], 0)
        # No layer on the request path is left unmeasured.
        for r in (cold, warm, edit):
            coverage = r["per_layer"]["trace.coverage"]["value"]
            self.assertGreater(coverage, 0.85)
            self.assertLess(coverage, 1.15)


if __name__ == "__main__":
    unittest.main()
