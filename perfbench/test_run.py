"""Tests of run.py's own logic: the tail-percentile rule, failure
accounting and the output checks.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TailPercentile(unittest.TestCase):
    def test_hundred_samples_is_p90(self):
        samples = list(range(100, 0, -1))  # unsorted on purpose
        self.assertEqual(run.tail_percentile(samples), (90, 90.0, 10))

    def test_eleven_samples_keep_ten_beyond_the_minimum(self):
        value, pct, beyond = run.tail_percentile(list(range(11)))
        self.assertEqual((value, beyond), (0, 10))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_twenty_five_samples(self):
        value, pct, beyond = run.tail_percentile(list(range(1, 26)))
        self.assertEqual((value, pct, beyond), (15, 60.0, 10))

    def test_fewer_than_eleven_samples_fall_back_to_the_minimum(self):
        self.assertEqual(run.tail_percentile([5, 3, 9]), (3, 100.0 / 3, 2))
        self.assertEqual(run.tail_percentile([7]), (7, 100.0, 0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.tail_percentile([])


class FailureAccounting(unittest.TestCase):
    def test_classify(self):
        self.assertIsNone(run.classify(0, False, None))
        self.assertEqual(run.classify(3, False, None), "exit 3")
        self.assertEqual(run.classify(-6, False, None), "exit -6")
        # A killed op reports its signal, but it counts as a timeout.
        self.assertEqual(run.classify(-9, True, None), "timeout")
        self.assertEqual(run.classify(0, False, "accuracy differs"),
                         "mismatch: accuracy differs")
        # A failed exit is not also checked for a mismatch.
        self.assertEqual(run.classify(1, False, "x"), "exit 1")

    def test_tally_counts_each_kind(self):
        tally = run.Tally()
        for reason in [None, "exit 2", "timeout", "mismatch: a", None,
                       "mismatch: b", None, None]:
            tally.add(reason)
        self.assertEqual((tally.attempted, tally.failed), (8, 4))
        self.assertEqual(tally.failed_frac(), 0.5)
        self.assertEqual(tally.reasons,
                         {"exit 2": 1, "timeout": 1, "mismatch": 2})
        self.assertEqual(run.Tally().failed_frac(), 0.0)

    def test_spawn_reports_exit_code_and_timeout(self):
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, ".bench_build")) as tmp:
            out = os.path.join(tmp, "out")
            done = run.spawn(["sh", "-c", "echo hi; exit 3"], out)
            self.assertEqual((done.returncode, done.timed_out, done.stdout),
                             (3, False, "hi\n"))
            self.assertGreater(done.maxrss_kib, 0)
            slow = run.spawn(["sleep", "30"], out, timeout=0.2)
            self.assertTrue(slow.timed_out)
            self.assertLess(slow.wall_s, 10)
            self.assertEqual(
                run.classify(slow.returncode, slow.timed_out, None),
                "timeout")

    def test_tool_timeout_is_an_error(self):
        with self.assertRaisesRegex(run.BenchError, "timed out"):
            run.run_tool(["sleep", "30"], "slow tool", timeout=0.2)


RUN_GOLDEN = {"cells": [["gcc", 2000000, 1921986, 78014, " 96.10", "  3.90"]],
              "text": ""}
RUN_TEXT = ("AT(AHRT(512,12SR),PT(2^12,A2),) on gcc:\n"
            "  conditional branches: 2000000\n"
            "  accuracy:   96.10 %\n"
            "  miss rate:   3.90 %\n")


class OutputChecks(unittest.TestCase):
    def test_run_text(self):
        argv = ["run", "S", "f.tltr"]
        self.assertIsNone(run.check_cli(argv, RUN_TEXT, RUN_GOLDEN))
        self.assertIsNotNone(run.check_cli(
            argv, RUN_TEXT.replace("96.10", "96.11"), RUN_GOLDEN))
        self.assertIsNotNone(run.check_cli(
            argv, RUN_TEXT.replace("2000000", "1999999"), RUN_GOLDEN))
        self.assertIsNotNone(run.check_cli(argv, "", RUN_GOLDEN))

    def test_run_json(self):
        argv = ["run", "S", "f.tltr", "--json"]
        doc = ('{"benchmark": "gcc", "accuracy": {"conditional_branches": '
               '2000000, "hits": %d, "misses": %d}}')
        self.assertIsNone(
            run.check_cli(argv, doc % (1921986, 78014), RUN_GOLDEN))
        self.assertIsNotNone(
            run.check_cli(argv, doc % (1921987, 78013), RUN_GOLDEN))
        self.assertIsNotNone(run.check_cli(argv, "{truncated", RUN_GOLDEN))

    def test_compare_is_exact(self):
        golden = {"cells": [], "text": "table\n"}
        self.assertIsNone(run.check_cli(["compare", "S"], "table\n", golden))
        self.assertIsNotNone(run.check_cli(["compare", "S"], "table", golden))

    def test_driver_results(self):
        self.assertIsNone(run.check_driver(dict(RUN_GOLDEN), RUN_GOLDEN, "run"))
        self.assertIsNotNone(run.check_driver(
            {"cells": [["gcc", 2000000, 1, 1999999, "", ""]], "text": ""},
            RUN_GOLDEN, "run"))
        self.assertTrue(run.check_driver(
            {"error": "boom"}, RUN_GOLDEN, "run").startswith("driver error"))
        self.assertEqual(run.branches_of(RUN_GOLDEN), 2000000)


class Environment(unittest.TestCase):
    def test_child_env_drops_every_tlat_knob(self):
        os.environ["TLAT_CHUNK_RECORDS"] = "4096"
        try:
            env = run.child_env()
        finally:
            del os.environ["TLAT_CHUNK_RECORDS"]
        self.assertFalse([k for k in env if k.startswith("TLAT_")])
        self.assertIn("PATH", env)


if __name__ == "__main__":
    unittest.main()
