#!/usr/bin/env python3
"""Unit tests for the throughput gate's sample logic (check_throughput.py).

Noisy-sample fixtures: a run whose single samples straddle the hard
floor must pass on its median, a real regression must still fail, and
a document without samples for a gated ratio is malformed.

Usage: python3 tools/check_throughput_test.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_throughput as gate  # noqa: E402

BASELINE = {
    "fused_speedup": 2.0,
    "simd_speedup": 1.6,
}


def document(simd_samples, simd_active=1.0):
    """A BENCH_throughput document; every other ratio is healthy."""
    scalars = {name: 1.0 for name in (
        "reference_records_per_sec", "fused_records_per_sec",
        "comb_reference_records_per_sec", "comb_fused_records_per_sec",
        "comb_fused_speedup", "predecode_overhead",
        "simd_records_per_sec", "simd_scalar_records_per_sec",
        "peak_rss_bytes")}
    scalars.update({"fused_speedup": 1.95, "simd_speedup": 1.0,
                    "simd_active": simd_active})
    return {"schema": "tlat-bench-v1", "figure": "throughput",
            "scalars": scalars,
            "samples": {"fused_speedup": [1.95, 1.9, 2.0],
                        "simd_speedup": simd_samples}}


class GateLogicTest(unittest.TestCase):

    def test_median_of_noisy_samples_is_gated(self):
        # Three of seven samples fall under the 1.5 floor; the median
        # (1.53) does not.
        doc = document([1.62, 1.47, 1.53, 1.70, 1.44, 1.58, 1.49])
        self.assertAlmostEqual(
            gate.sample_medians(doc)["simd_speedup"], 1.53)

    def test_missing_samples_are_malformed(self):
        doc = document([1.6])
        del doc["samples"]["fused_speedup"]
        with self.assertRaises(ValueError):
            gate.sample_medians(doc)
        doc["samples"]["fused_speedup"] = []
        with self.assertRaises(ValueError):
            gate.sample_medians(doc)
        del doc["samples"]
        with self.assertRaises(ValueError):
            gate.sample_medians(doc)

    def test_noise_band_lowers_only_the_hard_floor(self):
        self.assertAlmostEqual(gate.ratio_floor(1.6, 0.15, 1.5),
                               1.5 * (1 - gate.SAMPLE_NOISE_BAND))
        # A baseline-derived floor above the banded hard floor wins.
        self.assertAlmostEqual(gate.ratio_floor(2.0, 0.15, 1.5), 1.7)
        self.assertAlmostEqual(gate.ratio_floor(2.0, 0.15, None), 1.7)


class GateEndToEndTest(unittest.TestCase):

    def run_gate(self, doc):
        with tempfile.TemporaryDirectory() as directory:
            measured = os.path.join(directory, "BENCH_throughput.json")
            baseline = os.path.join(directory, "baseline.json")
            with open(measured, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            with open(baseline, "w", encoding="utf-8") as handle:
                json.dump({"scalars": BASELINE}, handle)
            devnull = open(os.devnull, "w", encoding="utf-8")
            saved = sys.stdout, sys.stderr
            sys.stdout = sys.stderr = devnull
            try:
                return gate.main(["check_throughput.py", measured,
                                  baseline])
            finally:
                sys.stdout, sys.stderr = saved
                devnull.close()

    def test_noisy_run_near_the_floor_passes(self):
        # Four single samples fall under the 1.5 floor; their median
        # (1.49) is inside the noise band.
        samples = [1.52, 1.47, 1.49, 1.55, 1.46, 1.50, 1.48, 1.51, 1.47]
        self.assertEqual(self.run_gate(document(samples)), 0)

    def test_real_regression_fails_despite_one_fast_sample(self):
        samples = [1.31, 1.29, 1.62, 1.33, 1.30, 1.28, 1.35]
        self.assertEqual(self.run_gate(document(samples)), 1)

    def test_median_just_below_the_band_fails(self):
        samples = [1.44, 1.43, 1.45, 1.44, 1.42]
        self.assertEqual(self.run_gate(document(samples)), 1)

    def test_document_without_samples_fails(self):
        doc = document([1.6])
        del doc["samples"]
        self.assertEqual(self.run_gate(doc), 1)

    def test_scalar_only_host_checks_parity_of_the_median(self):
        self.assertEqual(
            self.run_gate(document([0.97, 1.01, 0.99],
                                   simd_active=0.0)), 0)
        self.assertEqual(
            self.run_gate(document([0.80, 0.82, 0.79],
                                   simd_active=0.0)), 1)


if __name__ == "__main__":
    unittest.main()
