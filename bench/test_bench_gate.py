#!/usr/bin/env python3
"""Timing-free tests of the benchmark gate: compare_bench.py and
bench_regression.py.

compare_bench.py runs on committed synthetic JSON files.
testdata/compare_baseline.json holds one sample per row;
testdata/compare_candidate.json holds two repetitions per row (as several
independent runs merged into one file would):

    row       baseline    candidate samples        min ratio
    BM_Noisy  100 ns      1000 ns, 110 ns          1.10 (one sample 10x)
    BM_Slow   100 ns      190 ns, 180 ns           1.80
    BM_Micro  2000 ns     2.2 us, 2.1 us           1.05
    BM_Milli  0.5 ms      530000 ns, 0.56 ms       1.06

bench_regression.py drives testdata/fake_bench.py, a stand-in for the
benchmark binary with rows BM_First, BM_Noisy, BM_Last in that order, whose
BM_Noisy row comes under the bound only on its ninth run.  Its wall clock is
replaced by a counter that advances one second each time it is read, once
after every run, so a budget of B seconds allows exactly B runs.

Run: python3 bench/test_bench_gate.py
"""

import contextlib
import functools
import io
import itertools
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_regression  # noqa: E402
import compare_bench  # noqa: E402

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")
BASELINE = os.path.join(DATA, "compare_baseline.json")
CANDIDATE = os.path.join(DATA, "compare_candidate.json")
FAKE_BENCH = os.path.join(DATA, "fake_bench.py")


def run(*argv):
    """Runs compare_bench.main quietly; returns (status, report rows by name)."""
    with tempfile.TemporaryDirectory() as scratch:
        report_path = os.path.join(scratch, "report.json")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                status = compare_bench.main([*argv, "--json", report_path])
            except SystemExit as exit_:
                return exit_.code, None
        with open(report_path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    return status, {row["name"]: row for row in report["benchmarks"]}


class CompareBenchTest(unittest.TestCase):
    def test_min_under_threshold_passes_despite_one_far_sample(self):
        # BM_Noisy has a 10x sample, BM_Slow is 1.8x at its minimum: at a
        # 100% threshold only a gate on single samples would fail.
        status, rows = run(BASELINE, CANDIDATE, "--threshold", "1.0")
        self.assertEqual(status, 0)
        noisy = rows["BM_Noisy"]
        self.assertFalse(noisy["regressed"])
        self.assertAlmostEqual(noisy["ratio"], 1.10)
        self.assertAlmostEqual(noisy["candidate_max_ns"], 1000.0)
        self.assertEqual(noisy["candidate_samples"], 2)

    def test_min_over_threshold_fails(self):
        status, rows = run(BASELINE, CANDIDATE, "--threshold", "0.5")
        self.assertEqual(status, 1)
        self.assertAlmostEqual(rows["BM_Slow"]["ratio"], 1.80)
        regressed = sorted(name for name, row in rows.items() if row["regressed"])
        self.assertEqual(regressed, ["BM_Slow"])

    def test_time_units_are_converted_to_ns(self):
        _, rows = run(BASELINE, CANDIDATE, "--threshold", "0.5")
        self.assertAlmostEqual(rows["BM_Micro"]["baseline_ns"], 2000.0)
        self.assertAlmostEqual(rows["BM_Micro"]["candidate_ns"], 2100.0)
        self.assertAlmostEqual(rows["BM_Micro"]["ratio"], 1.05)
        self.assertAlmostEqual(rows["BM_Milli"]["baseline_ns"], 500000.0)
        self.assertAlmostEqual(rows["BM_Milli"]["candidate_ns"], 530000.0)
        self.assertAlmostEqual(rows["BM_Milli"]["candidate_max_ns"], 560000.0)
        self.assertAlmostEqual(rows["BM_Milli"]["ratio"], 1.06)

    def test_candidate_files_are_merged(self):
        # The same file twice is four samples per row with the same minimum.
        status, rows = run(BASELINE, CANDIDATE, CANDIDATE, "--threshold", "1.0")
        self.assertEqual(status, 0)
        self.assertEqual(rows["BM_Noisy"]["candidate_samples"], 4)
        self.assertAlmostEqual(rows["BM_Noisy"]["ratio"], 1.10)

    def test_single_sample_rows_compare_that_sample(self):
        status, rows = run(BASELINE, BASELINE)
        self.assertEqual(status, 0)
        self.assertEqual(len(rows), 5)
        for row in rows.values():
            self.assertEqual(row["candidate_samples"], 1)
            self.assertEqual(row["ratio"], 1.0)

    def test_unreadable_input_is_a_usage_error(self):
        status, rows = run(BASELINE, os.path.join(DATA, "missing.json"))
        self.assertEqual(status, 2)
        self.assertIsNone(rows)


class BenchRegressionTest(unittest.TestCase):
    def gate(self, noisy_baseline_ns, budget_seconds):
        """Runs the gate on fake_bench.py; returns (status, samples)."""
        saved = bench_regression.BUDGET_SECONDS, bench_regression.clock
        bench_regression.BUDGET_SECONDS = budget_seconds
        bench_regression.clock = functools.partial(next, itertools.count())
        try:
            with tempfile.TemporaryDirectory() as scratch:
                baseline = os.path.join(scratch, "baseline.json")
                kept = os.path.join(scratch, "kept.json")
                entries = [
                    {"name": name, "run_type": "iteration", "real_time": time,
                     "time_unit": "ns"}
                    for name, time in (("BM_First", 100.0),
                                       ("BM_Noisy", noisy_baseline_ns),
                                       ("BM_Last", 100.0))
                ]
                with open(baseline, "w", encoding="utf-8") as handle:
                    json.dump({"benchmarks": entries}, handle)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = bench_regression.main(
                        [FAKE_BENCH, baseline, "--threshold", "0.5",
                         "--keep", kept])
                samples = compare_bench.load_samples([kept])
        finally:
            bench_regression.BUDGET_SECONDS, bench_regression.clock = saved
        return status, samples

    def test_rows_over_the_bound_are_measured_again_until_under_it(self):
        status, samples = self.gate(noisy_baseline_ns=100.0, budget_seconds=60)
        self.assertEqual(status, 0)
        # One full run, then the rows up to BM_Noisy, in their run order,
        # until its ninth sample (110 ns); BM_Last is not run again.
        self.assertEqual(len(samples["BM_First"]), 9)
        self.assertEqual(len(samples["BM_Noisy"]), 9)
        self.assertEqual(len(samples["BM_Last"]), 1)
        self.assertEqual(min(samples["BM_Noisy"]), 110.0)

    def test_a_slower_program_still_fails_when_the_budget_is_spent(self):
        # 110 ns against 50 ns is 2.2x: no number of samples brings it under.
        status, samples = self.gate(noisy_baseline_ns=50.0, budget_seconds=12)
        self.assertEqual(status, 1)
        self.assertEqual(len(samples["BM_Noisy"]), 12)
        self.assertEqual(len(samples["BM_Last"]), 1)

    def test_no_run_starts_that_would_end_past_the_budget(self):
        # The first run takes one second, so with a budget of one second the
        # gate stops after it and judges that single sample.
        status, samples = self.gate(noisy_baseline_ns=100.0, budget_seconds=1)
        self.assertEqual(status, 1)
        self.assertEqual(len(samples["BM_Noisy"]), 1)


if __name__ == "__main__":
    unittest.main()
