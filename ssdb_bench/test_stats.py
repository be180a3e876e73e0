"""Tests of the benchmark's own helpers (stats.py).

    python3 -m unittest discover -s ssdb_bench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import stats

HERE = os.path.dirname(os.path.abspath(__file__))


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def record(latency, outcomes):
    return {
        "setup_s": [0.3, 0.1, 0.2],
        "latency_ms": latency,
        "outcomes": outcomes,
        "wall_s": 2.0,
        "cpu_s": 3.0,
        "input_cells": 1000.0,
        "peak_rss_mb": 12.5,
        "stored_bytes_per_cell": 3.5,
    }


class TailTest(unittest.TestCase):
    def test_eleventh_largest_has_ten_beyond(self):
        value, pct, beyond = stats.tail(list(range(1, 101)))
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(1 for v in range(1, 101) if v > value), 10)

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0,
                   12.0]
        self.assertEqual(stats.tail(samples), (2.0, 100.0 * 2 / 12, 10))

    def test_percentile_rises_with_sample_count(self):
        _, p_small, _ = stats.tail([float(i) for i in range(20)])
        _, p_large, _ = stats.tail([float(i) for i in range(2000)])
        self.assertAlmostEqual(p_small, 50.0)
        self.assertAlmostEqual(p_large, 99.5)

    def test_too_few_samples_reports_max_unsupported(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))
        self.assertEqual(stats.tail([float(i) for i in range(10)])[2], 0)
        self.assertEqual(stats.tail([float(i) for i in range(11)]),
                         (0.0, 100.0 * 1 / 11, 10))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class P50Test(unittest.TestCase):
    def test_short_run_is_plain_median(self):
        self.assertEqual(stats.p50([4.0, 2.0, 9.0]), 4.0)

    def test_steady_run_is_the_median(self):
        samples = [10.0, 11.0, 12.0, 13.0] * 8
        self.assertEqual(stats.p50(samples), statistics.median(samples))

    def test_group_median_ignores_one_slow_op(self):
        samples = [10.0] * 32
        samples[5] = 500.0
        self.assertEqual(stats.p50(samples), 10.0)

    def test_host_phase_switch_moves_it_in_proportion(self):
        # 9 groups at 10 ms, then 7 at 12.5 ms: a whole-run median
        # jumps to one mode, the group average sits between them.
        fast, slow = [10.0] * (9 * 16), [12.5] * (7 * 16)
        run = fast + slow
        self.assertEqual(statistics.median(run), 10.0)
        self.assertAlmostEqual(stats.p50(run), (9 * 10.0 + 7 * 12.5) / 16)

    def test_partial_last_group_is_left_out(self):
        self.assertEqual(stats.p50([1.0] * 16 + [100.0] * 15), 1.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.p50([])


class AccountingTest(unittest.TestCase):
    def test_wrong_result_counts_as_failed(self):
        # Outcome 2 is a forced wrong result, as the runner records a
        # mismatch against the reference.
        attempted, failed = stats.account([0, 0, 2, 0])
        self.assertEqual((attempted, failed), (4, 1))
        res = stats.result(spec(), 0,
                           stats.end_to_end(record([1.0, 2.0, 3.0],
                                                   [0, 0, 2, 0])),
                           attempted, failed)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_errors_and_refusals_count_as_failed(self):
        self.assertEqual(stats.account([1, 0, 1]), (3, 2))

    def test_clean_run_is_correct(self):
        res = stats.result(spec(), 0,
                           stats.end_to_end(record([1.0, 2.0], [0, 0])),
                           2, 0)
        self.assertTrue(res["correct"])

    def test_nothing_attempted_is_not_correct(self):
        self.assertFalse(stats.result(spec(), 1, {m["name"]: 1.0 for m in
                                                  spec()["per_layer"]},
                                      0, 0)["correct"])


class PrinterTest(unittest.TestCase):
    def test_end_to_end_line_has_every_metric_with_unit(self):
        s = spec()
        res = stats.result(s, 0,
                           stats.end_to_end(record([4.0, 2.0, 9.0],
                                                   [0, 0, 0])),
                           3, 0)
        line = json.loads(stats.result_line(res))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in s["end_to_end"]])
        for m in s["end_to_end"]:
            self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
        got = line["metrics"]
        self.assertEqual(got["latency_p50_ms"]["value"], 4.0)
        self.assertEqual(got["setup_s"]["value"], 0.2)
        self.assertEqual(got["ops_per_s"]["value"], 1.5)
        self.assertEqual(got["cells_per_s"]["value"], 500.0)
        self.assertEqual(got["cpu_ms_per_op"]["value"], 1000.0)

    def test_traced_line_lists_per_layer_metrics(self):
        s = spec()
        values = {m["name"]: 0.5 for m in s["per_layer"]}
        line = json.loads(stats.result_line(stats.result(s, 1, values, 5, 0)))
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in s["per_layer"]])

    def test_missing_metric_prints_nothing(self):
        with self.assertRaises(KeyError):
            stats.result(spec(), 1, {"query.parse_us": 1.0}, 5, 0)


if __name__ == "__main__":
    unittest.main()
