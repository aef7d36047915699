"""Tests for compare.py.  Run: python3 perfbench/test_compare.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "batch_s.p50", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "mms.solves", "unit": "count", "better": "lower"}],
}


def result(nproc=2, cores=2, workload="figures_cold", trace=0, **metrics):
    return {
        "workload": workload,
        "trace": trace,
        "host": {"nproc": nproc, "available_cores": cores, "ocaml_version": "5.1.1"},
        "result": {"metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}},
    }


class Refusal(unittest.TestCase):
    def test_same_host_is_comparable(self):
        self.assertIsNone(compare.refusal(result(), result()))

    def test_different_core_counts_are_refused(self):
        self.assertIn("core counts", compare.refusal(result(nproc=1, cores=1), result()))
        self.assertIn("core counts", compare.refusal(result(cores=1), result()))

    def test_different_workloads_are_refused(self):
        self.assertIn("workload", compare.refusal(result(), result(workload="replicate_sim")))
        self.assertIn("trace", compare.refusal(result(), result(trace=1)))


class Changes(unittest.TestCase):
    def test_regression_respects_direction_and_bound(self):
        base = result(**{"batch_s.p50": 1.0, "points_per_s": 100.0, "mms.solves": 10})
        new = result(**{"batch_s.p50": 1.05, "points_per_s": 80.0, "mms.solves": 20})
        rows = {r[0]: r for r in compare.changes([base], [new], BENCH)}
        self.assertFalse(rows["batch_s.p50"][4])  # 5% slower, bound 10%
        self.assertTrue(rows["points_per_s"][4])  # 20% fewer, higher is better
        self.assertFalse(rows["mms.solves"][4])  # per-layer: no bound
        self.assertEqual(compare.changes([base], [new], BENCH)[0][0], "mms.solves")

    def test_medians_over_runs(self):
        base = [result(**{"batch_s.p50": v}) for v in (1.0, 1.0, 5.0)]
        new = [result(**{"batch_s.p50": v}) for v in (1.05, 0.2, 1.05)]
        (row,) = compare.changes(base, new, BENCH)
        self.assertAlmostEqual(row[1], 1.0)
        self.assertAlmostEqual(row[2], 1.05)
        self.assertFalse(row[4])  # one slow run per side moves nothing


class CommandLine(unittest.TestCase):
    def test_split(self):
        self.assertEqual(compare.split(["a", "b"]), (["a"], ["b"]))
        self.assertEqual(compare.split(["a", "b", "--", "c"]), (["a", "b"], ["c"]))
        self.assertIsNone(compare.split(["a", "b", "c"]))
        self.assertIsNone(compare.split(["a", "--"]))


if __name__ == "__main__":
    unittest.main()
