"""Self-tests of the benchmark's timing arithmetic, on synthetic data.

Run from the repository root with either of::

    python3 -m pytest perfbench -q
    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import (  # noqa: E402
    adopt_orphans,
    enclosed_gap,
    layer_times,
    summarise,
    tail_percentile,
    unattributed,
    union_length,
)


def span(name, start, end, sid, parent=None, rid="r", pid=1):
    return (name, start, end, sid, parent, rid, pid)


class PercentileRule(unittest.TestCase):
    def test_no_tail_below_twenty_samples(self):
        # p75 of 19 samples is sample 15: only 4 lie beyond it.
        self.assertIsNone(tail_percentile(19))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(tail_percentile(40), 75)  # 40 - 30 = 10 beyond p75
        self.assertEqual(tail_percentile(99), 75)  # p90 leaves 99 - 90 = 9
        self.assertEqual(tail_percentile(100), 90)  # 100 - 90 = 10 beyond p90
        self.assertEqual(tail_percentile(199), 90)  # p95 leaves 199 - 190 = 9
        self.assertEqual(tail_percentile(200), 95)
        self.assertEqual(tail_percentile(1000), 99)

    def test_summary_reports_median_tail_and_count(self):
        summary = summarise([float(i) for i in range(1, 101)])
        self.assertEqual(summary["n"], 100)
        self.assertEqual(summary["p50"], 50.5)
        self.assertEqual(summary["p90"], 90.0)  # nearest rank: the 90th sample
        self.assertEqual(set(summary), {"n", "p50", "p90"})

    def test_small_sample_has_median_only(self):
        self.assertEqual(summarise([3.0, 1.0, 2.0]), {"n": 3, "p50": 2.0})


class SpanArithmetic(unittest.TestCase):
    def test_union_merges_overlaps_and_skips_empty(self):
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6), (4, 4)]), 4)

    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            span("a", 0.0, 10.0, 1),
            span("b", 1.0, 4.0, 2, parent=1),
            span("c", 2.0, 3.0, 3, parent=2),
            span("b", 6.0, 7.0, 4, parent=1),
        ]
        layers = layer_times(spans)
        self.assertAlmostEqual(layers["a"]["self"], 6.0)
        self.assertAlmostEqual(layers["b"]["self"], 3.0)  # (3 - 1) + 1
        self.assertAlmostEqual(layers["c"]["self"], 1.0)
        self.assertEqual(layers["b"]["calls"], 2)
        # Self times of a single-threaded tree add up to the root's duration.
        self.assertAlmostEqual(sum(layer["self"] for layer in layers.values()), 10.0)

    def test_busy_counts_a_recursive_layer_once(self):
        spans = [
            span("a", 0.0, 10.0, 1),
            span("a", 2.0, 5.0, 2, parent=1),
        ]
        layers = layer_times(spans)
        self.assertAlmostEqual(layers["a"]["busy"], 10.0)
        self.assertAlmostEqual(layers["a"]["self"], 10.0)

    def test_overlapping_children_are_covered_once(self):
        spans = [
            span("run", 0.0, 10.0, 1),
            span("task", 1.0, 6.0, 2, parent=1, pid=2),
            span("task", 2.0, 8.0, 3, parent=1, pid=3),
        ]
        layers = layer_times(spans)
        self.assertAlmostEqual(layers["run"]["self"], 3.0)  # 10 - |[1, 8]|
        self.assertAlmostEqual(layers["task"]["busy"], 11.0)

    def test_worker_roots_are_adopted_by_the_enclosing_span(self):
        spans = [
            span("run", 0.0, 10.0, 1),
            span("run", 20.0, 30.0, 2),
            span("task", 21.0, 25.0, 3, rid=None, pid=7),
            span("inner", 22.0, 23.0, 4, parent=3, rid=None, pid=7),
        ]
        adopted = adopt_orphans(spans, main_pid=1, adopter="run")
        self.assertEqual(adopted[2][4], 2)
        self.assertEqual(adopted[3][4], 3)

    def test_unattributed_is_operation_time_outside_root_spans(self):
        ops = [("r1", 0.0, 10.0), ("r2", 20.0, 25.0)]
        spans = [
            span("root", 1.0, 9.0, 1, rid="r1"),
            span("child", 2.0, 3.0, 2, parent=1, rid="r1"),
            span("root", 20.0, 24.0, 3, rid="r2"),
            span("other", 0.0, 30.0, 4, rid="elsewhere"),
        ]
        self.assertAlmostEqual(unattributed(ops, spans), 3.0)
        layers = layer_times([s for s in spans if s[5] != "elsewhere"])
        attributed = sum(layer["self"] for layer in layers.values())
        self.assertAlmostEqual(attributed + unattributed(ops, spans), 15.0)

    def test_enclosed_gap_is_outer_minus_inner_descendants(self):
        spans = [
            span("service", 0.0, 10.0, 1),
            span("glue", 1.0, 9.0, 2, parent=1),
            span("engine", 4.0, 9.0, 3, parent=2),
            span("service", 20.0, 22.0, 4),
        ]
        self.assertAlmostEqual(enclosed_gap(spans, ["service"], ["engine"]), 5.0 + 2.0)


if __name__ == "__main__":
    unittest.main()
