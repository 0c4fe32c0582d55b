"""Span model tests: nesting and self time, grouping by request id, the
percentile rule, and the Chrome trace round trip.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spans as sp  # noqa: E402


def span(id, parent, start, end, layer="eval", request=0, name=None):
    return sp.Span(name or f"s{id}", layer, start, end, id, parent, 0, request)


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        tree = [span(1, 0, 0.0, 10.0, "campaign"),
                span(2, 1, 1.0, 4.0),
                span(3, 2, 2.0, 3.0, "ctmc"),
                span(4, 1, 5.0, 9.0)]
        own = sp.self_times(tree)
        self.assertAlmostEqual(own[1], 10.0 - 3.0 - 4.0)
        self.assertAlmostEqual(own[2], 3.0 - 1.0)
        self.assertAlmostEqual(own[3], 1.0)
        self.assertAlmostEqual(own[4], 4.0)

    def test_parallel_children_count_once(self):
        # Four tasks on four threads under one execute span: their union,
        # not their sum, is subtracted, so the parent never goes negative.
        tree = [span(1, 0, 0.0, 10.0)] + [span(i, 1, 1.0, 8.0, "ctmc") for i in (2, 3, 4, 5)]
        own = sp.self_times(tree)
        self.assertAlmostEqual(own[1], 3.0)
        self.assertAlmostEqual(sum(own[i] for i in (2, 3, 4, 5)), 28.0)

    def test_overlapping_children_are_merged(self):
        tree = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 5.0), span(3, 1, 4.0, 6.0)]
        self.assertAlmostEqual(sp.self_times(tree)[1], 10.0 - 5.0)

    def test_child_outside_parent_is_clipped(self):
        tree = [span(1, 0, 2.0, 4.0), span(2, 1, 1.0, 3.0)]
        self.assertAlmostEqual(sp.self_times(tree)[1], 1.0)

    def test_self_time_by_layer(self):
        tree = [span(1, 0, 0.0, 10.0, "campaign"), span(2, 1, 0.0, 6.0, "eval"),
                span(3, 2, 0.0, 5.0, "sim")]
        totals = sp.self_time_by_layer(tree)
        self.assertAlmostEqual(totals["campaign"], 4.0)
        self.assertAlmostEqual(totals["eval"], 1.0)
        self.assertAlmostEqual(totals["sim"], 5.0)
        self.assertAlmostEqual(sum(totals.values()), 10.0)


class Grouping(unittest.TestCase):
    def test_spans_group_by_request_in_start_order(self):
        tree = [span(1, 0, 5.0, 6.0, request=7), span(2, 0, 1.0, 2.0, request=3),
                span(3, 0, 0.5, 3.0, request=7), span(4, 3, 0.6, 0.7, request=7)]
        groups = sp.group_by_request(tree)
        self.assertEqual(sorted(groups), [3, 7])
        self.assertEqual([s.id for s in groups[7]], [3, 4, 1])
        self.assertEqual([s.id for s in groups[3]], [2])


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(sp.percentile(samples, 50), 50)
        self.assertEqual(sp.percentile(samples, 90), 90)
        self.assertEqual(sp.percentile(samples, 100), 100)
        self.assertEqual(sp.percentile([4.0], 90), 4.0)
        with self.assertRaises(ValueError):
            sp.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        # n = 100: p90 leaves exactly 10 samples above it, p95 only 5.
        self.assertEqual(sp.tail_percentile(list(range(100))), (90.0, 89, 100))
        # n = 99: p90's rank is 90, leaving 9 above, so p75 is the highest.
        self.assertEqual(sp.tail_percentile(list(range(99)))[0], 75.0)
        # n = 1000: p99 leaves 10 above.
        self.assertEqual(sp.tail_percentile(list(range(1000)))[0], 99.0)
        # n = 10000: p99.9 leaves 10 above.
        self.assertEqual(sp.tail_percentile(list(range(10000)))[0], 99.9)

    def test_tail_reports_count_when_too_few(self):
        self.assertEqual(sp.tail_percentile(list(range(15))), (None, None, 15))
        self.assertEqual(sp.tail_percentile(list(range(20)))[0], 50.0)

    def test_median(self):
        self.assertEqual(sp.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(sp.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(sp.median([]), 0.0)


class ChromeRoundTrip(unittest.TestCase):
    def test_spans_and_counters_survive(self):
        tree = [span(1, 0, 0.5, 2.5, "campaign", request=4, name="campaign"),
                span(2, 1, 1.0, 2.0, "ctmc", request=4, name="task:ctmc")]
        tree[1].args["wave"] = 3
        document = {"traceEvents": sp.chrome_events(tree, 1) + [
            {"name": "residual", "ph": "C", "ts": 1.5e6, "pid": 1, "tid": 0,
             "args": {"span": 2, "sweeps": 10, "residual": 1e-3}}],
            "otherData": {"points": []}}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            with open(path, "w") as handle:
                json.dump(document, handle)
            loaded, counters, other = sp.load_chrome(path)
        self.assertEqual([(s.id, s.parent, s.layer, s.request) for s in loaded],
                         [(1, 0, "campaign", 4), (2, 1, "ctmc", 4)])
        self.assertAlmostEqual(loaded[1].duration, 1.0)
        self.assertEqual(loaded[1].args, {"wave": 3})
        self.assertEqual(counters[0]["span"], 2)
        self.assertEqual(counters[0]["values"], {"sweeps": 10, "residual": 1e-3})
        self.assertEqual(other, {"points": []})


if __name__ == "__main__":
    unittest.main()
