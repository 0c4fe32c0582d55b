"""Tests of the per-layer derivations, the output checks, the seeded request
generator, and the metric dictionary's agreement with BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import service_mix  # noqa: E402
import spans as sp  # noqa: E402


def task(id, parent, start, end, wave, backend="ctmc"):
    return sp.Span("task:" + backend, "ctmc", start, end, id, parent, 0, 0, {"wave": wave})


class EvalMetrics(unittest.TestCase):
    def test_critical_path_and_pool_use(self):
        execute = sp.Span("execute_plans", "eval", 0.0, 10.0, 1, 0, 0, 0,
                          {"tasks": 4, "waves": 2, "max_wave_width": 3, "threads": 4})
        tree = [execute, task(2, 1, 0.0, 6.0, 0), task(3, 1, 0.0, 2.0, 0),
                task(4, 1, 0.0, 1.0, 0), task(5, 1, 6.0, 10.0, 1)]
        metrics = layers.eval_metrics(tree)
        self.assertAlmostEqual(metrics["eval.critical_path_s"], 6.0 + 4.0)
        self.assertAlmostEqual(metrics["eval.pool_busy_frac"], 13.0 / 40.0)
        self.assertAlmostEqual(metrics["eval.idle_thread_s"], 27.0)
        self.assertEqual(metrics["eval.tasks"], 4)
        self.assertEqual(metrics["eval.waves"], 2)
        self.assertEqual(metrics["eval.task_s_max"], 6.0)

    def test_no_tasks_reads_zero(self):
        metrics = layers.eval_metrics([])
        self.assertEqual(metrics["eval.tasks"], 0)
        self.assertEqual(metrics["eval.pool_busy_frac"], 0.0)

    def test_decay_rate(self):
        checkpoints = [{"values": {"sweeps": 100, "residual": 1e-3}},
                       {"values": {"sweeps": 600, "residual": 1e-6}}]
        self.assertAlmostEqual(layers._decades_per_ksweep(checkpoints), 6.0)
        self.assertEqual(layers._decades_per_ksweep(checkpoints[:1]), 0.0)


def row(fraction, rate, **values):
    base = {"backend": "ctmc", "gprs_fraction": repr(fraction), "rate": repr(rate)}
    base.update({k: repr(v) for k, v in values.items()})
    return base


class Checks(unittest.TestCase):
    def chain_row(self, cdt):
        values = {c: 0.5 for c in checks.MEASURE_COLUMNS}
        values["cdt"] = cdt
        return row(0.02, 0.85, **values)

    def test_chain_tolerance(self):
        reference = [self.chain_row(1.5)]
        self.assertEqual(checks.check_chain([self.chain_row(1.5 * (1 + 5e-7))], reference), [])
        self.assertEqual(len(checks.check_chain([self.chain_row(1.5 * (1 + 5e-6))], reference)),
                         1)

    def test_rows_match_by_key_not_position(self):
        reference = [self.chain_row(1.0), row(0.05, 1.0, **{c: 2.0
                                                             for c in checks.MEASURE_COLUMNS})]
        swapped = [reference[1], reference[0]]
        self.assertEqual(checks.check_chain(swapped, reference), [])
        self.assertEqual(len(checks.check_chain(swapped[:1], reference)), 1)


class RequestGenerator(unittest.TestCase):
    def take(self, seed, n):
        generator = service_mix.RequestGenerator(seed)
        return [generator.next() for _ in range(n)], generator

    def test_same_seed_same_sequence(self):
        self.assertEqual(self.take(5, 200)[0], self.take(5, 200)[0])
        self.assertNotEqual(self.take(5, 50)[0], self.take(6, 50)[0])

    def test_repeats_are_exact_and_recent(self):
        sequence, generator = self.take(9, 1000)
        seen = []
        for text, repeat in sequence:
            if repeat:
                self.assertIn(text, seen[-service_mix.REPEAT_WINDOW:])
            else:
                self.assertNotIn(text, seen)
                seen.append(text)
        self.assertEqual(seen, generator.fresh)
        share = sum(r for _, r in sequence) / len(sequence)
        self.assertAlmostEqual(share, service_mix.REPEAT_SHARE, delta=0.05)

    def test_catalogue_covers_the_backends(self):
        sequence, _ = self.take(3, 400)
        text = "".join(t for t, _ in sequence)
        for backend in ("ctmc", "des", "fixed-point", "fluid", "network-fp"):
            self.assertIn(f'"{backend}"', text)
        for spelling in ('"method"', '"both"', "warm_start"):
            self.assertNotIn(spelling, text)


class Dictionary(unittest.TestCase):
    def test_matches_benchmark_json(self):
        with open(os.path.join(HERE, "..", "metrics.json")) as handle:
            metrics = json.load(handle)["metrics"]
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as handle:
            bench = json.load(handle)
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for kind in ("end_to_end", "per_layer"):
            listed = {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}
            described = {m["name"]: (m["unit"], m["better"]) for m in metrics
                         if m["kind"] == kind}
            self.assertEqual(listed, described)
        for m in metrics:
            self.assertTrue(m["definition"])
            if m["kind"] == "report":
                self.assertNotIn("better", m)
            else:
                self.assertIn(m["better"], ("lower", "higher"))


if __name__ == "__main__":
    unittest.main()
