"""Tests of the benchmark itself.

    python3 benchmarks/selftest.py

Kept out of the repository's pytest run (the file name does not match
``test_*.py``) because they test the harness, not dinfh.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dinfh import acceptance, oracle, spectrum, traces  # noqa: E402


def encode_inputs(inputs: list) -> bytes:
    """Canonical bytes of an input pool."""
    return b"\0".join(repr(item).encode() for item in inputs)


def _span(name, start, end, parent, work=None, op=0):
    return [name, start, end, parent, op, work]


class InputsAreSeeded(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a = encode_inputs(wl.make_inputs(7))
                b = encode_inputs(wl.make_inputs(7))
                c = encode_inputs(wl.make_inputs(8))
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("b", 3.0, 6.0, 0),  # overlaps a: the union counts once
            _span("a.child", 2.0, 3.0, 1),
            _span("late", 9.0, 12.0, 0),  # clipped to the parent's end
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_covered_union(self):
        self.assertEqual(tracing.covered([(0, 2), (1, 3), (5, 6)], 0, 10), 4)
        self.assertEqual(tracing.covered([], 0, 10), 0)


class Failures(unittest.TestCase):
    def test_counted_once_at_the_innermost_span(self):
        t = tracing.Tracer((ValueError,))

        def fail():
            raise ValueError("boom")

        inner = t.wrap("oracle.inner", fail)
        outer = t.wrap("traces.outer", lambda: inner())
        with self.assertRaises(ValueError):
            outer()
        self.assertEqual(dict(t.failures), {"oracle.failed.ValueError": 1})
        self.assertEqual([s[0] for s in t.spans], ["traces.outer", "oracle.inner"])
        self.assertEqual(t.spans[1][tracing.PARENT], 0)


class PerLayer(unittest.TestCase):
    def _tracer(self, spans):
        t = tracing.Tracer((Exception,))
        t.spans = spans
        return t

    def test_doubling_ratios_and_coverage(self):
        spans = [
            _span("op", 0.0, 10.0, -1),
            _span("traces.loop_period", 0.0, 9.5, 0),
            _span("traces.loop_coefficients", 0.0, 3.0, 1, work=512),
            _span("oracle.pencil_symbol", 0.0, 1.0, 2, work=512 * 64),
            _span("oracle.pencil_symbol", 1.0, 2.0, 2, work=512 * 128),
            _span("traces.loop_coefficients", 3.0, 9.0, 1, work=1024),
            _span("oracle.pencil_symbol", 3.0, 5.0, 5, work=1024 * 64),
            _span("oracle.pencil_symbol", 5.0, 8.0, 5, work=1024 * 128),
        ]
        m = layers.per_layer_metrics(self._tracer(spans), 1)
        self.assertAlmostEqual(m["traces.loop_period.steps_useful_ratio"], 1024 / 1536)
        self.assertAlmostEqual(m["traces.loop_coefficients.useful_ratio"], 2 / 3)
        self.assertAlmostEqual(m["traces.loop_period.self_s"], 0.5)
        self.assertAlmostEqual(m["traces.loop_coefficients.self_s"], 2.0)
        self.assertAlmostEqual(m["trace.coverage"], 0.95)
        self.assertEqual(m["oracle.pencil_symbol.calls"], 4)

    def test_declared_metrics_are_computed(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        computed = set(layers.per_layer_metrics(self._tracer([]), 1))
        declared = {m["name"] for m in spec["per_layer"]}
        self.assertEqual({n for n in declared - computed if ".failed." not in n}, set())
        self.assertEqual(computed - declared, set())
        result = {"ops": [{"seconds": 1.0, "error": None, "n_problems": 0}],
                  "peak_rss_mb": 1.0, "rss_ops": 1}
        self.assertEqual(set(run.end_to_end(result, [0.5])),
                         {m["name"] for m in spec["end_to_end"]})


class Install(unittest.TestCase):
    def test_every_binding_is_wrapped(self):
        # the wrappers stay installed; they only record spans
        original = spectrum.membership_grid
        tracer = layers.install_tracer()
        self.assertIsNot(spectrum.membership_grid, original)
        self.assertIs(traces.membership_grid, spectrum.membership_grid)
        self.assertIs(acceptance.membership_grid, spectrum.membership_grid)
        self.assertIs(traces.symbol_integrand, oracle.symbol_integrand)
        self.assertIs(acceptance.CRITERIA[2], acceptance.criterion_2)
        acceptance.CRITERIA[2](acceptance.RunConfig())
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names[0], "acceptance.criterion_2")
        self.assertIn("spectrum.membership", names)
        self.assertIn("oracle.margin_grid", names)


if __name__ == "__main__":
    unittest.main()
