"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from perfbench.stats import percentile, tail_percentile  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Tracer, exclusive_times, layer_table)


def span(sid, parent, name, start, end, trace="t"):
    return [sid, parent, trace, name, start, end]


class PercentileRule(unittest.TestCase):

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), 50.0)
        self.assertEqual(tail_percentile(99), 50.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(999), 90.0)
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(9999), 99.0)
        self.assertEqual(tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 90), 90)
        self.assertEqual(percentile(values[::-1], 99), 99)
        self.assertEqual(percentile([7.0], 99.9), 7.0)


class HostSpeedFactor(unittest.TestCase):

    def test_probes_around_a_job(self):
        speed = HostSpeed()
        speed.starts = [0.0, 1.0, 2.0, 3.0]
        speed.seconds = [1e-3, 2e-3, 4e-3, 8e-3]
        # A job in (1.0, 2.0) is bracketed by the probes at 1.0 and 2.0.
        self.assertAlmostEqual(speed.factor(1.1, 1.9),
                               REFERENCE_S * 2 / 6e-3)
        # Probes inside the job count too.
        self.assertAlmostEqual(speed.factor(0.5, 2.5),
                               REFERENCE_S * 4 / 15e-3)
        self.assertAlmostEqual(speed.factor(3.5, 4.0), REFERENCE_S / 8e-3)


class SelfTime(unittest.TestCase):

    def test_nested_spans(self):
        spans = [span(1, None, "job", 0.0, 10.0),
                 span(2, 1, "host", 1.0, 4.0),
                 span(3, 2, "core", 2.0, 3.0),
                 span(4, 1, "host", 5.0, 9.0)]
        own, unattributed = exclusive_times(spans, 0.0, 12.0)
        self.assertEqual(own, {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})
        self.assertEqual(unattributed, 2.0)

    def test_table_adds_up_to_wall(self):
        spans = [span(1, None, "job", 0.5, 10.0),
                 span(2, 1, "host", 1.0, 4.0),
                 span(3, 2, "core", 2.0, 3.0),
                 span(4, 1, "host", 5.0, 9.0),
                 span(5, None, "job", 10.0, 11.0)]
        table = layer_table(spans, 0.0, 12.0)
        rows = table["rows"]
        self.assertEqual(rows["host"], {"calls": 2, "busy_s": 7.0,
                                        "self_s": 6.0})
        self.assertEqual(rows["job"]["self_s"], 3.5)
        total = sum(r["self_s"] for r in rows.values())
        self.assertAlmostEqual(total + table["unattributed_s"],
                               table["wall_s"])

    def test_overlapping_spans_go_to_the_latest_started(self):
        # Two interleaved requests: b starts while a is still open.
        spans = [span(1, None, "a", 0.0, 6.0, "A"),
                 span(2, None, "b", 2.0, 8.0, "B"),
                 span(3, 1, "a.child", 5.0, 6.0, "A")]
        own, unattributed = exclusive_times(spans, 0.0, 8.0)
        self.assertEqual(own, {1: 2.0, 2: 5.0, 3: 1.0})
        self.assertEqual(unattributed, 0.0)

    def test_spans_outside_the_window_are_clipped(self):
        spans = [span(1, None, "job", -1.0, 1.0),
                 span(2, None, "job", 3.0, 5.0)]
        own, unattributed = exclusive_times(spans, 0.0, 4.0)
        self.assertEqual(own, {1: 1.0, 2: 1.0})
        self.assertEqual(unattributed, 2.0)


class TracerParents(unittest.TestCase):

    def test_call_nesting_and_job_keys(self):
        tracer = Tracer()

        class Layer:
            def outer(self, job_id):
                return self.inner(job_id)

            def inner(self, job_id):
                return job_id

        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner", key=lambda _s, job: job)
        try:
            root = tracer.open("job", key="j1", trace="j1")
            Layer().outer("j1")
            tracer.close(root)
            Layer().inner("j2")
        finally:
            tracer.uninstall()
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s[3], []).append(s)
        job, = by_name["job"]
        outer, = by_name["outer"]
        keyed, unkeyed = by_name["inner"]
        self.assertEqual(outer[1], job[0])
        # A job key wins over the call stack: the job's innermost open
        # span is the parent.
        self.assertEqual(keyed[1], job[0])
        self.assertEqual(keyed[2], "j1")
        self.assertEqual((unkeyed[1], unkeyed[2]), (None, "j2"))
        self.assertFalse(hasattr(Layer.outer, "__wrapped__"))


class SeedDeterminism(unittest.TestCase):

    @staticmethod
    def inputs(workload):
        from perfbench import workloads
        if isinstance(workload, workloads.FarmTcp):
            workload.close()
            return [[(e.payload, e.golden) for e in pool]
                    for pool in workload.pools]
        if isinstance(workload, workloads.LanesFir):
            return workload.inputs, workload.goldens
        return workload.blocks, workload.goldens

    def test_same_seed_same_inputs(self):
        from perfbench.workloads import WORKLOADS
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                first = self.inputs(cls(7))
                self.assertEqual(first, self.inputs(cls(7)))
                self.assertNotEqual(first, self.inputs(cls(8)))


if __name__ == "__main__":
    unittest.main()
