"""Tests of the benchmark's own checkers.

    python3 -m unittest discover -s bench -p 'test_*.py'

Each checker accepts small hand-computed cases and rejects a deliberately
wrong input.
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from checks import CheckFailed, StoredResult  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAST_STEP_SCAN = """\
resource;last_step_scan;bucket;{RAM_2P_BRAM}
resource;last_step_scan;sum;{RAM_2P_BRAM}
array_partition;last_step_scan;bucket;1;{cyclic,block};{1->512,pow_2}
array_partition;last_step_scan;sum;1;{cyclic,block};{1->128,pow_2}@bind_a
unroll;last_step_scan;last_1;{1->128,pow_2}@bind_a
unroll;last_step_scan;last_2;{1,2,4,8,16}
clock;{10}
"""


class DescriptorArithmetic(unittest.TestCase):
    def test_hand_sizes(self):
        # 2 x 10 (bucket) x 2 (sum type) x 8 (bind a) x 5 = 1600
        self.assertEqual(checks.space_size(LAST_STEP_SCAN), 1600)
        unbound = LAST_STEP_SCAN.replace("@bind_a", "")
        self.assertEqual(checks.space_size(unbound), 12800)
        self.assertEqual(checks.expand_set("{1->12,div}"), (1, 2, 3, 4, 6, 12))
        self.assertEqual(checks.expand_set("{4->32,pow_2}"), (4, 8, 16, 32))
        self.assertEqual(checks.clock_value(LAST_STEP_SCAN), 10.0)

    def test_workload_sizes(self):
        sizes = {name: checks.space_size(w.csd_text) for name, w in WORKLOADS.items()}
        self.assertEqual(
            sizes, {"campaign": 4704, "space-large": 37632, "strategy-replay": 2016}
        )

    def test_rejects_wrong_cardinality(self):
        checks.check_cardinality(LAST_STEP_SCAN, stored=1600)
        with self.assertRaises(CheckFailed):
            checks.check_cardinality(LAST_STEP_SCAN, stored=1600, query=12800)


def results(*config_ids, clock=10.0):
    return [StoredResult(c, c, "ok", clock, None) for c in config_ids]


class Campaign(unittest.TestCase):
    def check(self, stored, attempted=3, pending=7, in_flight=2, clock=10.0):
        checks.check_campaign(stored, attempted, pending, 10, in_flight, 2, clock)

    def test_accepts(self):
        self.check(results(1, 2, 3))

    def test_rejects_dropped_result(self):
        with self.assertRaises(CheckFailed):
            self.check(results(1, 2))

    def test_rejects_duplicated_result(self):
        with self.assertRaises(CheckFailed):
            self.check(results(1, 2, 2), attempted=3)

    def test_rejects_failed_result(self):
        stored = results(1, 2) + [StoredResult(3, 3, "synth_error", 10.0, None)]
        with self.assertRaises(CheckFailed):
            self.check(stored)

    def test_rejects_wrong_pending_jobs_and_clock(self):
        with self.assertRaises(CheckFailed):
            self.check(results(1, 2, 3), pending=8)
        with self.assertRaises(CheckFailed):
            self.check(results(1, 2, 3), in_flight=3)
        with self.assertRaises(CheckFailed):
            self.check(results(1, 2, 3), clock=5.0)

    def test_mock_shape(self):
        rows = [("g", 1, 100, 10), ("g", 2, 50, 20), ("g", 2, 50, 20), ("h", 1, 7, 1)]
        checks.check_mock_monotone(rows)
        with self.assertRaises(CheckFailed):
            checks.check_mock_monotone(rows + [("g", 4, 60, 30)])
        with self.assertRaises(CheckFailed):
            checks.check_mock_monotone(rows + [("g", 4, 40, 15)])


POINTS = [(1, 5), (2, 3), (3, 3), (4, 1), (5, 5), (2, 3)]
FRONT = [(1, 5), (2, 3), (4, 1)]


class Fronts(unittest.TestCase):
    def test_accepts_hand_front(self):
        self.assertEqual(checks.nondominated(POINTS), FRONT)
        checks.check_front(FRONT, POINTS)

    def test_rejects_dominated_point_in_front(self):
        with self.assertRaises(CheckFailed):
            checks.check_front([(1, 5), (2, 3), (3, 3), (4, 1)], POINTS)

    def test_rejects_missing_or_unsorted_front(self):
        with self.assertRaises(CheckFailed):
            checks.check_front([(1, 5), (4, 1)], POINTS)
        with self.assertRaises(CheckFailed):
            checks.check_front([(2, 3), (1, 5), (4, 1)], POINTS)

    def test_three_objectives(self):
        points = [(1, 2, 3), (2, 1, 3), (1, 2, 4), (3, 3, 1), (3, 3, 3)]
        self.assertEqual(checks.nondominated(points), [(1, 2, 3), (2, 1, 3), (3, 3, 1)])


class Indicators(unittest.TestCase):
    def test_hand_adrs(self):
        self.assertEqual(checks.adrs_value([(1, 1)], [(2, 1)]), 1.0)
        # (1, 2) is matched; (2, 1) is 1/1 off in the second objective
        self.assertEqual(checks.adrs_value([(1, 2), (2, 1)], [(1, 2)]), 0.5)
        self.assertEqual(checks.adrs_value(FRONT, POINTS), 0.0)

    def test_hand_area(self):
        # strips 1 x 1 + 1 x 2 + 1 x 3
        self.assertEqual(checks.staircase_area([(1, 3), (2, 2), (3, 1), (3, 3)], (4, 4)), 6)

    def test_rejects_perturbed_value(self):
        checks.require_close(0.5, 0.5 * (1 + 1e-12), "ADRS")
        with self.assertRaises(CheckFailed):
            checks.require_close(0.5 * (1 + 1e-6), 0.5, "ADRS")

    def test_agree_with_program(self):
        from hlsdse import analytics

        rng = random.Random(7)
        for dim in (2, 3):
            pts = [tuple(float(rng.randint(1, 40)) for _ in range(dim)) for _ in range(300)]
            design = [analytics.DesignPoint(p, i) for i, p in enumerate(pts)]
            front = [p.values for p in analytics.pareto_front(design)]
            self.assertEqual(front, checks.nondominated(pts))
            approx = [analytics.DesignPoint(p) for p in pts[::7]]
            self.assertAlmostEqual(
                analytics.adrs([analytics.DesignPoint(p) for p in front], approx),
                checks.adrs_value(front, [p.values for p in approx]),
                places=12,
            )
        ref = analytics.DesignPoint((41.0, 41.0))
        flat = [analytics.DesignPoint(p[:2]) for p in pts]
        self.assertAlmostEqual(
            analytics.hypervolume_2d(flat, ref),
            checks.staircase_area([p.values for p in flat], ref.values),
            places=9,
        )


class Evaluations(unittest.TestCase):
    lookup = {10: (1, 5), 11: (2, 3), 12: (3, 3), 13: (4, 1)}
    reference = [(1, 5), (2, 3), (4, 1)]
    trace = [(12, (3, 3)), (13, (4, 1))]
    # (1, 5) is 2/1 off via (3, 3); (2, 3) is 1/2 off; (4, 1) is matched
    adrs = (2 + 0.5 + 0) / 3

    def check(self, trace=None, budget=2, used=2, adrs=None):
        checks.check_eval(
            self.trace if trace is None else trace, budget, used,
            self.adrs if adrs is None else adrs, self.reference, self.lookup,
        )

    def test_accepts(self):
        self.check()

    def test_rejects_perturbed_adrs(self):
        with self.assertRaises(CheckFailed):
            self.check(adrs=self.adrs * 1.001)

    def test_rejects_budget_and_repeats(self):
        with self.assertRaises(CheckFailed):
            self.check(budget=3)
        with self.assertRaises(CheckFailed):
            self.check(trace=[(12, (3, 3)), (12, (3, 3))])
        with self.assertRaises(CheckFailed):
            self.check(trace=[(12, (3, 3)), (13, (4, 2))])


class ExportImport(unittest.TestCase):
    lines = {"benchmark": 1, "configuration": 4, "implementation": 2}

    def test_accepts(self):
        checks.check_import(self.lines, dict(self.lines))
        checks.check_same_points([(1, 2), (1, 2), (3, 4)], [(3, 4), (1, 2), (1, 2)], "x")

    def test_rejects_missing_row(self):
        with self.assertRaises(CheckFailed):
            checks.check_import(self.lines, {**self.lines, "configuration": 3})
        with self.assertRaises(CheckFailed):
            checks.check_same_points([(1, 2), (3, 4)], [(1, 2), (1, 2), (3, 4)], "x")


if __name__ == "__main__":
    unittest.main()
