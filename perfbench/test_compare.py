"""Unit tests for compare.py: python3 -m unittest discover -s perfbench -p 'test_*.py'"""

import unittest

from compare import compare, verdict


class VerdictTest(unittest.TestCase):
    def test_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_parent_iqr(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [110, 111, 109, 110, 112, 108, 110, 111, 109, 99]
        self.assertEqual(verdict(parent, change, "higher", 0.1)["verdict"], "gain")
        # Nine pairs are too few, however clear the win.
        self.assertNotEqual(verdict(parent[:9], change[:9], "higher", 0.1)["verdict"], "gain")
        # Eight wins in ten are not enough.
        change2 = change[:8] + [90, 90]
        self.assertNotEqual(verdict(parent, change2, "higher", 0.1)["verdict"], "gain")

    def test_lower_is_better_metrics_flip_the_sign(self):
        parent = [1.0] * 10
        change = [1.5] * 10
        self.assertEqual(verdict(parent, change, "lower", 0.25)["verdict"], "regressed")
        self.assertEqual(verdict(change, parent, "lower", 0.25)["verdict"], "gain")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [50, 150, 60, 140, 100]
        change = [55, 145, 65, 135, 95]
        self.assertEqual(verdict(parent, change, "higher", 0.1)["verdict"], "unresolved")

    def test_within_bound_holds(self):
        parent = [100, 101, 99, 100]
        change = [99, 100, 98, 101]
        self.assertEqual(verdict(parent, change, "higher", 0.1)["verdict"], "held")


def run(m, correct=True, failed=0, fail_frac=0.0):
    return {"correct": correct, "failed": failed, "metrics": {"m": m, "fail_frac": fail_frac}}


SPEC = {
    "workloads": [{"name": "a"}, {"name": "b"}],
    "end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}],
}


class CompareTest(unittest.TestCase):
    def test_one_row_per_workload_over_shared_seeds(self):
        parent = {("a", 1): run(1.0), ("a", 2): run(1.0), ("b", 1): run(2.0)}
        change = {("a", 1): run(1.0), ("a", 3): run(9.0)}
        rows = compare(parent, change, SPEC)
        self.assertEqual(list(rows), ["a"])
        self.assertEqual(rows["a"]["metrics"]["m"]["pairs"], 1)
        self.assertEqual(rows["a"]["metrics"]["m"]["verdict"], "held")

    def test_a_change_that_fails_more_is_never_a_gain_or_held(self):
        seeds = range(10)
        parent = {("a", s): run(1.0) for s in seeds}
        faster = {("a", s): run(0.5) for s in seeds}
        self.assertEqual(compare(parent, faster, SPEC)["a"]["metrics"]["m"]["verdict"], "gain")
        # One incorrect run on the change's side.
        incorrect = dict(faster)
        incorrect[("a", 3)] = run(0.5, correct=False)
        row = compare(parent, incorrect, SPEC)["a"]
        self.assertEqual(row["health"][1]["incorrect"], 1)
        self.assertEqual(row["metrics"]["m"]["verdict"], "refused")
        # More failed requests, or a higher fail_frac, than the parent.
        more_failed = dict(faster)
        more_failed[("a", 0)] = run(0.5, failed=2)
        self.assertEqual(compare(parent, more_failed, SPEC)["a"]["metrics"]["m"]["verdict"], "refused")
        rolled_back = {("a", s): run(1.0, fail_frac=0.01) for s in seeds}
        self.assertEqual(compare(parent, rolled_back, SPEC)["a"]["metrics"]["m"]["verdict"], "refused")
        # A regression stays a regression.
        slower = dict(incorrect)
        slower.update({("a", s): run(2.0) for s in seeds if s != 3})
        self.assertEqual(compare(parent, slower, SPEC)["a"]["metrics"]["m"]["verdict"], "regressed")
        # The parent's own incorrect runs do not refuse the change.
        parent_bad = dict(parent)
        parent_bad[("a", 5)] = run(1.0, correct=False)
        self.assertEqual(compare(parent_bad, faster, SPEC)["a"]["metrics"]["m"]["verdict"], "gain")


if __name__ == "__main__":
    unittest.main()
