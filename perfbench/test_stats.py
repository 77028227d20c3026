"""Unit tests of perfbench/stats.py; run with
`python3 perfbench/run.py --self-test`."""

import unittest

import stats


class TailTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100, shuffled order is fine
        samples.reverse()
        pct, value = stats.tail(samples)
        self.assertEqual(value, 90)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_nearest_rank_of_uneven_count(self):
        samples = [float(i) for i in range(1, 26)]  # 25 samples
        pct, value = stats.tail(samples)
        self.assertEqual(value, 15.0)
        self.assertAlmostEqual(pct, 60.0)
        self.assertEqual(stats.nearest_rank(samples, pct), value)

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(stats.tail([3, 1, 2]), (50.0, 2))


class SelfTimeTest(unittest.TestCase):
    def test_span_minus_children(self):
        spans = [
            (-1, 0, 100),  # root
            (0, 10, 30),   # child
            (0, 50, 60),   # child
            (1, 12, 20),   # grandchild: counts against its parent only
        ]
        self.assertEqual(stats.self_times(spans), [70, 12, 10, 8])

    def test_overlapping_children_count_once(self):
        spans = [(-1, 0, 100), (0, 10, 50), (0, 40, 70), (0, 90, 120)]
        # Children cover [10, 70) and [90, 100) of the root.
        self.assertEqual(stats.self_times(spans)[0], 30)


class PairWinsTest(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        parent = [10.0, 10.0, 10.0, 10.0, 10.0]
        change = [9.0, 10.0, 11.0, 8.0, 10.0]
        self.assertEqual(stats.pair_wins(parent, change, "lower"), (2, 1, 2))
        self.assertEqual(stats.pair_wins(parent, change, "higher"), (1, 2, 2))

    def test_verdicts(self):
        parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0, 10.1]
        faster = [v * 0.8 for v in parent]
        self.assertEqual(stats.verdict(parent, faster, "lower", 0.1),
                         "improved")
        slower = [v * 1.2 for v in parent]
        self.assertEqual(stats.verdict(parent, slower, "lower", 0.1),
                         "regressed")
        self.assertEqual(stats.verdict(parent, parent, "lower", 0.1),
                         "within bound")
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(stats.verdict(noisy, noisy, "lower", 0.1),
                         "unresolved")


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, med, q3 = stats.quartiles(values)
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)


if __name__ == "__main__":
    unittest.main()
