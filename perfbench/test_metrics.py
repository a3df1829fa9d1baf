"""Tests of the benchmark's statistics and checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics as m
import run


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        value, pct, n = m.tail(list(range(1, 101)))
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(n, 100)
        self.assertEqual(sum(1 for v in range(1, 101) if v > value), 10)

    def test_smallest_sample_set_that_supports_a_tail(self):
        value, pct, n = m.tail([5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11])
        self.assertEqual((value, n), (1, 11))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_no_tail_without_eleven_samples(self):
        self.assertIsNone(m.tail(list(range(10))))

    def test_order_does_not_matter(self):
        self.assertEqual(m.tail(list(range(50, 0, -1))), m.tail(list(range(1, 51))))

    def test_p99_needs_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            m.p99_with_support(list(range(999)))
        self.assertEqual(m.p99_with_support(list(range(1, 1001))), 990)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = [4, 1, 3, 2]
        self.assertEqual(m.percentile(values, 50), 2)
        self.assertEqual(m.percentile(values, 75), 3)
        self.assertEqual(m.percentile(values, 100), 4)
        self.assertEqual(m.percentile(values, 0), 1)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            m.percentile([], 50)
        with self.assertRaises(ValueError):
            m.median([])

    def test_median(self):
        self.assertEqual(m.median([3, 1, 2]), 2)
        self.assertEqual(m.median([4, 1, 3, 2]), 2.5)


class Names(unittest.TestCase):
    def test_legal_names(self):
        for name in ("p99_ms", "serve.queue_ms.p50", "markov.slem_ms.dblp",
                     "serve-read", "0x", "a" * 64):
            self.assertEqual(m.validate_name(name), name)

    def test_illegal_names(self):
        for name in ("", "_x", ".x", "-x", "a b", "a/b", "p99%", "ü", "a" * 65,
                     None, 3):
            with self.assertRaises(ValueError, msg=repr(name)):
                m.validate_name(name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "ns"):
            m.validate_unit(unit)
        for unit in ("", "milli seconds", "a" * 17):
            with self.assertRaises(ValueError):
                m.validate_unit(unit)

    def test_benchmark_file_names_are_legal_and_unique(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in spec[group]:
                m.validate_name(metric["name"])
                m.validate_unit(metric["unit"])
                names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


class FailureRate(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(m.error_rate(1, 10), 0.1)
        self.assertEqual(m.error_rate(0, 7), 0.0)
        self.assertEqual(m.error_rate(4, 4), 1.0)

    def test_dblp_cap_counts_against_all_paper_operations(self):
        # Two datasets x five estimators, one unconverged SLEM.
        self.assertEqual(m.error_rate(1, 2 * 5), 0.1)

    def test_impossible_counts(self):
        with self.assertRaises(ValueError):
            m.error_rate(0, 0)
        with self.assertRaises(ValueError):
            m.error_rate(3, 2)
        with self.assertRaises(ValueError):
            m.error_rate(-1, 2)
        with self.assertRaises(TypeError):
            m.error_rate(1.0, 2)


def step(latencies, rate=1000, failed=0, first_lag=0.01, last_lag=0.01):
    """An open-loop step with these sampled latencies and failed reads."""
    latencies = list(latencies) + [-1.0] * failed
    return {"rate": rate, "latency_ms": latencies, "failed": failed,
            "first_quarter_lag_ms": first_lag, "last_quarter_lag_ms": last_lag}


class MaxQps(unittest.TestCase):
    LIMIT = 2.0

    def test_highest_rate_under_the_limit(self):
        steps = [step([0.1] * 1000, rate=1000), step([0.5] * 1000, rate=2000),
                 step([3.0] * 1000, rate=4000)]
        self.assertEqual(m.max_qps(steps, self.LIMIT), 2000)

    def test_failures_miss_the_limit(self):
        # p99 of 1000 reads tolerates 10 misses, not 11.
        ok = [0.1] * 989
        self.assertTrue(m.step_meets_limit(step(ok + [0.1] * 11), self.LIMIT))
        self.assertTrue(m.step_meets_limit(step(ok + [0.1], failed=10), self.LIMIT))
        self.assertFalse(m.step_meets_limit(step(ok, failed=11), self.LIMIT))

    def test_step_p99_needs_ten_samples_beyond(self):
        self.assertEqual(m.step_p99(step([0.1] * 989 + [50.0] * 11)), 50.0)
        with self.assertRaises(ValueError):
            m.step_p99(step([0.1] * 999))

    def test_growing_backlog_fails_even_under_the_limit(self):
        growing = step([0.1] * 1000, first_lag=0.01, last_lag=1.5)
        self.assertTrue(m.backlog_growing(growing, self.LIMIT))
        self.assertEqual(m.max_qps([growing], self.LIMIT), 0)

    def test_a_miss_ends_the_ladder(self):
        steps = [step([0.1] * 1000, rate=1000), step([5.0] * 1000, rate=2000),
                 step([0.1] * 1000, rate=4000)]
        self.assertEqual(m.max_qps(steps, self.LIMIT), 1000)


class PaperCheck(unittest.TestCase):
    @staticmethod
    def raw(dblp="0xa", epinion="0xb", in_range=True):
        rep = {"dblp": {"digest": dblp, "in_range": in_range},
               "epinion": {"digest": epinion, "in_range": True}}
        return {"repetitions": [rep, rep]}

    def test_matching_golden(self):
        problems, _ = run.check_paper(self.raw(), 7, {"7": {"dblp": "0xa", "epinion": "0xb"}})
        self.assertEqual(problems, [])

    def test_golden_mismatch_fails(self):
        problems, _ = run.check_paper(self.raw(), 7, {"7": {"dblp": "0xc", "epinion": "0xb"}})
        self.assertEqual(len(problems), 1)

    def test_runs_that_disagree_fail(self):
        raw = self.raw()
        raw["repetitions"].append({"dblp": {"digest": "0xd", "in_range": True},
                                   "epinion": {"digest": "0xb", "in_range": True}})
        problems, _ = run.check_paper(raw, 7, {})
        self.assertEqual(len(problems), 1)

    def test_mu_out_of_range_fails(self):
        problems, _ = run.check_paper(self.raw(in_range=False), 7, {})
        self.assertEqual(len(problems), 1)


class ServeCheck(unittest.TestCase):
    @staticmethod
    def check(checked=14, mismatched=0, not_checked=0):
        return {"checked": checked, "mismatched": mismatched,
                "not_checked": not_checked}

    def test_fresh_matching_answers_pass(self):
        raw = {"check_before": self.check(), "check_after": self.check(),
               "final_graph_matches": True}
        self.assertEqual(run.check_serve(raw)[0], [])

    def test_mismatch_fails(self):
        self.assertEqual(len(run.check_serve({"check_after": self.check(mismatched=1)})[0]), 1)

    def test_degraded_answer_after_refresh_fails(self):
        raw = {"check_after": self.check(checked=12, not_checked=2)}
        self.assertEqual(len(run.check_serve(raw)[0]), 1)

    def test_served_graph_must_match_the_schedule(self):
        raw = {"check_after": self.check(), "final_graph_matches": False}
        self.assertEqual(len(run.check_serve(raw)[0]), 1)


if __name__ == "__main__":
    unittest.main()
