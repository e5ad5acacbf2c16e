#!/usr/bin/env python3
"""Unit tests for check_live_stats.py.

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
Stdlib only.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_live_stats  # noqa: E402


def campaign(done_seq, total=10):
    lines = []
    for seq, done in enumerate(done_seq):
        final = seq == len(done_seq) - 1
        lines.append(
            {
                "type": "live",
                "seq": seq,
                "elapsed_ms": 5 * seq,
                "tests_done": done,
                "tests_total": total,
                "final": final,
            }
        )
    return lines


def fuzz(execs_seq, total=96):
    return [
        {
            "type": "fuzz_live",
            "elapsed_ms": 3 * n,
            "round": n,
            "execs": execs,
            "execs_total": total,
            "final": n == len(execs_seq) - 1,
        }
        for n, execs in enumerate(execs_seq)
    ]


def check(docs):
    return check_live_stats.validate([json.dumps(d) + "\n" for d in docs])


class LiveStreams(unittest.TestCase):
    def test_valid_campaign_and_fuzz_streams_pass(self):
        self.assertEqual(check(campaign([0, 4, 10])), [])
        self.assertEqual(check(fuzz([32, 64, 96, 96])), [])

    def test_invalid_json_is_reported(self):
        errors = check_live_stats.validate(['{"type":"live"\n'])
        self.assertIn("invalid JSON", errors[0])

    def test_seq_gap_and_time_going_back_are_reported(self):
        docs = campaign([0, 4, 10])
        docs[2]["seq"] = 5
        self.assertIn("seq 5, expected 2", check(docs)[0])
        docs = campaign([0, 4, 10])
        docs[1]["elapsed_ms"] = 100
        self.assertIn("elapsed_ms went back", check(docs)[0])
        self.assertIn("execs went back", check(fuzz([64, 32, 96]))[0])

    def test_final_line_must_be_unique_and_last(self):
        docs = campaign([0, 4, 10])
        docs[1]["final"] = True
        self.assertIn("exactly one final line, got 2", check(docs)[0])
        docs = campaign([0, 10, 10])
        docs[1]["final"], docs[2]["final"] = True, False
        self.assertIn("is not the last line", check(docs)[0])

    def test_unfinished_run_is_reported(self):
        self.assertIn("tests_done 7 != tests_total 10", check(campaign([0, 7]))[0])
        self.assertIn("execs 64 != execs_total 96", check(fuzz([32, 64]))[0])

    def test_mixed_or_unknown_types_and_missing_keys(self):
        self.assertIn("unknown type", check([{"type": "metrics"}])[0])
        docs = campaign([0, 10])
        docs[1]["type"] = "fuzz_live"
        self.assertIn("in a 'live' stream", check(docs)[0])
        docs = campaign([0, 10])
        del docs[1]["tests_total"]
        self.assertIn("missing keys ['tests_total']", check(docs)[0])
        self.assertIn("empty stream", check_live_stats.validate(["\n"])[0])


if __name__ == "__main__":
    unittest.main()
