#!/usr/bin/env python3
"""Unit tests for bench_diff.py's section accounting.

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
Stdlib only.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


def report(quick, labels):
    return {
        "bench": "campaign_scaling",
        "quick": quick,
        "results": [{"label": label, "mean_ns": 1000.0, "elements": 10} for label in labels],
    }


class SectionAccounting(unittest.TestCase):
    def diff(self, base, cur):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, doc in (("base.json", base), ("cur.json", cur)):
                path = os.path.join(d, name)
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = bench_diff.main(["bench_diff.py", *paths])
        return code, out.getvalue()

    def setUp(self):
        os.environ.pop("BENCH_ALLOW_REGRESSION", None)

    def test_quick_run_skips_full_mode_labels(self):
        full = ["engine/threads_1", "engine/threads_2", "engine/threads_4", "engine/threads_8"]
        quick = ["engine/threads_1", "engine/threads_4"]
        code, out = self.diff(report(False, full), report(True, quick))
        self.assertEqual(code, 0, out)
        self.assertIn("not run in quick mode: 'engine/threads_2'", out)
        self.assertIn("not run in quick mode: 'engine/threads_8'", out)
        self.assertNotIn("::error::", out)

    def test_vanished_section_in_same_mode_fails(self):
        for quick in (False, True):
            code, out = self.diff(
                report(quick, ["engine/threads_1", "engine/threads_4"]),
                report(quick, ["engine/threads_1"]),
            )
            self.assertEqual(code, 1, out)
            self.assertIn("::error::bench section removed: 'engine/threads_4'", out)
            self.assertNotIn("not run in quick mode", out)

    def test_full_run_against_quick_baseline_keeps_the_error(self):
        code, out = self.diff(
            report(True, ["engine/threads_1", "engine/threads_4"]),
            report(False, ["engine/threads_1"]),
        )
        self.assertEqual(code, 1, out)
        self.assertIn("::error::bench section removed: 'engine/threads_4'", out)


if __name__ == "__main__":
    unittest.main()
