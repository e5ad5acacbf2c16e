#!/usr/bin/env python3
"""Diff two BENCH_*.json reports and fail on per-test-time regressions.

Usage: bench_diff.py BASELINE.json CURRENT.json [--threshold 0.25]

Compares mean time per element (mean_ns / elements, falling back to raw
mean_ns) for every label present in BOTH reports. Labels above the
regression threshold produce a GitHub `::error::` annotation and a
non-zero exit code, so the CI bench-smoke job blocks the merge.

Labels present only in the current report are listed as added but never
compared (a new bench section is not a regression). Labels present only
in the baseline are a BLOCKING error: a committed-baseline section that
silently vanishes from the current run usually means a bench was renamed
or dropped without refreshing the baseline, and every measurement it
guarded goes dark. Remove it from the committed baseline deliberately
(or set the escape hatch) to land such a change.

The one exception is a quick report (`"quick": true`, e.g. CI's
`BENCH_QUICK=1` run) diffed against a full-mode baseline (`"quick":
false`): quick mode runs a subset of the sections (fewer thread counts),
so the full-mode labels it lacks are listed as "not run in quick mode"
notices, not errors. Two reports of the same mode keep the error.

Escape hatch: set `BENCH_ALLOW_REGRESSION=1` to demote regressions and
removed-section errors to warnings and exit 0 — for intentional
trade-offs, landed together with a refreshed committed baseline.

A missing baseline file is not an error: fresh branches and first runs
have no committed baseline yet, so the script prints a notice and exits
0 instead of dying with a traceback.

Stdlib only; no third-party dependencies.
"""

import json
import os
import sys


def per_element(stat):
    mean = stat.get("mean_ns")
    if mean is None:
        return None
    elements = stat.get("elements")
    return mean / elements if elements else mean


def load(path):
    """The report's results by label, and whether it is a quick run."""
    with open(path) as f:
        doc = json.load(f)
    labels = {s["label"]: s for s in doc.get("results", []) if "label" in s}
    return labels, bool(doc.get("quick", False))


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    threshold = 0.25
    for a in argv[1:]:
        if a.startswith("--threshold"):
            threshold = float(a.split("=", 1)[1] if "=" in a else argv[argv.index(a) + 1])
    allow = os.environ.get("BENCH_ALLOW_REGRESSION", "") not in ("", "0")

    try:
        base, base_quick = load(args[0])
    except FileNotFoundError:
        print(
            f"bench_diff: no committed baseline at {args[0]}; "
            "nothing to compare against (first run?) — skipping"
        )
        return 0
    cur, cur_quick = load(args[1])
    shared = [label for label in base if label in cur]
    if not shared:
        print(f"::warning::bench_diff: no shared labels between {args[0]} and {args[1]}")
        return 0

    regressions = 0
    improvements = 0
    print(f"{'label':<44} {'baseline':>12} {'current':>12} {'delta':>8}")
    for label in shared:
        b, c = per_element(base[label]), per_element(cur[label])
        if b is None or c is None:
            print(f"{label:<44} (no mean_ns on one side; skipped)")
            continue
        delta = (c - b) / b if b else 0.0
        flag = "  <-- REGRESSION" if delta > threshold else ""
        if delta < -threshold:
            flag = "  <-- improved; baseline stale"
        print(f"{label:<44} {b:>10.0f}ns {c:>10.0f}ns {delta:>+7.1%}{flag}")
        if delta > threshold:
            regressions += 1
            severity = "warning" if allow else "error"
            print(
                f"::{severity}::bench regression: {label} is {delta:+.1%} vs committed "
                f"baseline ({b:.0f}ns -> {c:.0f}ns per element, threshold {threshold:.0%})"
            )
        elif delta < -threshold:
            # A large improvement is good news but makes the committed
            # baseline stale: future regressions hide inside the slack
            # until someone refreshes it. Warn, never fail.
            improvements += 1
            print(
                f"::warning::bench improvement: {label} is {delta:+.1%} vs committed "
                f"baseline ({b:.0f}ns -> {c:.0f}ns per element) — refresh the committed "
                "baseline so the regression gate tracks the new level"
            )

    added = [label for label in cur if label not in base]
    removed = [label for label in base if label not in cur]
    if cur_quick and not base_quick:
        for label in removed:
            print(f"not run in quick mode: '{label}' (full-mode baseline section)")
        removed = []
    if added:
        print(f"added (not in baseline, not compared): {', '.join(added)}")
    if removed:
        severity = "warning" if allow else "error"
        for label in removed:
            print(
                f"::{severity}::bench section removed: '{label}' is in the committed "
                f"baseline but missing from the current run — its regression gate is "
                "gone. Refresh the committed baseline to drop it deliberately."
            )
        if not allow:
            print(
                f"{len(removed)} committed-baseline label(s) missing from the current "
                "run — failing. If intentional, refresh the committed baseline or set "
                "BENCH_ALLOW_REGRESSION=1."
            )
            return 1
        print(
            f"{len(removed)} committed-baseline label(s) missing "
            "(allowed by BENCH_ALLOW_REGRESSION=1)"
        )

    if regressions:
        if allow:
            print(
                f"{regressions} label(s) regressed beyond {threshold:.0%} "
                "(allowed by BENCH_ALLOW_REGRESSION=1)"
            )
            return 0
        print(
            f"{regressions} label(s) regressed beyond {threshold:.0%} — failing. "
            "If intentional, refresh the committed baseline or set BENCH_ALLOW_REGRESSION=1."
        )
        return 1
    if improvements:
        print(
            f"no regressions; {improvements} label(s) improved beyond {threshold:.0%} — "
            "consider refreshing the committed baseline"
        )
        return 0
    print(f"no regressions beyond {threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
