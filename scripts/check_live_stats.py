#!/usr/bin/env python3
"""Validate a `--live-stats` heartbeat stream (JSONL).

Accepts both streams the CLI writes: ``campaign``/``campaign sweep``
(``"type":"live"`` lines) and ``campaign fuzz`` (``"type":"fuzz_live"``
lines). Checks (exit 0 when all pass, 1 otherwise, 2 on usage/IO
errors):

  * every line is a JSON object, and all lines share one known ``type``;
  * ``seq`` (campaign) counts up from 0 in steps of 1, and
    ``elapsed_ms`` and the progress count (``tests_done`` or ``execs``)
    never decrease;
  * exactly one line carries ``"final":true``, and it is the last;
  * the final line has finished the run: ``tests_done == tests_total``
    (campaign) or ``execs == execs_total`` (fuzz).

Usage: check_live_stats.py LIVE.jsonl
"""

import json
import sys

# type -> (done key, total key)
PROGRESS = {"live": ("tests_done", "tests_total"), "fuzz_live": ("execs", "execs_total")}


def validate(lines):
    errors = []
    docs = []
    for i, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {i}: invalid JSON ({e})")
            continue
        if not isinstance(doc, dict):
            errors.append(f"line {i}: not a JSON object")
            continue
        docs.append((i, doc))
    if errors:
        return errors
    if not docs:
        return ["empty stream: not even the final heartbeat"]

    kind = docs[0][1].get("type")
    if kind not in PROGRESS:
        return [f"line {docs[0][0]}: unknown type {kind!r}"]
    done_key, total_key = PROGRESS[kind]
    required = ["elapsed_ms", done_key, total_key, "final"] + (["seq"] if kind == "live" else [])

    prev = None
    for i, doc in docs:
        if doc.get("type") != kind:
            errors.append(f"line {i}: type {doc.get('type')!r} in a {kind!r} stream")
            continue
        missing = [k for k in required if k not in doc]
        if missing:
            errors.append(f"line {i}: missing keys {missing}")
            continue
        if kind == "live":
            want = 0 if prev is None else prev["seq"] + 1
            if doc["seq"] != want:
                errors.append(f"line {i}: seq {doc['seq']}, expected {want}")
        if prev is not None:
            for key in ("elapsed_ms", done_key):
                if doc[key] < prev[key]:
                    errors.append(f"line {i}: {key} went back from {prev[key]} to {doc[key]}")
        prev = doc
    if errors:
        return errors

    finals = [i for i, doc in docs if doc["final"] is True]
    if len(finals) != 1:
        errors.append(f"expected exactly one final line, got {len(finals)} (lines {finals})")
    elif finals[0] != docs[-1][0]:
        errors.append(f"final line {finals[0]} is not the last line ({docs[-1][0]})")
    last = docs[-1][1]
    if last[done_key] != last[total_key]:
        errors.append(
            f"final line: {done_key} {last[done_key]} != {total_key} {last[total_key]}"
        )
    return errors


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            lines = f.readlines()
    except OSError as e:
        print(f"cannot read {argv[1]}: {e}", file=sys.stderr)
        return 2
    errors = validate(lines)
    if errors:
        for e in errors:
            print(f"{argv[1]}: {e}")
        return 1
    kind = json.loads(next(l for l in lines if l.strip()))["type"]
    print(f"OK: {len([l for l in lines if l.strip()])} {kind} heartbeat(s), final line last")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
