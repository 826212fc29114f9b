#!/usr/bin/env python3
"""Pass/fail gate over perfbench results.

    python3 tools/perfbench_gate.py DIR

DIR holds one file per workload, DIR/<workload>.json, whose last line is the
JSON object `python3 perfbench/run.py --workload <workload>` prints last.
run.py exits 0 even when a run fails its pins, so this script does the
judging: every workload must report "correct": true, "failed": 0, and a
run_s at or below its ceiling. Exits 1 if any workload misses, 0 otherwise.

Each ceiling is 10x the workload's accepted run_s median on a 4-core VM
(0.87, 1.97 and 0.95 s), loose enough for a slow CI runner and tight enough
to catch an order-of-magnitude engine regression.
"""
import json
import os
import sys

CEILING_S = {
    "paper_pause0": 9.0,
    "static_n400": 20.0,
    "linkcache_churn": 10.0,
}


def check(workload, path):
    """(passed, one-line reason) for the result stored at `path`."""
    try:
        with open(path) as f:
            lines = f.read().strip().splitlines()
        result = json.loads(lines[-1])
    except (OSError, IndexError, ValueError) as e:
        return False, f"no result line in {path} ({e!r})"
    if result.get("correct") is not True:
        return False, "correct is not true"
    if result.get("failed") != 0:
        return False, f"{result.get('failed')} failed runs"
    run_s = result["metrics"]["run_s"]["value"]
    ceiling = CEILING_S[workload]
    if run_s > ceiling:
        return False, f"run_s {run_s:.3f} s above the {ceiling:g} s ceiling"
    return True, f"run_s {run_s:.3f} s (ceiling {ceiling:g} s)"


def main():
    if len(sys.argv) != 2:
        print("usage: python3 tools/perfbench_gate.py DIR", file=sys.stderr)
        return 2
    rc = 0
    for workload in CEILING_S:
        passed, reason = check(
            workload, os.path.join(sys.argv[1], workload + ".json"))
        print(f"{workload}: {'ok' if passed else 'FAIL'}: {reason}")
        if not passed:
            rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
