#!/usr/bin/env python3
"""Pass/fail gate over perfbench results.

    python3 tools/perfbench_gate.py DIR

DIR holds one file per workload, DIR/<workload>.json, whose last line is the
JSON object `python3 perfbench/run.py --workload <workload>` prints last.
run.py exits 0 even when a run fails its pins, so this script does the
judging: every workload must report "correct": true, "failed": 0, a run_s
at or below its ceiling and a peak_rss_mb at or below its ceiling. Exits 1
if any workload misses, 0 otherwise.

Each run_s ceiling is 10x the workload's accepted run_s median on a 4-core
VM (0.87, 1.97 and 0.95 s), loose enough for a slow CI runner and tight
enough to catch an order-of-magnitude engine regression.

Each peak_rss_mb ceiling is 1.25x the workload's accepted value (6.94,
17.26 and 8.85 MB on a 4-core x86-64 Linux VM). A seed's peak memory
repeats from run to run, so the margin only has to absorb a different libc
or allocator; it is tight enough that a structure growing with the number
of events issued, such as a per-event-id status window (3.5 MB on
linkcache_churn), fails the gate.
"""
import json
import os
import sys

CEILING_S = {
    "paper_pause0": 9.0,
    "static_n400": 20.0,
    "linkcache_churn": 10.0,
}
CEILING_RSS_MB = {
    "paper_pause0": 8.7,
    "static_n400": 21.6,
    "linkcache_churn": 11.1,
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
    rss = result["metrics"]["peak_rss_mb"]["value"]
    rss_ceiling = CEILING_RSS_MB[workload]
    if rss > rss_ceiling:
        return False, (f"peak_rss_mb {rss:.2f} MB above the "
                       f"{rss_ceiling:g} MB ceiling")
    return True, (f"run_s {run_s:.3f} s (ceiling {ceiling:g} s), "
                  f"peak_rss_mb {rss:.2f} MB (ceiling {rss_ceiling:g} MB)")


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
