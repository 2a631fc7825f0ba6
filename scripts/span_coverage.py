#!/usr/bin/env python3
"""Fail unless a span's direct children account for enough of its time.

Usage:

    python3 scripts/span_coverage.py STATS.json SPAN MIN_PCT

STATS.json is a `--stats-json` file.  The children of SPAN are the spans
named SPAN/<child> (one level down).  Prints the coverage and each
child's share; exits 1 when the children cover less than MIN_PCT
percent of SPAN's total, or when SPAN is missing or never ran.
"""

import json
import sys


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    path, span, min_pct = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(path) as f:
        spans = json.load(f)["spans"]
    parent = spans.get(span)
    if parent is None or parent["total_ns"] <= 0:
        sys.exit("span_coverage: %s: no time recorded for %s" % (path, span))
    prefix = span + "/"
    children = {
        name[len(prefix):]: s["total_ns"]
        for name, s in spans.items()
        if name.startswith(prefix) and "/" not in name[len(prefix):]
    }
    total = parent["total_ns"]
    pct = 100.0 * sum(children.values()) / total
    for name, ns in sorted(children.items()):
        print("  %-24s %6.1f%%" % (name, 100.0 * ns / total))
    print("%s: children cover %.1f%% (need >= %g%%)" % (span, pct, min_pct))
    if pct < min_pct:
        sys.exit(1)


if __name__ == "__main__":
    main()
