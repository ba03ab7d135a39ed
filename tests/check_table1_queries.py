#!/usr/bin/env python3
"""Exact gate on Table 1's deterministic columns.

    python3 tests/check_table1_queries.py tests/expected/table1_queries.json \
        table1_hvx.json table1_neon.json

Each positional JSON after the first is a `table1_compile_stats --json`
report; its "target" field picks the expected block. Every benchmark's
lift, sketch and swizzle query counts, swizzle memo hits and
selections digest (a hash of its selected programs) must match exactly,
and the set of benchmarks must match too. Exits 1 and prints every
difference otherwise.
"""

import json
import sys

COLUMNS = ["lift_queries", "sketch_queries", "swizzle_queries",
           "swizzle_memo_hits", "selections_digest"]


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        expected = json.load(f)
    diffs = []
    for path in argv[2:]:
        with open(path) as f:
            report = json.load(f)
        target = report["target"]
        want = expected[target]
        got = {b["name"]: {c: b[c] for c in COLUMNS}
               for b in report["benchmarks"]}
        for name in sorted(set(want) | set(got)):
            if name not in got or name not in want:
                diffs.append(f"{target} {name}: benchmark "
                             f"{'missing' if name not in got else 'unexpected'}")
                continue
            for c in COLUMNS:
                if got[name][c] != want[name][c]:
                    diffs.append(f"{target} {name} {c}: expected "
                                 f"{want[name][c]}, got {got[name][c]}")
    for d in diffs:
        print(d)
    if diffs:
        return 1
    print(f"table1 query counts and selections match {argv[1]} "
          f"({len(argv) - 2} targets)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
