#!/usr/bin/env python3
"""Exact gate on the jit's code size per benchmark and SIMD tier.

    python3 tests/check_jit_code_bytes.py tests/expected/jit_code_bytes.json \
        fig11_scalar.json fig11_sse2.json [fig11_avx2.json]

Each positional JSON after the first is a `fig11_speedups --execute jit
--json` report; its "jit_simd" field picks the expected block. Every
benchmark's jit_code_bytes (Rake plus baseline programs) must match
exactly, and the set of benchmarks must match too. Exits 1 and prints
every difference otherwise. A change that means to alter the emitted
code updates the expected file in the same commit and says why.
"""

import json
import sys


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
        tier = report["jit_simd"]
        want = expected[tier]
        got = {b["name"]: b["jit_code_bytes"] for b in report["benchmarks"]}
        for name in sorted(set(want) | set(got)):
            if name not in got or name not in want:
                diffs.append(f"{tier} {name}: benchmark "
                             f"{'missing' if name not in got else 'unexpected'}")
            elif got[name] != want[name]:
                diffs.append(f"{tier} {name} jit_code_bytes: expected "
                             f"{want[name]}, got {got[name]}")
    for d in diffs:
        print(d)
    if diffs:
        return 1
    print(f"jit code bytes match {argv[1]} ({len(argv) - 2} tiers)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
