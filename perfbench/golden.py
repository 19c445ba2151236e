#!/usr/bin/env python3
"""Write golden.json: the stdout digest of every pool item of every workload.

    python3 perfbench/golden.py

Run from the root of a source checkout at the commit whose v1 output is
the reference.  Each item is run once and must pass its output checks;
golden.json is written afresh.  The v1 bytes must never change, so
regenerating this file is only right when a change to the output format
is intended.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import divpos.cli as cli

    table = {}
    for name in workloads.WORKLOADS:
        digests = {}
        for group in workloads.pool(name):
            for op in group:
                rc, _, text, err = run.run_op(cli, op)
                problem = f"exit code {rc}: {err}" if rc else op.check(json.loads(text))
                if problem:
                    print(f"{name} {op.key}: {problem}", file=sys.stderr)
                    return 1
                digests[op.key] = workloads.digest(text)
        table[name] = digests
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, sort_keys=True, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
