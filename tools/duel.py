#!/usr/bin/env python3
"""Time two source trees against each other, op by op, on one perfbench workload.

    python3 tools/duel.py PARENT_DIR CHANGE_DIR --workload W --passes N

Each tree is a divpos checkout (``src/divpos`` and ``perfbench/``).  The
duel starts one live worker process per tree.  A worker imports that
tree's ``src`` and its ``perfbench/workloads.py`` and ``run.py`` as they
are, runs the ops of the workload's pool (drawn with seed 1) one at a
time when asked, and checks each output against that tree's
``perfbench/golden.json``.  After one warm pass on each side the workers
alternate op by op, and the side that runs an op first alternates too, so
both see the same machine.

It prints one JSON object: the change/parent time ratio of each pass,
their median and quartiles, the passes the change won (it took less time;
a tie counts for neither side), the ratio of the total times, the full
(generation-2) garbage collections per op on each side and the count of
failed ops on each side.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path


def worker(tree: Path, workload: str) -> int:
    """Answer each line "i" on stdin with the seconds, gen-2 count and status of op i."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import run
    import workloads

    import divpos.cli as cli

    golden = json.loads(run.GOLDEN.read_text())[workload]
    warm, ops = workloads.stream(workload, 1)

    def failed(op, rc: int, text: str) -> bool:
        try:
            return rc != 0 or op.check(json.loads(text)) is not None \
                or golden.get(op.key) != workloads.digest(text)
        except Exception:   # a malformed output is a failed op
            return True

    print(json.dumps([op.key for op in ops]), flush=True)
    for line in sys.stdin:
        if line.strip() == "warm":
            for op in warm + ops:
                run.run_op(cli, op)
            print("{}", flush=True)
            continue
        op = ops[int(line)]
        full = gc.get_stats()[2]["collections"]
        rc, seconds, text, _ = run.run_op(cli, op)
        print(json.dumps({"s": seconds, "gen2": gc.get_stats()[2]["collections"] - full,
                          "failed": failed(op, rc, text)}), flush=True)
    return 0


class Side:
    """One worker process and what it has measured."""

    def __init__(self, tree: Path, workload: str):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(tree), "--workload", workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.keys = self.ask(None)
        self.seconds: list[float] = []
        self.gen2 = self.failed = 0

    def ask(self, line):
        if line is not None:
            self.proc.stdin.write(f"{line}\n")
            self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"worker {self.proc.args[3]} exited")
        return json.loads(reply)

    def run(self, i: int) -> float:
        r = self.ask(i)
        self.gen2 += r["gen2"]
        self.failed += r["failed"]
        return r["s"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def duel(parent: Path, change: Path, workload: str, passes: int) -> dict:
    sides = [Side(parent, workload), Side(change, workload)]
    try:
        if sides[0].keys != sides[1].keys:
            raise RuntimeError("the two trees have different pools for this workload")
        for side in sides:
            side.ask("warm")
        n = len(sides[0].keys)
        ratios, totals, wins = [], [0.0, 0.0], 0
        for p in range(passes):
            spent = [0.0, 0.0]
            for i in range(n):
                order = (0, 1) if (p * n + i) % 2 == 0 else (1, 0)
                for k in order:
                    spent[k] += sides[k].run(i)
            ratios.append(spent[1] / spent[0])
            wins += spent[1] < spent[0]
            totals = [t + s for t, s in zip(totals, spent)]
        q1, median, q3 = quartiles(ratios)
        return {
            "workload": workload, "passes": passes, "ops_per_pass": n,
            "pass_ratios": [round(r, 4) for r in ratios],
            "median_pass_ratio": round(median, 4), "change_wins": wins,
            "pass_ratio_q1": round(q1, 4), "pass_ratio_q3": round(q3, 4),
            "total_ratio": round(totals[1] / totals[0], 4),
            "gen2_per_op_parent": round(sides[0].gen2 / (passes * n), 4),
            "gen2_per_op_change": round(sides[1].gen2 / (passes * n), 4),
            "failed_ops_parent": sides[0].failed, "failed_ops_change": sides[1].failed,
        }
    finally:
        for side in sides:
            side.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="PARENT_DIR CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--worker", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return worker(args.worker.resolve(), args.workload)
    if len(args.trees) != 2 or args.passes < 1:
        parser.error("give PARENT_DIR and CHANGE_DIR, and --passes of at least 1")
    result = duel(*(t.resolve() for t in args.trees), args.workload, args.passes)
    print(json.dumps(result, sort_keys=True))
    return 1 if result["failed_ops_parent"] or result["failed_ops_change"] else 0


if __name__ == "__main__":
    sys.exit(main())
