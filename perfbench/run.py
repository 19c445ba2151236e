#!/usr/bin/env python3
"""divpos benchmark: a closed loop of CLI calls with one client.

    python3 perfbench/run.py --workload check-deep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (it imports ``src/divpos``).
One process, one thread: each op is ``divpos.cli.main(argv)`` called
in-process with stdout captured; the next op starts when the previous one
returns.  Every output is checked (see workloads.py) before it counts.

With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  The last
stdout line is the result object; the line before it is a detail object
with the environment stamp and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

# Each input's latency is the slowest of its calls in the run, one per
# pass, so a run makes at least this many passes (see README.md).
MIN_PASSES = 2
SETUP_REPEATS = 9
# The traced run makes one pass over the pool per this many seconds of
# --seconds (at least one), so its counts are the same for every seed; a
# pass traced plus its untraced replay takes 14 to 16 s on the audits and
# about 48 s on check-deep at the commit that defined the benchmark.
TRACE_SECONDS_PER_PASS = 40

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import divpos.cli
from divpos.surface import resolve_surface
for ident in sys.argv[1:]:
    resolve_surface(ident)
print(time.perf_counter() - t0)
"""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-quantile; refuses one with fewer than ten samples beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(Fraction(str(q)) * n))
    if n - rank < 10:
        raise ValueError(f"p{q * 100:g} of {n} samples has {n - rank} beyond it; need 10")
    return sorted(samples)[rank - 1]


def environment() -> dict:
    """Git sha (None outside a git checkout), source digest, Python, backend, cores."""
    import divpos

    sha = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "divpos").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "backend": divpos.BACKEND,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def setup_once(surfaces: list[str]) -> float:
    """Seconds a fresh interpreter takes to import divpos.cli and resolve surfaces."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *surfaces], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def run_op(cli, op) -> tuple[int, float, str, str]:
    """(exit code, seconds, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = -1
            traceback.print_exc()
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


class Tally:
    """Checks each op's output as it arrives; keeps counts, not outputs."""

    def __init__(self, workload: str, golden: dict):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.divisors = 0
        self.decided = [0, 0]
        self.latencies: list[float] = []

    def add(self, op, rc: int, seconds: float, text: str, err: str) -> None:
        problem = self._problem(op, rc, text, err)
        if problem is not None:
            self.failed += 1
            print(f"op {self.attempted} ({op.key}) failed: {problem}", file=sys.stderr)
        else:
            self.divisors += op.divisors
            c, t = workloads.decided(json.loads(text), self.workload)
            self.decided[0] += c
            self.decided[1] += t
        self.attempted += 1
        self.latencies.append(seconds)

    def _problem(self, op, rc: int, text: str, err: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {err.strip()[-300:]}"
        try:
            problem = op.check(json.loads(text))
        except Exception as exc:  # a malformed output is a failed op, not a crash
            return f"output check raised {exc!r}"
        if problem is None and self.golden.get(op.key) != workloads.digest(text):
            problem = "output bytes differ from the golden digest"
        return problem


def timed_run(cli, ops: list, tally: Tally, seconds: float, surfaces: list[str]) -> float:
    """Closed loop of whole passes over `ops` for `seconds`; returns setup_s.

    The loop makes at least MIN_PASSES passes and then finishes the one
    it is in, so every run times each input equally often.  The set-up
    samples are spread over the run, between ops, so their median sees
    the same machine as the ops do.
    """
    setups: list[float] = []
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds or i < MIN_PASSES * len(ops) or i % len(ops):
        if len(setups) < SETUP_REPEATS and \
                time.perf_counter() - t_start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_once(surfaces))
        op = ops[i % len(ops)]
        tally.add(op, *run_op(cli, op))
        i += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once(surfaces))
    return statistics.median(setups)


def slowest_per_input(latencies: list[float], n_inputs: int) -> list[float]:
    """Each input's slowest call, from the latencies of whole passes in op order."""
    if not latencies or len(latencies) % n_inputs:
        raise ValueError(f"{len(latencies)} latencies are not whole passes of {n_inputs}")
    return [max(latencies[i::n_inputs]) for i in range(n_inputs)]


def traced_run(cli, ops: list, tally: Tally):
    """Run ops under the tracer, then again without it; (tracer, untraced wall)."""
    tracer = spans.Tracer()
    outputs = []
    try:
        tracer.install()
        tracer.start()
        for i, op in enumerate(ops):
            tracer.op = i
            outputs.append(run_op(cli, op))
        tracer.stop()
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    for op in ops:
        run_op(cli, op)
    plain_wall = time.perf_counter() - t0
    for op, out in zip(ops, outputs):   # checked untraced, so checks add no spans
        tally.add(op, *out)
    return tracer, plain_wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "divpos" / "__init__.py").is_file():
        print(f"error: no divpos sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import divpos.cli as cli

    tally = Tally(args.workload, json.loads(GOLDEN.read_text())[args.workload])
    warm, ops = workloads.stream(args.workload, args.seed)
    for op in warm:
        run_op(cli, op)

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    if args.trace == 0:
        surfaces = list(workloads.CHECK_SURFACES if args.workload == "check-deep"
                        else workloads.AUDIT_SURFACES)
        setup_s = timed_run(cli, ops, tally, args.seconds, surfaces)
        passes = len(tally.latencies) // len(ops)
        lat = slowest_per_input(tally.latencies, len(ops))
        metrics = {
            "setup_s": (setup_s, "s"),
            "divisors_per_s": (tally.divisors / passes / sum(lat), "1/s"),
            "latency_p50_ms": (1000 * percentile(lat, 0.5), "ms"),
            "latency_p90_ms": (1000 * percentile(lat, 0.9), "ms"),
            "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
            "decided_frac": (tally.decided[0] / max(1, tally.decided[1]), "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail.update(latency_samples=len(lat), calls_per_input=passes,
                      setup_samples=SETUP_REPEATS,
                      all_calls_mean_ms=1000 * statistics.fmean(tally.latencies))
        problems = []
    else:
        passes = max(1, round(args.seconds / TRACE_SECONDS_PER_PASS))
        tracer, plain_wall = traced_run(cli, ops * passes, tally)
        metrics, problems = layer_metrics(tracer, args.workload, tally.divisors, plain_wall)
        for p in problems:
            print(f"trace: {p}", file=sys.stderr)
        detail.update(spans_logged=len(tracer.log),
                      span_log=str(write_span_log(tracer, args.workload, args.seed)
                                   .relative_to(ROOT)))
    detail.update(ops=tally.attempted, pool_ops=len(ops), divisors=tally.divisors)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, workload: str, divisors: int,
                  plain_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run and the problems that void it."""
    metrics: dict = {}
    problems = []
    errors: dict[str, int] = {}
    for decl in spans.SPANS:
        st = tracer.stats[decl.name]
        prefix = f"{decl.layer.lstrip('_')}.{decl.name}"
        metrics[f"{prefix}.calls"] = (st.calls, "count")
        metrics[f"{prefix}.self_s"] = (st.self_s, "s")
        if decl.name in spans.PER_DIVISOR:
            metrics[f"{prefix}.per_divisor"] = (st.calls / max(1, divisors), "calls/divisor")
        if decl.cells is not None:
            metrics[f"{prefix}.cells"] = (st.cells, "count")
        errors[decl.layer] = errors.get(decl.layer, 0) + st.errors
        if workload in decl.fires_on and st.calls == 0:
            problems.append(f"span {decl.name} predicted on {workload} recorded no calls")
    for layer, n in errors.items():
        metrics[f"{layer.lstrip('_')}.errors"] = (n, "count")
    attributed = tracer.attributed_s()
    metrics["trace.wall_s"] = (tracer.wall_s, "s")
    metrics["trace.unattributed_s"] = (tracer.unattributed_s, "s")
    metrics["trace.spans"] = (tracer.n_spans, "count")
    metrics["trace.divisors"] = (divisors, "count")
    metrics["trace.overhead_frac"] = (tracer.wall_s / plain_wall - 1, "frac")
    metrics["trace.span_cost_us"] = (1e6 * (tracer.wall_s - plain_wall) / max(1, tracer.n_spans),
                                     "us")
    if abs(attributed + tracer.unattributed_s - tracer.wall_s) > 1e-6:
        problems.append(f"self times {attributed:.9f} s + unattributed "
                        f"{tracer.unattributed_s:.9f} s != traced wall {tracer.wall_s:.9f} s")
    return metrics, problems


def write_span_log(tracer, workload: str, seed: int) -> Path:
    """The first spans in full, one JSON list per line: id, name, start, end, parent, op."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name_idx, t0, t1, parent, op in tracer.log:
            fh.write(json.dumps([span_id, tracer.names[name_idx], t0, t1, parent, op]) + "\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
