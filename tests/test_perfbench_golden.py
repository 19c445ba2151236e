"""Every op of the benchmark pools still prints its golden bytes.

``perfbench/golden.json`` pins the sha256 prefix of the stdout of each
of the 300 pool ops (100 per workload).  The benchmark compares against
it while timing; this test replays the pools in the test suite, so a
change that alters an audit or check output fails here first.  The
workloads module is loaded from its file, read-only, as
``tests/test_span_targets.py`` loads the tracer.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import divpos.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_pool_outputs_match_the_golden_digests(workload):
    ops = [op for group in WORKLOADS.pool(workload) for op in group]
    assert sorted(op.key for op in ops) == sorted(GOLDEN[workload])
    problems = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = divpos.cli.main(list(op.argv))
        text = out.getvalue()
        if rc != 0:
            problems.append(f"{op.key}: exit {rc}: {err.getvalue().strip()}")
            continue
        problem = op.check(json.loads(text))
        if problem is not None:
            problems.append(f"{op.key}: {problem}")
        if WORKLOADS.digest(text) != GOLDEN[workload][op.key]:
            problems.append(f"{op.key}: digest {WORKLOADS.digest(text)} != "
                            f"{GOLDEN[workload][op.key]}")
    assert not problems, "\n".join(problems)
