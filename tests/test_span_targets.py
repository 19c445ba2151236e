"""The benchmark's span targets stay where its tracer looks for them.

``perfbench/spans.py`` wraps divpos callables by "module:attribute"
paths, rebinding each in every divpos module that binds it.  A refactor
that moves a kernel out of ``divpos._kernels``, or captures a span target
in a table at import time, makes the traced benchmark run fail or lose
spans.  This test loads the tracer from its file, unchanged, and checks
both on one traced ``divpos check``.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import divpos.auditor  # noqa: F401  (the tracer patches loaded modules only)
import divpos.cli

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def divpos_bindings() -> dict:
    """Every module-level and class-level binding in the loaded divpos modules."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "divpos" or name.startswith("divpos.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, f"{attr}.{cattr}")] = cvalue
    return out


def test_tracer_installs_fires_and_restores():
    spans = load_spans()
    before = divpos_bindings()
    tracer = spans.Tracer()
    try:
        tracer.install(spans.SPANS)
        assert divpos.cli.main is not before[("divpos.cli", "main")]
        with redirect_stdout(io.StringIO()) as out:
            code = divpos.cli.main([
                "check", "--surface", "hirzebruch:2",
                "--divisor", "(1+sqrt(2))*C0 + 7/2*f",
                "--m-max", "20", "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0, out.getvalue()

    after = divpos_bindings()
    moved = [key for key, value in before.items() if after.get(key) is not value]
    assert moved == []

    for name in ("floor_multiples", "sign_quad", "floor_quad", "h0"):
        assert tracer.stats[name].calls > 0, name
    # every span the check-deep workload predicts fires on this check too
    silent = [d.name for d in spans.SPANS
              if "check-deep" in d.fires_on and tracer.stats[d.name].calls == 0]
    assert silent == []
