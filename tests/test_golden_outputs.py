"""Byte-identical CLI output on a fixed set of commands.

Each case is one ``divpos`` command line whose stdout digest is stored in
``tests/fixtures/golden_outputs.json``.  The digests are the reference
bytes of the v1 JSON output: a refactor of the evaluation path must
reproduce them exactly.  Rewrite the fixture only when a change to the
output is intended:

    PYTHONPATH=src python3 tests/test_golden_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "golden_outputs.json"


def _hirzebruch_divisors(e: int) -> list[str]:
    """Ample, arbitrary and nef-boundary classes on F_e, rational and quadratic."""
    boundary_f = f" + {Fraction(2 * e, 3)}*f" if e else ""
    qboundary_f = f" + ({-e}+{e}*sqrt(3))*f" if e else ""
    return [
        f"3/2*C0 + {e + 1}*f",                            # the paper's family
        f"C0 + {e + 1}*f",                                # ample
        f"5/3*C0 + {Fraction(5 * e, 3) + Fraction(7, 4)}*f",  # ample
        f"2/3*C0{boundary_f}",                            # nef boundary b = e*a
        "-1/2*C0 + 7/3*f",                                # neither
        f"sqrt(2)*C0 + ({e}*sqrt(2)+1/3)*f",              # ample, Q(sqrt 2)
        f"(-1+sqrt(3))*C0{qboundary_f}",                  # boundary, Q(sqrt 3)
        "(1/2-1/2*sqrt(5))*C0 + (3+sqrt(5))*f",           # not big, Q(sqrt 5)
    ]


P2_DIVISORS = [
    "L", "1/3*L", "-2/5*L", "7/2*L",
    "sqrt(2)*L", "(-1+sqrt(3))*L", "(2-sqrt(5))*L", "(1/3+1/4*sqrt(5))*L",
]


def cases() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    surfaces = [(f"hirzebruch:{e}", _hirzebruch_divisors(e)) for e in range(4)]
    surfaces.append(("p2", P2_DIVISORS))
    for surface, divisors in surfaces:
        for divisor in divisors:
            out[f"check {surface} {divisor}"] = [
                "check", "--format", "json", "--m-max", "60",
                "--surface", surface, f"--divisor={divisor}"]
    for profile in ("rational:30/12", "quadratic:2:10"):
        out[f"audit {profile}"] = [
            "audit", "--suite", "all", "--n-divisors", "2", "--m-max", "40",
            "--profile", profile, "--full-reports", "--format", "json"]
    out["growth"] = ["growth", "--format", "json", "--m-max", "30",
                     "--surface", "hirzebruch:1", "--divisor=3/2*C0 + (1+sqrt(2))*f"]
    out["semigroup"] = ["semigroup", "--format", "json", "--m-max", "60",
                        "--surface", "hirzebruch:3", "--divisor=1/3*C0 + 5/2*f"]
    return out


def stdout_digest(argv: list[str]) -> str:
    from divpos.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, argv
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def test_fixture_covers_every_case():
    golden = json.loads(FIXTURE.read_text())
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("key", sorted(cases()))
def test_output_bytes_match_golden(key):
    golden = json.loads(FIXTURE.read_text())
    assert stdout_digest(cases()[key]) == golden[key]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    table = {key: stdout_digest(argv) for key, argv in cases().items()}
    FIXTURE.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {FIXTURE}", file=sys.stderr)
