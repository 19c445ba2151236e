"""Byte-identical reports on the build_report branches no CLI golden reaches.

Each case is one ``build_report`` call whose sha256 of
``json.dumps(report.to_json_dict(), sort_keys=True)`` is stored in
``tests/fixtures/report_branches.json``.  The cases cover the notes of the
missing oracles (a spec with only an h0 table, with only very-ample and
globally-generated tables, with no oracle tables), the section-growth
floor (m_max 3) and twist catalogs without the zero twist, whose B4
verdict keeps the untwisted onset bound.  Rewrite the fixture only when
a change to the reports is intended:

    PYTHONPATH=src python3 tests/test_report_branches_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from divpos import build_report
from divpos.divisor import ZDivisor
from divpos.surface import (SurfaceModel, hirzebruch, projective_plane, surface_from_spec,
                            surface_to_spec)

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "report_branches.json"

RANK1 = {
    "name": "toy-plane",
    "basis": ["E"],
    "matrix": [[1]],
    "mori_generators": [{"label": "E", "coords": [1]}],
    "effective_generators": [[1]],
    "canonical": [-3],
    "chi": 1,
}


def _f2_spec(oracle: dict) -> dict:
    return {**surface_to_spec(hirzebruch(2)), "name": "toy-f2", "oracle": oracle}


@lru_cache(maxsize=None)
def surfaces() -> dict[str, SurfaceModel]:
    F2 = hirzebruch(2)
    p2_counts = {str(d): (d + 1) * (d + 2) // 2 if d >= 0 else 0 for d in range(-60, 61)}
    f2_counts = {f"{a},{b}": F2.h0(ZDivisor((a, b)))
                 for a in range(-18, 19) for b in range(-40, 41)}
    return {
        "p2 h0_table": surface_from_spec({**RANK1, "oracle": {"h0_table": p2_counts}}),
        "p2 va+gg tables": surface_from_spec({**RANK1, "oracle": {
            "very_ample_table": [str(d) for d in range(1, 61)],
            "globally_generated_table": [str(d) for d in range(0, 61)]}}),
        "p2 no oracle": surface_from_spec({**RANK1, "oracle": {}}),
        "f2 h0_table": surface_from_spec(_f2_spec({"h0_table": f2_counts})),
        "f2 no oracle": surface_from_spec(_f2_spec({})),
        "hirzebruch:2": F2,
        "p2": projective_plane(),
    }


P2_DIVISORS = ("2*E", "3/2*E", "-1/2*E", "sqrt(2)*E")
F2_DIVISORS = ("C0 + 3*f", "3/2*C0 + 3*f", "-C0 + f", "sqrt(2)*C0 + (2*sqrt(2)+1/3)*f")


def cases() -> dict[str, tuple]:
    """name -> (surface key, divisor, m_max, twists or None)."""
    out = {}
    for key in ("p2 h0_table", "p2 va+gg tables", "p2 no oracle"):
        for D in P2_DIVISORS:
            out[f"{key} {D}"] = (key, D, 12, None)
    for key in ("f2 h0_table", "f2 no oracle"):
        for D in F2_DIVISORS:
            out[f"{key} {D}"] = (key, D, 10, None)
    for D in F2_DIVISORS:
        out[f"hirzebruch:2 m_max=3 {D}"] = ("hirzebruch:2", D, 3, None)
        out[f"hirzebruch:2 twists without 0 {D}"] = (
            "hirzebruch:2", D, 30, ((-1, 0), (0, -1), (1, -2)))
    for D in ("L", "7/2*L", "-2/5*L", "(-1+sqrt(3))*L"):
        out[f"p2 twists without 0 {D}"] = ("p2", D, 30, ((-1,), (2,)))
    return out


def report_digest(key: str, D: str, m_max: int, twists) -> str:
    S = surfaces()[key]
    if twists is not None:
        twists = [ZDivisor(t) for t in twists]
    report = build_report(S, D, m_max, twists=twists)
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fixture_covers_every_case():
    golden = json.loads(FIXTURE.read_text())
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_report_matches_golden(name):
    golden = json.loads(FIXTURE.read_text())
    assert report_digest(*cases()[name]) == golden[name]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    table = {name: report_digest(*case) for name, case in cases().items()}
    FIXTURE.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {FIXTURE}", file=sys.stderr)
