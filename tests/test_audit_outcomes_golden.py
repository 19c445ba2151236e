"""Byte-identical audit outcomes, discrepancies and inconclusives included.

Each case is one audit suite run on one config; the sha256 of its
``AuditOutcome.to_json()`` is stored in
``tests/fixtures/audit_outcomes.json``.  The injected-fault runs carry
discrepancies and the small configs carry inconclusives and Weyl checks,
so a change to the classification that reorders, drops or rewords an
entry changes a digest.  Rewrite the fixture only when a change to the
outcomes is intended:

    PYTHONPATH=src python3 tests/test_audit_outcomes_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest
from test_auditor import small_quadratic_config, small_rational_config

from divpos import auditor

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "audit_outcomes.json"

# the fixture's name of each suite -> its name in auditor.SUITES
SUITES = {"ampleness": "ampleness", "nef": "nef_from_multiples", "bigness": "bigness"}


def cases() -> dict:
    """name -> (suite, config); the fault configs are those of test_auditor's fault tests."""
    out = {}
    for fault in ("flip_cone", "flip_ratio", "flip_gg"):
        out[f"ampleness {fault}"] = ("ampleness", small_rational_config(
            n_divisors=40, fault=fault, surfaces=("hirzebruch:2",)))
    out["bigness flip_cone"] = ("bigness", small_rational_config(
        n_divisors=30, fault="flip_cone", surfaces=("hirzebruch:2",)))
    for profile, config in (("rational", small_rational_config()),
                            ("quadratic", small_quadratic_config())):
        for suite in SUITES:
            out[f"{suite} {profile}"] = (suite, config)
    return out


def outcome_digest(suite: str, config: auditor.AuditConfig) -> str:
    text = auditor.run_audit(config, [SUITES[suite]])[0].to_json()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fixture_covers_every_case():
    golden = json.loads(FIXTURE.read_text())
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("key", sorted(cases()))
def test_audit_outcome_matches_golden(key):
    golden = json.loads(FIXTURE.read_text())
    assert outcome_digest(*cases()[key]) == golden[key]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    table = {key: outcome_digest(*case) for key, case in cases().items()}
    FIXTURE.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {FIXTURE}", file=sys.stderr)
