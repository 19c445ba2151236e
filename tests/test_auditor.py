"""Audit suites: determinism, replication, fault sensitivity, witness soundness."""

import dataclasses
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divpos.positivity as pos
from divpos import auditor
from divpos.divisor import RDivisor, parse_divisor
from divpos.errors import ConfigError, InvalidInput
from divpos.exact_numbers import QuadExt
from divpos.surface import resolve_surface


def small_rational_config(**kw):
    base = dict(
        seed=42,
        surfaces=("hirzebruch:2", "p2"),
        n_divisors=40,
        profile=auditor.rational_profile(30, 12),
        m_max=120,
    )
    base.update(kw)
    return auditor.AuditConfig(**base)


def small_quadratic_config(**kw):
    base = dict(
        seed=42,
        surfaces=("hirzebruch:2",),
        n_divisors=30,
        profile=auditor.quadratic_profile(2, 10),
        m_max=120,
    )
    base.update(kw)
    return auditor.AuditConfig(**base)


# -- configuration ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        small_rational_config(n_divisors=0)
    with pytest.raises(ConfigError):
        small_rational_config(m_max=5)
    with pytest.raises(ConfigError):
        small_rational_config(surfaces=())
    with pytest.raises(ConfigError):
        small_rational_config(profile={"nope": {}})
    with pytest.raises(ConfigError):
        small_rational_config(fault="typo")


def test_config_from_dict_names_missing_field():
    with pytest.raises(ConfigError, match="seed"):
        auditor.config_from_dict({"surfaces": ["p2"], "n_divisors": 5,
                                  "profile": auditor.rational_profile()})


def test_splitmix_determinism():
    a = auditor.SplitMix64(123)
    b = auditor.SplitMix64(123)
    seq_a = [a.randint(-30, 30) for _ in range(100)]
    seq_b = [b.randint(-30, 30) for _ in range(100)]
    assert seq_a == seq_b
    c = auditor.SplitMix64(124)
    assert [c.randint(-30, 30) for _ in range(8)] != seq_a[:8]


def test_sampler_never_returns_zero():
    from divpos.surface import hirzebruch

    rng = auditor.SplitMix64(9)
    S = hirzebruch(2)
    for _ in range(200):
        D = auditor.sample_divisor(S, auditor.rational_profile(2, 2), rng)
        assert not D.is_zero()


@pytest.mark.parametrize("d", [2, 8, 12, 1000003])
def test_quadratic_sampler_splits_the_radicand_once_per_call(d, monkeypatch):
    """The sampled coefficients are QuadExt(a, b, d) of the same draws, as exact triples."""
    from divpos import exact_numbers
    from divpos.exact_numbers import QuadExt
    from divpos.surface import hirzebruch

    S = hirzebruch(2)
    profile = auditor.quadratic_profile(d, 10)
    rng, replay = auditor.SplitMix64(d), auditor.SplitMix64(d)
    splits = []
    real = exact_numbers.squarefree_decompose
    monkeypatch.setattr(exact_numbers, "squarefree_decompose",
                        lambda n: splits.append(n) or real(n))
    for _ in range(40):
        splits.clear()
        D = auditor.sample_divisor(S, profile, rng)
        assert splits == [d]
        while True:
            expect = {lbl: QuadExt(Fraction(replay.randint(-10, 10), replay.randint(1, 4)),
                                   Fraction(replay.randint(-10, 10), replay.randint(1, 4)), d)
                      for lbl in S.basis}
            if any(not c.is_zero() for c in expect.values()):
                break
        got = {lbl: D.coefficient(lbl) for lbl in S.basis}
        assert ({k: (c.N, c.M, c.Q, c.d) for k, c in got.items()}
                == {k: (c.N, c.M, c.Q, c.d) for k, c in expect.items()})


# -- ampleness audit ------------------------------------------------------------------


def test_ampleness_audit_clean():
    out = auditor.run_audit(small_rational_config(), ["ampleness"])[0]
    assert out.checked == 80
    assert out.discrepancies == []


def test_ampleness_audit_quadratic_clean():
    out = auditor.run_audit(small_quadratic_config(), ["ampleness"])[0]
    assert out.discrepancies == []


def test_outcome_determinism_bytes():
    cfg = small_rational_config(n_divisors=15)
    a = auditor.run_audit(cfg, ["ampleness"], keep_reports=True)[0].to_json()
    b = auditor.run_audit(cfg, ["ampleness"], keep_reports=True)[0].to_json()
    assert a == b


@pytest.mark.parametrize("fault", ["flip_cone", "flip_ratio", "flip_gg"])
def test_injected_faults_detected(fault):
    cfg = small_rational_config(n_divisors=40, fault=fault, surfaces=("hirzebruch:2",))
    out = auditor.run_audit(cfg, ["ampleness"])[0]
    assert len(out.discrepancies) >= 1, fault


def test_inconclusives_only_on_cone_boundary():
    """Catalog-limited vanishing witnesses happen exactly on nef-boundary rays."""
    out = auditor.run_audit(small_rational_config(n_divisors=200), ["ampleness"])[0]
    assert out.discrepancies == []
    from divpos.divisor import parse_divisor
    from divpos.surface import hirzebruch
    import divpos.positivity as pos

    S = hirzebruch(2)
    for entry in out.inconclusives:
        if entry["criterion"] != "QI":
            continue
        D = parse_divisor(entry["divisor"])
        nef, _ = pos.is_nef(S, D)
        ample, _ = pos.is_ample_cone(S, D)
        assert nef and not ample, entry


# -- the ampleness judge, branch by branch ------------------------------------------------

# an ample divisor on F_2 per profile: k = 2 for the rational one, and each report
# has QIII all_from 2, QIV scan_m4 2, proxy onset bounds 2 and tail bounds 2 at m_max 60
JUDGED = {"rational": (auditor.rational_profile(30, 12), "1/2*C0 + 3/2*f"),
          "quadratic": (auditor.quadratic_profile(2, 10), "1/2*C0 + (3/2+sqrt(2))*f")}
EXACT = {"rational": ("QVI", "QVII", "QVIII", "QIX", "QX"),
         "quadratic": ("Rii", "Riii", "Riv", "Rv", "Rvi")}
FALSE = {"holds": False}


def _judged(kind, ground=True, delta=None, **changes):
    """_classify_ampleness's (criterion, detail) discrepancies and inconclusives for the
    real report of JUDGED[kind], with its ground truth and delta set and, per criterion,
    the fields in changes replaced."""
    profile, text = JUDGED[kind]
    S = resolve_surface("hirzebruch:2")
    config = auditor.AuditConfig(seed=1, surfaces=(S.name,), n_divisors=1, profile=profile,
                                 m_max=60)
    safe = auditor.safe_delta(S, profile)
    site = auditor.SurfaceAudit(S, safe, min(Fraction(1, 1000), safe), pos.default_twists(S),
                                [], False)
    ev = pos.Evaluation(S, parse_divisor(text), config.m_max)
    report = pos.build_report(S, ev, delta=site.delta, twists=site.twists)
    assert report.ground_truth
    verdicts = {cid: dataclasses.replace(report.verdicts[cid], **fields)
                for cid, fields in changes.items()}
    report = dataclasses.replace(report, ground_truth=ground,
                                 delta=report.delta if delta is None else delta,
                                 verdicts={**report.verdicts, **verdicts})
    out = auditor.AuditOutcome(suite="ampleness", config=config)
    auditor._classify_ampleness(site, ev, report, out)
    return ([(e["criterion"], e["detail"]) for e in out.discrepancies],
            [(e["criterion"], e["detail"]) for e in out.inconclusives])


def _missed(cids, holds, ground):
    return [(cid, f"exact criterion returned {holds}, cone oracle says {ground}") for cid in cids]


def _tails_from(m, **fields):
    return {"QIII": {**fields, "witness": {"first_m": m, "all_from": m}},
            "QIV": {**fields, "witness": {"first_m": m, "all_from": m, "scan_m4": m}}}


def _not_ample(kind, **changes):
    """Changes that make every verdict of JUDGED[kind] agree with "not ample", then changes."""
    agree = {cid: FALSE for cid in EXACT[kind]}
    if kind == "rational":
        agree.update(QI=FALSE, QII=FALSE, QV=FALSE, **_tails_from(None, holds=False))
    else:
        agree.update(Ri=FALSE)
    return {**agree, **changes}


WITNESS_FOUND = "witness found; twist catalog cannot refute non-ampleness"
NO_BOUND = "no witness up to m_max=60; no effective bound"
TAILS_MISSING = {**_tails_from(None), "QV": FALSE}
TAILS_MISSED = [("QIII", "very-ample tail missing though onset bound 2 applies"),
                ("QIV", "section-vanishing tail missing though bound 2 applies"),
                ("QV", "tail decision False contradicts cone oracle True")]
TAILS_CONTRADICTED = [(cid, "tail decision True contradicts cone oracle False")
                      for cid in ("QIII", "QIV", "QV")]


@pytest.mark.parametrize("kind, ground, delta, changes, discrepancies, inconclusives", [
    pytest.param(kind, True, None, {}, [], [], id=f"{kind}-ample-agrees")
    for kind in JUDGED] + [
    pytest.param(kind, False, None, _not_ample(kind), [], [], id=f"{kind}-not-ample-agrees")
    for kind in JUDGED] + [
    # exact: a disagreement is a discrepancy, except QX/Rvi above the safe radius
    pytest.param(kind, True, Fraction(1, 10), {cid: FALSE for cid in EXACT[kind]},
                 _missed(EXACT[kind][:4], False, True),
                 [(EXACT[kind][4], f"delta 1/10 above safe radius {safe}")],
                 id=f"{kind}-exact-above-safe-radius")
    for kind, safe in (("rational", "1/792"), ("quadratic", "1/155520"))] + [
    pytest.param(kind, True, None, {cid: FALSE for cid in EXACT[kind]},
                 _missed(EXACT[kind], False, True), [], id=f"{kind}-exact-missed")
    for kind in JUDGED] + [
    pytest.param(kind, False, None, {**_not_ample(kind), **{cid: {} for cid in EXACT[kind]}},
                 _missed(EXACT[kind], True, False), [], id=f"{kind}-exact-spurious")
    for kind in JUDGED] + [
    # proxies: a conclusive miss of an ample D, or an inconclusive one
    pytest.param("rational", True, None, {"QI": FALSE, "QII": {"holds": None}},
                 [("QI", "no witness though onset bound 2 <= m_max")], [("QII", NO_BOUND)],
                 id="rational-proxies-missed"),
    pytest.param("quadratic", True, None, {"Ri": FALSE, "QI": {"holds": None}},
                 [("Ri", "no witness though onset bound 2 <= m_max")], [("QI", NO_BOUND)],
                 id="quadratic-proxies-missed"),
    # a witness for a D that is not ample: inconclusive, except for the one-directional QI
    pytest.param("rational", False, None, _not_ample("rational", QI={}, QII={}), [],
                 [("QI", WITNESS_FOUND), ("QII", WITNESS_FOUND)],
                 id="rational-not-ample-witness-found"),
    pytest.param("quadratic", False, None, _not_ample("quadratic", Ri={}), [],
                 [("Ri", WITNESS_FOUND)], id="quadratic-not-ample-witness-found"),
    # tails: missing though the bound applies, or a contradicted decision
    pytest.param("rational", True, None, TAILS_MISSING, TAILS_MISSED, [],
                 id="rational-tails-missing"),
    pytest.param("quadratic", True, None, TAILS_MISSING, TAILS_MISSED, [],
                 id="quadratic-tails-missing"),
    pytest.param("rational", False, None,
                 _not_ample("rational", QIII={}, QIV={}, QV={}), TAILS_CONTRADICTED, [],
                 id="rational-not-ample-tails-contradicted"),
    # a tail that covers a full period of a D that is not ample, except one-directional ones
    pytest.param("rational", False, None, _not_ample("rational", **_tails_from(58, holds=False)),
                 [("QIII", "very-ample tail from 58 covers a full period k=2 yet the divisor "
                           "is not ample"),
                  ("QIV", "section-vanishing tail covers a full period yet not ample")], [],
                 id="rational-not-ample-full-period"),
    pytest.param("rational", False, None, _not_ample("rational", **_tails_from(59, holds=False)),
                 [], [], id="rational-not-ample-short-of-a-period"),
    pytest.param("quadratic", False, None,
                 _not_ample("quadratic", **_tails_from(58)), [], [],
                 id="quadratic-not-ample-one-directional-tails"),
])
def test_ampleness_judge_branches(kind, ground, delta, changes, discrepancies, inconclusives):
    """Each branch of _classify_ampleness under both profiles, from a real report changed
    by dataclasses.replace: the exact entries, in order."""
    assert _judged(kind, ground, delta, **changes) == (discrepancies, inconclusives)


# -- the audit loop ---------------------------------------------------------------------

FAULTS = ("flip_cone", "flip_ratio", "flip_gg")


def loop_configs() -> dict:
    """The rational and quadratic configs, and each fault config of the fault tests."""
    out = {"rational": small_rational_config(), "quadratic": small_quadratic_config()}
    for fault in FAULTS:
        out[fault] = small_rational_config(n_divisors=40, fault=fault, surfaces=("hirzebruch:2",))
    return out


@pytest.mark.parametrize("name", sorted(loop_configs()))
def test_suites_run_together_equal_each_suite_run_alone(name):
    cfg = loop_configs()[name]
    together = auditor.run_audit(cfg, auditor.SUITES, keep_reports=True)
    alone = [auditor.run_audit(cfg, [suite], keep_reports=True)[0] for suite in auditor.SUITES]
    assert [o.to_json() for o in together] == [o.to_json() for o in alone]


@pytest.mark.parametrize("suites", [auditor.SUITES, ("bigness",),
                                    ("nef_from_multiples", "ampleness")])
@pytest.mark.parametrize("fault", [None, "flip_gg"])
def test_each_divisor_is_sampled_and_evaluated_once(suites, fault, monkeypatch):
    """surfaces x n_divisors Evaluations, plus one per divisor for the flip_gg reports."""
    import sys

    import divpos.positivity as pos

    built, sampled = [], []

    class Counting(pos.Evaluation):
        __slots__ = ()

        def __init__(self, *args):
            built.append(sys._getframe(1).f_globals["__name__"])
            super().__init__(*args)

    real_sample = auditor.sample_divisor
    monkeypatch.setattr(pos, "Evaluation", Counting)
    monkeypatch.setattr(auditor, "sample_divisor", lambda *a: sampled.append(a[0].name)
                        or real_sample(*a))
    cfg = small_rational_config(n_divisors=6, fault=fault)
    outcomes = auditor.run_audit(cfg, suites)
    assert [o.suite for o in outcomes] == list(suites)
    per_divisor = 2 if fault == "flip_gg" and "ampleness" in suites else 1
    assert built.count("divpos.auditor") == 2 * 6 * per_divisor
    assert sampled == ["hirzebruch:2"] * 6 + ["p2"] * 6


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["hirzebruch:0", "hirzebruch:1", "hirzebruch:2", "hirzebruch:3", "p2"]),
       st.sampled_from([auditor.rational_profile(6, 4), auditor.quadratic_profile(2, 4),
                        auditor.quadratic_profile(3, 3, 2)]),
       st.integers(0, 2**32), st.integers(10, 60))
def test_the_suites_handed_off_scans_equal_the_full_walks(surface, profile, seed, m_max):
    """audit_nef_from_multiples and audit_bigness hand their scans ev.tail_start and
    ev.first_member; each result equals the walk over every row, for D nef or not,
    rational or not."""
    real = {name: getattr(pos, name) for name in ("very_ample_multiples", "first_big_multiple")}
    calls = []

    def recording(name):
        def scan(S, ev, **handoff):
            result = real[name](S, ev, **handoff)
            assert result == real[name](S, pos.Evaluation(S, ev.divisor, ev.m_max)), ev.divisor
            calls.append((name, ev.divisor, handoff))
            return result
        return scan

    cfg = auditor.AuditConfig(seed=seed, surfaces=(surface,), n_divisors=4, profile=profile,
                              m_max=m_max)
    with mock.patch.multiple(pos, **{name: recording(name) for name in real}):
        auditor.run_audit(cfg, ["nef_from_multiples", "bigness"])
    assert [name for name, _, _ in calls] == ["very_ample_multiples", "first_big_multiple"] * 4
    S = resolve_surface(surface)
    for name, D, handoff in calls:
        ev = pos.Evaluation(S, D, m_max)
        if name == "very_ample_multiples":
            assert handoff == {"onset": ev.tail_start("very_ample"),
                               "first": ev.first_member("very_ample")}
        else:
            assert handoff == {"first": ev.first_member("big")}


@pytest.mark.parametrize("suites", [["nef"], ["ampleness", "typo"], ["bigness", "bigness"]])
def test_run_audit_refuses_unknown_or_repeated_suites(suites):
    with pytest.raises(ConfigError, match="suites"):
        auditor.run_audit(small_rational_config(n_divisors=1), suites)


# -- replication ------------------------------------------------------------------------


def test_replicate_counterexample():
    result = auditor.replicate_example_es_nna([2, 3, 10])
    assert result["ok"]
    pairings = [row["pairing_with_C0"] for row in result["cases"]]
    assert pairings == ["0", "-1/2", "-4"]
    for row in result["cases"]:
        assert row["very_ample_integral_part"] is True
        assert row["ample"] is False


def test_replicate_rejects_small_e():
    with pytest.raises(InvalidInput):
        auditor.replicate_example_es_nna([1])


# -- nef-from-multiples --------------------------------------------------------------------


def test_nef_from_multiples_clean_both_profiles():
    for cfg in (small_rational_config(), small_quadratic_config()):
        out = auditor.run_audit(cfg, ["nef_from_multiples"])[0]
        assert out.discrepancies == []


def test_weyl_subcheck_runs_on_quadratic_profile():
    out = auditor.run_audit(small_quadratic_config(n_divisors=10), ["nef_from_multiples"])[0]
    checks = out.replications.get("weyl_checks", [])
    assert checks, "no irrational coefficient met a negative component pairing"
    for c in checks:
        assert c["k"] >= 1


# -- bigness audit ----------------------------------------------------------------------


def test_bigness_audit_clean():
    for cfg in (small_rational_config(n_divisors=60),
                small_quadratic_config(n_divisors=40)):
        out = auditor.run_audit(cfg, ["bigness"])[0]
        assert out.discrepancies == []


def test_bqr_spot_checks_present_and_positive():
    out = auditor.run_audit(small_rational_config(n_divisors=60), ["bigness"])[0]
    spots = out.replications.get("bqr_spot_checks", [])
    assert spots
    svals = {s["s"] for s in spots}
    assert svals == {"1/3", "sqrt(2)", "2"}
    assert all(s["big"] for s in spots)


@pytest.mark.parametrize("field, forged", [("epsilon", "1/7"), ("lambda", ["1", "1"])])
def test_a_tampered_certificate_string_fails_reverification(field, forged):
    """_reverify_report parses and re-checks the certificate strings a report emits: an
    untouched report passes, one whose epsilon or lambda string is changed does not."""
    from divpos.surface import hirzebruch

    S, D = hirzebruch(2), parse_divisor("5/2*C0 + 7*f")
    report = pos.build_report(S, D, 20)
    b1 = report.verdicts["B1"]
    assert b1.holds and b1.witness["certificate"][field] != forged
    out = auditor.AuditOutcome("ampleness", small_rational_config())
    auditor._reverify_report(S, D, report, out)
    assert out.discrepancies == []
    cert = {**b1.witness["certificate"], field: forged}
    tampered = dataclasses.replace(report, verdicts={
        **report.verdicts, "B1": dataclasses.replace(b1, witness={"certificate": cert})})
    auditor._reverify_report(S, D, tampered, out)
    assert [(e["criterion"], e["detail"][:19]) for e in out.discrepancies] == \
        [("B1", "certificate invalid")]


def test_bigness_fault_detected():
    cfg = small_rational_config(n_divisors=30, fault="flip_cone",
                                surfaces=("hirzebruch:2",))
    out = auditor.run_audit(cfg, ["bigness"])[0]
    assert out.discrepancies


@pytest.mark.parametrize("ground, holds, bound, recorded", [
    (True, True, 5, None),
    (False, False, 5, None),
    (True, False, None, ("inconclusive", "onset None")),
    (True, False, 121, ("inconclusive", "onset 121")),
    (True, False, 120, ("discrepancy", "missed")),
    (False, True, 5, ("discrepancy", "spurious")),
])
def test_one_sided_bigness_rule(ground, holds, bound, recorded):
    from divpos.surface import hirzebruch

    out = auditor.AuditOutcome("bigness", small_rational_config())
    asked = []

    def onset():
        asked.append(bound)
        return bound

    auditor._judge_one_sided(out, hirzebruch(2), RDivisor({"f": 1}), ground, 120, "check",
                             holds, onset, "onset {}", "missed", "spurious")
    got = [("discrepancy", e["detail"]) for e in out.discrepancies] + \
        [("inconclusive", e["detail"]) for e in out.inconclusives]
    assert got == ([recorded] if recorded else [])
    # the bound is computed only for a missed positive
    assert asked == ([bound] if ground and not holds else [])


# -- per-divisor bounds -------------------------------------------------------------------


def test_safe_delta_scales_with_profile():
    from divpos.surface import hirzebruch

    S = hirzebruch(2)
    rat = auditor.safe_delta(S, auditor.rational_profile(30, 12))
    quad = auditor.safe_delta(S, auditor.quadratic_profile(2, 10))
    assert Fraction(1, 1000) <= rat
    assert quad < rat
    assert quad > 0


_SQRT2 = QuadExt(0, 1, 2)
# coefficients down to 17 - 12*sqrt(2) ~ 0.029 and 1/40, whose big onsets are 35 and 40
_BIG_COEFFICIENTS = [QuadExt(Fraction(n, d)) for n, d in [
    (-1, 2), (0, 1), (1, 3), (1, 1), (5, 2), (7, 3), (1, 12), (1, 40)]] + [
    QuadExt(a) + _SQRT2 * b for a, b in [
        (-1, 1), (2, -1), (3, -2), (Fraction(-1, 2), Fraction(1, 2)), (-7, 5), (17, -12)]]


def test_big_and_h0_positive_onsets_bound_the_bigness_judges():
    """The bounds audit_bigness reads, by brute force over D on F_0..F_3 and P^2.

    For big D: the claim_boh tail and the first big multiple start by the big
    onset, each kodaira tail by the h0_positive onset at -F, and the growth
    test passes at m_max sampled from max(10, 32 * big onset) up to 3000.  For
    D not big every bound is None, so a miss is never called a discrepancy.
    """
    from divpos.surface import hirzebruch, projective_plane

    n = 0
    for S in [hirzebruch(e) for e in range(4)] + [projective_plane()]:
        catalog = pos.default_effective_catalog(S)
        for coeffs in product(_BIG_COEFFICIENTS, repeat=S.rho):
            D = RDivisor(dict(zip(S.basis, coeffs)))
            if D.is_zero():
                continue
            probe = pos.Evaluation(S, D, 10)
            onset = probe.onset("big")
            kodaira = [probe.onset("h0_positive", -F) for F in catalog]
            if not pos.is_big(S, D).big:
                assert onset is None and kodaira == [None] * len(catalog), (S.name, D)
                continue
            n += 1
            ev = pos.Evaluation(S, D, max(onset, *kodaira) + 10)
            assert pos.claim_boh_check(S, ev) <= onset, (S.name, D)
            assert pos.first_big_multiple(S, ev) <= onset, (S.name, D)
            for F, bound in zip(catalog, kodaira):
                assert pos.kodaira_check(S, ev, F) <= bound, (S.name, D, F)
            lo = max(10, 32 * onset)
            for m_max in (lo, lo + 1 + (n * 7919) % (3000 - lo)):   # each builds a column
                assert pos.big_growth_check(S, D, m_max).passed, (S.name, D, m_max)
    assert n == 588


@pytest.mark.parametrize("e", [0, 1, 3])
def test_audits_clean_on_other_hirzebruch_surfaces(e):
    cfg = auditor.AuditConfig(
        seed=11, surfaces=(f"hirzebruch:{e}",), n_divisors=25,
        profile=auditor.rational_profile(20, 8), m_max=120)
    for out in auditor.run_audit(cfg, ["ampleness", "bigness"]):
        assert out.discrepancies == [], out.suite
