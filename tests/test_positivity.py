"""Criterion-level tests: worked examples, certificates, scan witnesses."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divpos.positivity as pos
from divpos.divisor import RDivisor, ZDivisor, parse_divisor
from divpos.errors import InvalidInput
from divpos.exact_numbers import QuadExt, parse_quadext
from divpos.surface import CurveClass, cohomology, hirzebruch, projective_plane

F2 = hirzebruch(2)
F3 = hirzebruch(3)
P2 = projective_plane()

D_BOUNDARY = parse_divisor("3/2*C0 + 3*f")  # nef-boundary: not ample, [D] very ample
D_AMPLE = parse_divisor("C0 + 3*f")
SQRT2 = QuadExt(0, 1, 2)


# -- intersection ----------------------------------------------------------------


def test_intersect_worked_values():
    assert pos.intersect(F2, D_BOUNDARY, "C0") == QuadExt(0)
    assert pos.intersect(F3, parse_divisor("3/2*C0 + 4*f"), "C0") == QuadExt(Fraction(-1, 2))
    assert pos.intersect(F2, D_AMPLE, D_AMPLE) == QuadExt(4)


def test_intersect_bilinear():
    x = parse_divisor("sqrt(2)*C0 + 3*f")
    y = parse_divisor("C0 - f")
    lhs = pos.intersect(F2, x, y)
    # (sqrt2*C0 + 3f).(C0 - f) = sqrt2*(-2) + sqrt2*(-1)... expand by matrix:
    # C0.C0=-2, C0.f=1: sqrt2*(-2) - sqrt2*(1) + 3*(1) - 3*0
    assert lhs == QuadExt(3, -3, 2)


# -- nef / ample cone --------------------------------------------------------------


def test_is_nef_examples():
    assert pos.is_nef(F2, D_BOUNDARY) == (True, None)
    ok, witness = pos.is_nef(F2, "C0")
    assert not ok and witness == "C0"
    assert pos.is_nef(F2, RDivisor({})) == (True, None)


def test_is_ample_cone_examples():
    assert pos.is_ample_cone(F2, D_AMPLE) == (True, None)
    ok, witness = pos.is_ample_cone(F2, D_BOUNDARY)
    assert not ok and witness == "C0"
    assert pos.is_ample_cone(P2, parse_divisor("1/2*L"))[0]


def test_nakai_examples():
    ok, info = pos.nakai_test(F2, D_AMPLE)
    assert ok and info["self_intersection"] == "4"
    ok, info = pos.nakai_test(F2, "f")
    assert not ok and info["violation"] == "self_intersection"
    assert not pos.nakai_test(F2, D_BOUNDARY)[0]


def test_nakai_agrees_with_cone_on_grid():
    for a in range(-6, 7):
        for b in range(-6, 7):
            V = ZDivisor((a, b))
            assert pos.nakai_test(F2, V)[0] == pos.is_ample_cone(F2, V)[0]


# -- ratio / seshadri ---------------------------------------------------------------


def test_ratio_bound_examples():
    H = D_AMPLE
    assert pos.ratio_bound(F2, D_BOUNDARY, H) == QuadExt(0)
    assert pos.ratio_bound(F2, H, H) == QuadExt(1)
    # D.C0 = 1, H'.C0 = 2, D.f = 1, H'.f = 1 -> min(1/2, 1)
    assert pos.ratio_bound(F2, D_AMPLE, parse_divisor("C0 + 4*f")) == QuadExt(Fraction(1, 2))


def test_ratio_bound_requires_ample_reference():
    with pytest.raises(InvalidInput):
        pos.ratio_bound(F2, D_AMPLE, "f")


def test_seshadri_examples():
    assert pos.seshadri_bound(F2, D_AMPLE) == QuadExt(1)
    assert pos.seshadri_bound(F2, D_BOUNDARY) == QuadExt(0)


def test_seshadri_multiplicity_halves_ratio():
    catalog = (CurveClass("C0", (1, 0), 2), CurveClass("f", (0, 1), 1))
    base = pos.seshadri_bound(F2, "4*C0 + 12*f")
    halved = pos.seshadri_bound(F2, "4*C0 + 12*f", catalog)
    assert base == QuadExt(4)
    assert halved == QuadExt(2)  # C0 pairing 4 divided by multiplicity 2


def test_positive_seshadri_iff_ample_on_grid():
    for a in range(-5, 6):
        for b in range(-5, 6):
            V = ZDivisor((a, b))
            assert (pos.seshadri_bound(F2, V).sign() > 0) == pos.is_ample_cone(F2, V)[0]


# -- neighborhood -------------------------------------------------------------------


def test_neighborhood_examples():
    assert pos.neighborhood_test(F2, D_AMPLE, Fraction(1, 1000))
    assert not pos.neighborhood_test(F2, D_BOUNDARY, Fraction(1, 1000))
    assert not pos.neighborhood_test(F2, D_BOUNDARY, Fraction(1, 10**9))
    assert pos.neighborhood_test(P2, "L", Fraction(1, 2))


def test_neighborhood_rejects_nonpositive_delta():
    with pytest.raises(InvalidInput):
        pos.neighborhood_test(F2, D_AMPLE, Fraction(0))


# -- very ample multiples -------------------------------------------------------------


def test_va_multiples_counterexample():
    scan = pos.very_ample_multiples(F2, D_BOUNDARY, 50)
    assert scan.first_m == 1                      # [D] = C0 + 3f is very ample
    assert scan.all_from is None                  # m = 2 gives 3C0 + 6f, not very ample
    assert not pos.is_ample_cone(F2, D_BOUNDARY)[0]
    assert not F2.very_ample(ZDivisor((3, 6)))


def test_va_multiples_ample():
    scan = pos.very_ample_multiples(F2, D_AMPLE, 50)
    assert scan.first_m == 1 and scan.all_from == 1


def test_va_multiples_fiber_never():
    scan = pos.very_ample_multiples(F2, "f", 200)
    assert scan.first_m is None and scan.all_from is None


# -- twisted global generation / vanishing ---------------------------------------------


def test_glob_gen_examples():
    assert pos.glob_gen_twist_test(F2, D_AMPLE, ZDivisor((-1, 0)), 50) == 1
    assert pos.glob_gen_twist_test(F2, "f", ZDivisor((0, 0)), 50) == 0
    assert pos.glob_gen_twist_test(F2, "f", ZDivisor((-1, 0)), 200) is None
    assert pos.glob_gen_twist_test(F2, D_AMPLE, ZDivisor((0, 0)), 50) == 0


def test_vanishing_examples():
    assert pos.vanishing_test(F2, D_AMPLE, ZDivisor((0, 0)), 50) == 0
    # G = -4f keeps the C0-pairing of G + [mD] at most -3 for all m
    assert pos.vanishing_test(F2, D_BOUNDARY, ZDivisor((0, -4)), 200) is None


def test_vanishing_adversarial_twist_has_h2():
    m = 3
    intm = ZDivisor((4, 9))  # [3 * D_BOUNDARY] on F_2
    G = F2.canonical_class - intm
    h0, h1, h2 = cohomology(F2, G + intm)
    assert h2 == 1  # Serre duality back to h0(O) = 1


def test_section_vanishing_scan():
    assert pos.section_vanishing_scan(F2, D_AMPLE, 50) == 1
    assert pos.section_vanishing_scan(F2, "f", 200) is None


# -- chi growth --------------------------------------------------------------------


def test_chi_growth_closed_form():
    rows, estimate = pos.chi_growth(F2, D_AMPLE, list(range(1, 6)))
    assert [c for _, c in rows] == [6, 15, 28, 45, 66]
    assert [(m + 1) * (2 * m + 1) for m in range(1, 6)] == [c for _, c in rows]
    assert estimate == Fraction(2 * 66, 25)


def test_chi_growth_zero_divisor():
    rows, _ = pos.chi_growth(F2, RDivisor({}), [1, 2, 3])
    assert [c for _, c in rows] == [1, 1, 1]


def test_chi_growth_quadratic_coefficients():
    D = RDivisor({"C0": SQRT2, "f": SQRT2 * 3})
    rows, _ = pos.chi_growth(F2, D, [10])
    # [10D] = 14 C0 + 42 f; chi by Riemann-Roch and by section count agree
    assert rows == [(10, 435)]
    assert F2.h0(ZDivisor((14, 42))) == 435


# -- bigness -----------------------------------------------------------------------


def test_is_big_examples():
    res = pos.is_big(F2, D_AMPLE)
    assert res.big and res.certificate is not None
    assert not pos.is_big(F2, "f").big
    assert not pos.is_big(F2, "C0").big
    assert not pos.is_big(P2, "-L").big


def test_is_big_quadratic_with_rational_epsilon():
    D = RDivisor({"C0": SQRT2, "f": QuadExt(3)})
    res = pos.is_big(F2, D)
    assert res.big
    eps = Fraction(res.certificate["epsilon"])
    assert eps > 0
    lam = [parse_quadext(x) for x in res.certificate["lambda"]]
    assert all(x.sign() >= 0 for x in lam)
    pos.verify_big_certificate(F2, pos.rdivisor_on(F2, D), res.certificate)


def test_boundary_divisor_big_but_not_ample():
    # interior of the effective cone does not require cone positivity
    assert pos.is_big(F2, D_BOUNDARY).big
    assert not pos.is_ample_cone(F2, D_BOUNDARY)[0]


def test_semigroup_examples():
    assert pos.semigroup(F2, parse_divisor("C0 - 1/2*f"), 10) == [0]
    assert pos.semigroup(F2, D_BOUNDARY, 20) == list(range(21))
    assert pos.semigroup(F2, RDivisor({}), 7) == list(range(8))


def test_kodaira_examples():
    assert pos.kodaira_check(F2, D_AMPLE, ZDivisor((1, 0)), 50) == 1
    assert pos.kodaira_check(F2, D_AMPLE, ZDivisor((0, 0)), 50) == 0
    D = RDivisor({"C0": SQRT2, "f": SQRT2 * 3})
    assert pos.kodaira_check(F2, D, ZDivisor((1, 1)), 50) == 1


def test_kodaira_preconditions():
    with pytest.raises(InvalidInput):
        pos.kodaira_check(F2, "f", ZDivisor((1, 0)), 50)
    with pytest.raises(InvalidInput):
        pos.kodaira_check(F2, D_AMPLE, ZDivisor((-1, 0)), 50)


def test_big_growth_ample_closed_form():
    growth = pos.big_growth_check(F2, D_AMPLE, 100)
    assert growth.passed
    h0 = F2.h0(ZDivisor((100, 300)))
    assert h0 == 101 * 201
    assert growth.leading == Fraction(h0, 100 * 100)
    assert Fraction(2) <= growth.leading <= Fraction(2) + Fraction(4, 100)


def test_big_growth_fails_on_fiber_and_zero():
    assert not pos.big_growth_check(F2, "f", 100).passed
    assert not pos.big_growth_check(F2, RDivisor({}), 100).passed
    assert not pos.big_growth_check(F2, "C0", 100).passed


def test_claim_boh_examples():
    D = RDivisor({"C0": SQRT2, "f": SQRT2 * 3})
    assert pos.claim_boh_check(F2, D, 50) == 1
    assert pos.claim_boh_check(F2, parse_divisor("1/2*C0 + 1/2*f"), 50) == 2
    assert pos.claim_boh_check(F2, D_AMPLE, 50) == 1
    with pytest.raises(InvalidInput):
        pos.claim_boh_check(F2, "f", 50)


def test_first_big_multiple():
    assert pos.first_big_multiple(F2, parse_divisor("1/2*C0 + 1/2*f"), 50) == 2
    assert pos.first_big_multiple(F2, "f", 100) is None


# -- onset bounds ---------------------------------------------------------------------


def test_onset_bound_is_valid():
    """Every m past the bound satisfies the predicate; spot-check densely."""
    cases = [
        (D_AMPLE, "very_ample", None),
        (D_AMPLE, "globally_generated", ZDivisor((-1, -1))),
        (parse_divisor("1/3*C0 + 5/4*f"), "very_ample", None),
        (parse_divisor("1/3*C0 + 5/4*f"), "vanishing", ZDivisor((-1, 0))),
        (RDivisor({"C0": SQRT2, "f": SQRT2 * 3}), "very_ample", None),
    ]
    for D, kind, twist in cases:
        bound = pos.onset_bound(F2, D, kind, twist)
        assert bound is not None
        mults = pos.Evaluation(F2, D, bound + 40).multiples
        for m in range(bound, bound + 40):
            V = mults[m] if twist is None else twist + mults[m]
            if kind == "very_ample":
                assert F2.very_ample(V), (D, m)
            elif kind == "globally_generated":
                assert F2.globally_generated(V), (D, m)
            elif kind == "vanishing":
                _, h1, h2 = cohomology(F2, V)
                assert h1 == 0 and h2 == 0, (D, m)


def test_onset_bound_none_for_boundary():
    assert pos.onset_bound(F2, D_BOUNDARY, "very_ample") is None


# -- scaling invariance -----------------------------------------------------------------

scales = st.sampled_from([Fraction(1, 3), Fraction(2), Fraction(7, 5), Fraction(9, 4)])
coef = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@given(coef, coef, scales)
@settings(max_examples=60)
def test_scale_invariance_of_cone_verdicts(a, b, q):
    D = RDivisor({"C0": a, "f": b})
    Dq = D.scaled(q)
    assert pos.is_ample_cone(F2, D)[0] == pos.is_ample_cone(F2, Dq)[0]
    assert pos.is_nef(F2, D)[0] == pos.is_nef(F2, Dq)[0]
    assert pos.is_big(F2, D).big == pos.is_big(F2, Dq).big


# -- report -----------------------------------------------------------------------------


def test_report_counterexample_shape():
    r = pos.build_report(F2, D_BOUNDARY, m_max=60)
    assert r.ground_truth is False
    assert r.verdicts["P1"].holds is True
    assert r.verdicts["P1"].witness["witness_m"] == 1
    assert r.verdicts["QIX"].holds is False
    assert r.verdicts["QVII"].witness["epsilon"] == "0"
    assert r.verdicts["QIII"].holds is False
    assert r.verdicts["B1"].holds is True  # big but not ample
    assert r.verdicts["P10"].same_as == "QIX"
    assert r.verdicts["Rv"].holds is False


def test_report_ample_all_hold():
    r = pos.build_report(F2, D_AMPLE, m_max=60)
    assert r.ground_truth is True
    for cid in ("QI", "QII", "QIII", "QIV", "QV", "QVI", "QVII", "QVIII", "QIX", "QX",
                "B1", "B2", "B3", "B4"):
        assert r.verdicts[cid].holds is True, cid


def test_report_json_roundtrip():
    for D in (D_BOUNDARY, D_AMPLE, RDivisor({"C0": SQRT2, "f": QuadExt(3)})):
        r = pos.build_report(F2, D, m_max=40)
        blob = json.dumps(r.to_json_dict(), sort_keys=True)
        back = pos.report_from_json_dict(json.loads(blob))
        assert json.dumps(back.to_json_dict(), sort_keys=True) == blob


def test_default_twists_match_convention():
    assert [t.coords for t in pos.default_twists(F2)] == [(0, 0), (-1, 0), (0, -1), (-1, -1)]
    assert [t.coords for t in pos.default_twists(P2)] == [(0,), (-1,)]
    assert [t.coords for t in pos.default_effective_catalog(F2)] == [(1, 0), (0, 1), (1, 1)]


def test_intersect_mixed_fields_rejected():
    from divpos.errors import MixedFieldError

    x = RDivisor({"C0": QuadExt(0, 1, 2)})
    y = RDivisor({"f": QuadExt(0, 1, 3)})
    with pytest.raises(MixedFieldError):
        pos.intersect(F2, x, y)


def test_p1_definitive_negative_on_fiber():
    r = pos.build_report(F2, "f", m_max=40)
    v = r.verdicts["P1"]
    assert v.holds is False and v.conclusive
    assert pos.definitive_negative(F2, "f", "very_ample")
    assert pos.definitive_negative(F2, "-2*C0 + 5*f", "very_ample")
    assert not pos.definitive_negative(F2, D_BOUNDARY, "very_ample")
