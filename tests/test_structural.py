"""Structural identities the audit semantics lean on.

These are the load-bearing facts behind the one-sided classification
rules: periodicity of integral parts of rational divisors, failure
recurrence of tail predicates on the nef boundary, and the cone-membership
fallback for supernumerary effective generators.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divpos.positivity as pos
from divpos.divisor import RDivisor, ZDivisor, integral_part, integrality_denominator
from divpos.exact_numbers import QuadExt
from divpos.surface import SurfaceModel, CurveClass, hirzebruch

F2 = hirzebruch(2)
coef = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(coef, coef, st.integers(min_value=0, max_value=300))
@settings(max_examples=80)
def test_integral_part_periodicity(a, b, m):
    """[(m+k)D] = [mD] + kD exactly, k the integrality denominator."""
    D = RDivisor({"C0": a, "f": b})
    if D.is_zero():
        return
    k = integrality_denominator(D, F2.basis)
    kD = integral_part(D.scaled(k), F2.basis)
    lhs = integral_part(D.scaled(m + k), F2.basis)
    rhs = integral_part(D.scaled(m), F2.basis) + kD
    assert lhs == rhs


@given(coef, coef)
@settings(max_examples=120, deadline=None)
def test_va_tail_longer_than_period_forces_ample(a, b):
    """The window rule: a very-ample tail across a full period certifies
    cone positivity for rational divisors."""
    D = RDivisor({"C0": a, "f": b})
    if D.is_zero():
        return
    k = integrality_denominator(D, F2.basis)
    scan = pos.very_ample_multiples(F2, D, 200)
    ample = pos.is_ample_cone(F2, D)[0]
    if scan.all_from is not None and 200 - scan.all_from >= k:
        assert ample
    if ample:
        # and the tail must in fact appear within the derived onset
        bound = pos.onset_bound(F2, D, "very_ample")
        assert bound is not None
        if bound <= 200:
            assert scan.all_from is not None and scan.all_from <= bound


def test_zero_pairing_irrational_tail_broken_by_weyl():
    """D.C0 = 0 with sqrt(2) coefficients: [mD] rides the nef boundary and
    very-ampleness fails whenever the fractional part dips below 1/2."""
    D = RDivisor({"C0": QuadExt(0, 1, 2), "f": QuadExt(0, 2, 2)})
    assert pos.intersect(F2, D, "C0") == QuadExt(0)
    mults = pos.Evaluation(F2, D, 200).multiples
    fails = [m for m in range(1, 201) if not F2.very_ample(mults[m])]
    # failures recur with small gaps, so no tail can span the audit window
    assert fails and max(b - a for a, b in zip(fails, fails[1:])) <= 10
    scan = pos.very_ample_multiples(F2, D, 200)
    assert scan.all_from is None or 200 - scan.all_from < 50


def test_nakai_cone_agreement_p2():
    from divpos.surface import projective_plane

    P2 = projective_plane()
    for d in range(-10, 11):
        V = ZDivisor((d,))
        assert pos.nakai_test(P2, V)[0] == pos.is_ample_cone(P2, V)[0]


# -- supernumerary effective generators (Caratheodory path) ----------------------


def surface_with_redundant_generator() -> SurfaceModel:
    return SurfaceModel(
        name="f2-redundant",
        basis=("C0", "f"),
        intersection_matrix=((-2, 1), (1, 0)),
        mori_generators=(CurveClass("C0", (1, 0)), CurveClass("f", (0, 1))),
        effective_generators=(ZDivisor((1, 0)), ZDivisor((0, 1)), ZDivisor((1, 1))),
        canonical_class=ZDivisor((-2, -4)),
        chi_structure=1,
    )


def test_caratheodory_interior_point_is_big():
    S = surface_with_redundant_generator()
    res = pos.is_big(S, RDivisor({"C0": 2, "f": 3}))
    assert res.big
    eps = Fraction(res.certificate["epsilon"])
    assert eps > 0
    pos.verify_big_certificate(S, pos.rdivisor_on(S, RDivisor({"C0": 2, "f": 3})),
                               res.certificate)


def test_caratheodory_boundary_not_big():
    S = surface_with_redundant_generator()
    assert not pos.is_big(S, RDivisor({"f": 1})).big
    assert not pos.is_big(S, RDivisor({"C0": Fraction(1, 2)})).big


def test_caratheodory_agrees_with_unit_basis_test():
    S = surface_with_redundant_generator()
    for a in range(-3, 4):
        for b in range(-3, 4):
            V = ZDivisor((a, b))
            assert pos.is_big(S, V).big == pos.is_big(F2, V).big, (a, b)


# -- report-level scaling invariance (full verdict set) ----------------------------


@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(2), Fraction(5, 7)])
def test_report_cone_verdicts_scale_invariant(q):
    for text in ("C0 + 3*f", "3/2*C0 + 3*f", "-C0 + f", "2*C0 + 2*f"):
        from divpos.divisor import parse_divisor

        D = parse_divisor(text)
        r1 = pos.build_report(F2, D, m_max=40)
        r2 = pos.build_report(F2, D.scaled(q), m_max=40)
        for cid in ("QVI", "QVII", "QVIII", "QIX", "QIII", "QIV", "QV", "B1"):
            assert (r1.verdicts[cid].holds == r2.verdicts[cid].holds), (text, cid)
        assert r1.ground_truth == r2.ground_truth
