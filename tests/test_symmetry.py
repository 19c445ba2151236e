"""Relations that must hold between reports, whatever the divisor.

The goldens pin the bytes of a few hundred reports; these tests check
relations between reports of many divisors instead:

* the swap C0 <-> f, an automorphism of F_0 = P^1 x P^1, leaves every
  verdict's ``holds`` and ``conclusive`` unchanged;
* the exact regions only tell the scans where to start, so a surface
  without them never decides a verdict the other way;
* an integral divisor gets the same report however its integer
  coefficients are written: as reducible fractions, or split into terms
  of one label that add up to them.
"""

import dataclasses
from fractions import Fraction

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import divpos.positivity as pos
from divpos.divisor import RDivisor, parse_divisor
from divpos.exact_numbers import QuadExt
from divpos.surface import hirzebruch, projective_plane

F0 = hirzebruch(0)
SURFACES = [hirzebruch(e) for e in range(4)] + [projective_plane()]
SQRT2 = QuadExt(0, 1, 2)

rational = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def coefficients(draw):
    """A rational coefficient, or one of Q(sqrt 2)."""
    a = draw(rational)
    return QuadExt(a) + (SQRT2 * draw(rational) if draw(st.booleans()) else QuadExt(0))


def verdicts(report) -> dict:
    return {cid: (v.holds, v.conclusive) for cid, v in report.verdicts.items()}


@settings(max_examples=80, deadline=None)
@given(coefficients(), coefficients(), st.integers(10, 120))
@example(QuadExt(1), QuadExt(Fraction(1, 12)), 20)
def test_swapping_c0_and_f_on_f0_changes_no_verdict(a, b, m_max):
    """b*C0 + a*f gets the holds and conclusive of a*C0 + b*f in every criterion."""
    D, swapped = RDivisor({"C0": a, "f": b}), RDivisor({"C0": b, "f": a})
    assert verdicts(pos.build_report(F0, D, m_max)) == \
        verdicts(pos.build_report(F0, swapped, m_max))


@st.composite
def surface_divisors(draw):
    """A built-in surface and a divisor on it with rational or Q(sqrt 2) coefficients."""
    S = draw(st.sampled_from(SURFACES))
    return S, RDivisor({lbl: draw(coefficients()) for lbl in S.basis})


@settings(max_examples=100, deadline=None)
@given(surface_divisors(), st.integers(10, 60))
# [mD] is very ample at m = 2 but not at m = 10: the scan reads past a member
@example((SURFACES[2], RDivisor({"C0": SQRT2, "f": SQRT2 * 2})), 10)
def test_a_surface_without_regions_contradicts_no_conclusive_verdict(sd, m_max):
    """Each criterion decided on both sides is decided alike; the pairs that one side
    alone decides (how much the regions decide) are recorded as events, not gated."""
    S, D = sd
    with_regions = pos.build_report(S, D, m_max).verdicts
    without = pos.build_report(dataclasses.replace(S, regions=None), D, m_max).verdicts
    for cid, v in with_regions.items():
        w = without[cid]
        if v.conclusive and w.conclusive:
            assert v.holds == w.holds, (cid, v, w)
        elif v.conclusive != w.conclusive:
            event(f"{cid} decided only {'with' if v.conclusive else 'without'} regions")


@st.composite
def integral_divisors(draw):
    """(S, integer coefficients, the same divisor as a sum of unreduced fractions).

    Each label's integer n is split into one to three terms p/q*label that add up to n,
    each fraction written with numerator and denominator times k."""
    S = draw(st.sampled_from(SURFACES))
    ints = {lbl: draw(st.integers(-5, 5)) for lbl in S.basis}
    terms = []
    for lbl, n in ints.items():
        parts = [Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 6)))
                 for _ in range(draw(st.integers(0, 2)))]
        for x in parts + [n - sum(parts)]:
            k = draw(st.integers(1, 4))
            terms.append(f"{'-' if x < 0 else '+'} {abs(x.numerator) * k}/{x.denominator * k}*{lbl}")
    return S, ints, " ".join(terms)


@settings(max_examples=50, deadline=None)
@given(integral_divisors())
@example((F0, {"C0": 2, "f": 0}, "4/2*C0 + 3/2*C0 - 1/2*C0 - 2/2*C0 + 0/3*f"))
def test_an_integral_divisor_written_with_fractions_gets_the_same_report(case):
    """4/2*C0, or 3/2*C0 + 1/2*C0, reports as 2*C0 does: the same JSON, verdicts included."""
    S, ints, text = case
    assert pos.build_report(S, parse_divisor(text), 40).to_json_dict() == \
        pos.build_report(S, RDivisor(ints), 40).to_json_dict()
