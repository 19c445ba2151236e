"""The per-divisor evaluation and the scans that read it.

Each scan, run through one Evaluation object, must agree with a
brute-force loop that rebuilds every twisted multiple with the
validating ZDivisor constructor, floors m*D through QuadExt arithmetic
(not the floor-scan kernels) and asks cohomology and the oracles per m.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divpos.positivity as pos
from divpos.divisor import RDivisor, ZDivisor
from divpos.errors import InvalidInput
from divpos.exact_numbers import QuadExt
from divpos.surface import cohomology, hirzebruch, projective_plane

SURFACES = [hirzebruch(e) for e in range(4)] + [projective_plane()]
F2 = SURFACES[2]

# -- brute-force references ------------------------------------------------------


def brute_multiples(S, D, m_max):
    coeffs = D.coefficients(S.basis)
    return [tuple((c * m).floor() for c in coeffs) for m in range(m_max + 1)]


def brute_twisted(G, rows):
    return [ZDivisor(tuple(g + c for g, c in zip(G.coords, row))) for row in rows]


def brute_tail(flags, lo):
    return next((i for i in range(lo, len(flags)) if all(flags[i:])), None)


def brute_pair(S, v, w):
    M = S.intersection_matrix
    return sum(v[i] * M[i][j] * w[j] for i in range(S.rho) for j in range(S.rho))


# -- inputs ------------------------------------------------------------------------

coef = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def surface_divisors(draw):
    """A built-in surface and a rational or Q(sqrt d) divisor on it."""
    S = draw(st.sampled_from(SURFACES))
    d = draw(st.sampled_from([0, 2, 3, 5]))
    terms = {lbl: QuadExt(draw(coef), draw(coef) if d else 0, d) for lbl in S.basis}
    return S, RDivisor(terms)


@settings(max_examples=60, deadline=None)
@given(surface_divisors(), st.integers(4, 40))
def test_scans_through_evaluation_match_brute_force(sd, m_max):
    S, D = sd
    ev = pos.Evaluation(S, D, m_max)
    rows = brute_multiples(S, D, m_max)
    assert [V.coords for V in ev.multiples] == rows
    plain = [ZDivisor(r) for r in rows]
    twists = pos.default_twists(S)

    report = pos.build_report(S, D, m_max)
    for G in twists:
        V = brute_twisted(G, rows)
        vanish = [h1 == 0 and h2 == 0 for _, h1, h2 in (cohomology(S, x) for x in V)]
        gg = [S.globally_generated(x) for x in V]
        h0_pos = [S.h0(x) > 0 for x in V]
        assert pos.vanishing_test(S, ev, G) == brute_tail(vanish, 0)
        assert pos.glob_gen_twist_test(S, ev, G) == brute_tail(gg, 0)
        label = S.format_z(G)
        assert report.verdicts["QI"].witness["per_twist"][label] == brute_tail(vanish, 0)
        assert report.verdicts["QII"].witness["per_twist"][label] == brute_tail(gg, 0)
        assert report.verdicts["B4"].witness["per_twist"][label] == brute_tail(h0_pos, 0)

    gens = [g.coords for g in S.mori_generators]
    sv = [all(brute_pair(S, x.coords, g) > 0 for g in gens)
          and S.h0(x) >= 1 and any(x.coords) for x in plain]
    assert pos.section_vanishing_scan(S, ev) == brute_tail(sv, 0)

    va = [False] + [S.very_ample(x) for x in plain[1:]]
    scan = pos.very_ample_multiples(S, ev)
    assert scan.first_m == next((m for m, ok in enumerate(va) if ok), None)
    assert scan.all_from == brute_tail(va, 1)

    counts = [S.h0(x) for x in plain]
    half = m_max // 2
    growth = pos.big_growth_check(S, ev)
    assert growth.passed == (counts[half] > 0 and counts[m_max] >= 3 * counts[half])
    assert growth.leading == Fraction(counts[m_max], m_max * m_max)

    big = [False] + [pos.is_big(S, x).big for x in plain[1:]]
    assert pos.first_big_multiple(S, ev) == next((m for m, ok in enumerate(big) if ok), None)
    assert pos.claim_boh_check(S, ev, require_big=False) == brute_tail(big, 1)


def test_public_call_forms_match_the_evaluation():
    D = "3/2*C0 + 3*f"
    ev = pos.Evaluation(F2, D, 30)
    G = ZDivisor((-1, 0))
    assert pos.vanishing_test(F2, D, G, 30) == pos.vanishing_test(F2, ev, G)
    assert pos.glob_gen_twist_test(F2, D, G, 30) == pos.glob_gen_twist_test(F2, ev, G, 30)
    assert pos.semigroup(F2, D, 30) == pos.semigroup(F2, ev)
    assert pos.chi_growth(F2, D, [1, 7]) == pos.chi_growth(F2, ev, [1, 7])
    assert pos.kodaira_check(F2, D, ZDivisor((0, 1)), 30) == \
        pos.kodaira_check(F2, ev, ZDivisor((0, 1)))


def test_twisted_list_is_shared_per_twist_and_only_the_last_is_kept():
    ev = pos.Evaluation(F2, "C0 + 3*f", 20)
    assert ev.twisted(ZDivisor((0, 0))) is ev.multiples
    a = ev.twisted(ZDivisor((-1, 0)))
    assert ev.twisted(ZDivisor((-1, 0))) is a
    b = ev.twisted(ZDivisor((0, -1)))
    assert b is not a and ev.twisted(ZDivisor((0, -1))) is b
    assert [x.coords for x in a] == [(V.coords[0] - 1, V.coords[1]) for V in ev.multiples]


def test_evaluation_refuses_a_different_m_max_or_surface():
    ev = pos.Evaluation(F2, "C0 + 3*f", 20)
    with pytest.raises(InvalidInput, match="m_max"):
        pos.vanishing_test(F2, ev, ZDivisor((0, 0)), 30)
    with pytest.raises(InvalidInput, match="evaluation"):
        pos.first_big_multiple(hirzebruch(2), ev)
    with pytest.raises(InvalidInput, match="m_list"):
        pos.chi_growth(F2, ev, [21])
    with pytest.raises(InvalidInput, match="rank"):
        ev.twisted(ZDivisor((1, 0, 0)))


# -- m_max at the library boundary ---------------------------------------------------

ZERO_TWIST = ZDivisor((0, 0))
ENTRY_POINTS = {
    "build_report": lambda m: pos.build_report(F2, "C0+3*f", m_max=m),
    "semigroup": lambda m: pos.semigroup(F2, "C0+3*f", m_max=m),
    "vanishing_test": lambda m: pos.vanishing_test(F2, "C0+3*f", ZERO_TWIST, m_max=m),
    "glob_gen_twist_test": lambda m: pos.glob_gen_twist_test(F2, "C0+3*f", ZERO_TWIST, m_max=m),
    "very_ample_multiples": lambda m: pos.very_ample_multiples(F2, "C0+3*f", m_max=m),
    "big_growth_check": lambda m: pos.big_growth_check(F2, "C0+3*f", m_max=m),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("m_max", [0, -1, -3])
def test_nonpositive_m_max_is_refused_naming_it(entry, m_max):
    with pytest.raises(InvalidInput, match="m_max"):
        ENTRY_POINTS[entry](m_max)


def test_build_report_below_growth_floor_leaves_b2_inconclusive():
    report = pos.build_report(F2, "C0+3*f", m_max=3)
    b2 = report.verdicts["B2"]
    assert b2.holds is None and not b2.conclusive and "m_max >= 4" in b2.note
    with pytest.raises(InvalidInput, match="m_max must be >= 4"):
        pos.big_growth_check(F2, "C0+3*f", m_max=3)


# -- trusted integer arithmetic ---------------------------------------------------------


def test_validating_constructor_still_refuses_non_integers():
    with pytest.raises(InvalidInput):
        ZDivisor((1.5, 0))
    with pytest.raises(InvalidInput):
        ZDivisor((1, 2)) * Fraction(1, 2)
    assert ZDivisor((1, 2)) * Fraction(2) == ZDivisor((2, 4))


small = st.integers(-10**6, 10**6)


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.tuples(*[small] * n), st.tuples(*[small] * n))), small)
def test_arithmetic_results_equal_the_validated_constructor(pair, n):
    a, b = pair
    A, B = ZDivisor(a), ZDivisor(b)
    cases = [
        (A + B, [x + y for x, y in zip(a, b)]),
        (A - B, [x - y for x, y in zip(a, b)]),
        (-A, [-x for x in a]),
        (A * n, [n * x for x in a]),
        (n * A, [n * x for x in a]),
    ]
    for got, coords in cases:
        want = ZDivisor(tuple(coords))
        assert got == want and hash(got) == hash(want)
        assert type(got) is ZDivisor and got.coords == want.coords
