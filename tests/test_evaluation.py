"""The per-divisor evaluation and the scans that read it.

Each scan, run through one Evaluation object, must agree with a
brute-force loop that rebuilds every twisted multiple with the
validating ZDivisor constructor, floors m*D through QuadExt arithmetic
(not the floor-scan kernels) and asks cohomology and the oracles per m.
"""

import dataclasses
import json
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divpos.positivity as pos
from divpos import _kernels
from divpos.divisor import (ROW_BLOCK, WALK, RDivisor, ZDivisor, integral_part_multiples,
                            parse_divisor)
from divpos.errors import InternalError, InvalidInput
from divpos.exact_numbers import QuadExt
from divpos.surface import (cohomology, hirzebruch, projective_plane, surface_from_spec,
                            surface_to_spec)

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
    assert pos.claim_boh_check(S, ev) == brute_tail(big, 1)

    members = [m for m, n in enumerate(counts) if n > 0]
    for F in pos.default_effective_catalog(S):
        down = brute_twisted(-F, rows)
        want = next((m for m in members
                     if all(S.h0(down[k]) > 0 for k in members if k >= m)), None)
        assert pos.kodaira_check(S, ev, F) == want


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


def test_twisted_rows_are_a_lazy_view_of_the_twisted_multiples():
    ev = pos.Evaluation(F2, "C0 + 3*f", 20)
    assert ev.twisted(ZDivisor((0, 0))) is ev.multiples
    for G in (ZDivisor((-1, 0)), ZDivisor((0, -1)), ZDivisor((2, -3))):
        rows = ev.twisted(G)
        assert len(rows) == 21
        for m, V in enumerate(ev.multiples):
            want = ZDivisor((G.coords[0] + V.coords[0], G.coords[1] + V.coords[1]))
            assert rows[m] == want and hash(rows[m]) == hash(want)
        assert list(rows) == [G + V for V in ev.multiples]
    with pytest.raises(InvalidInput, match="rank"):
        ev.twisted(ZDivisor((1, 0, 0)))


@settings(max_examples=30, deadline=None)
@given(surface_divisors(), st.data())
def test_rows_built_when_read_equal_the_eager_floors(sd, data):
    """Rows read in any order, negative indices included, alone, in short runs and in long
    walks up and down, equal [mD] floored through QuadExt, plain and twisted, at m_max
    around one walk and one block and at 2000; a row read again, or iterated, is the one
    object first read, and the row after each end raises IndexError."""
    S, D = sd
    G = ZDivisor(tuple(data.draw(st.integers(-3, 3)) for _ in S.basis))
    for m_max in (0, 1, 7, 8, 63, 64, 65, 2000):
        want = brute_multiples(S, D, m_max)
        rows = integral_part_multiples(D, S.basis, m_max)
        twisted = pos._Twisted(rows, G.coords)
        reads = data.draw(st.lists(st.integers(-m_max - 1, m_max), max_size=30))
        for _ in range(data.draw(st.integers(0, 4))):
            start = data.draw(st.integers(0, m_max))
            step = data.draw(st.sampled_from([1, -1]))
            length = data.draw(st.sampled_from([2, WALK, WALK + 1, 3 * ROW_BLOCK]))
            reads += range(start, min(max(start + step * length, -1), m_max + 1), step)
        first = {}
        for m in reads:
            row = want[m]
            V = first.setdefault(m % (m_max + 1), rows[m])
            assert V.coords == row and rows[m] is V and rows[m % (m_max + 1)] is V
            assert twisted[m] == brute_twisted(G, [row])[0]
        for view in (rows, twisted):
            assert len(view) == m_max + 1
            for m in (m_max + 1, -m_max - 2):
                with pytest.raises(IndexError):
                    view[m]
        built = list(rows)
        assert [V.coords for V in built] == want
        assert all(built[m] is V for m, V in first.items())
        assert list(twisted) == brute_twisted(G, want)


@pytest.mark.parametrize("D", ["7/3*C0 + 11/5*f", "(1+sqrt(2))*C0 + (3-sqrt(2))*f"])
def test_a_walk_over_a_column_builds_its_rows_in_blocks(D, monkeypatch):
    """A walk down every row of a column of 10**5 rows, and one up, enters the floor-scan
    kernel once per ROW_BLOCK rows and coordinate plus a constant, and computes each
    floor once: the rows before the walk is seen are one-row scans."""
    scans = []
    real = _kernels.floor_multiples_quad

    def counting(*args, **kwargs):
        scans.append(args[-1] + 1)
        return real(*args, **kwargs)

    monkeypatch.setattr(_kernels, "floor_multiples_quad", counting)
    monkeypatch.setattr(_kernels, "floor_quad", None)   # no row is floored outside a scan
    m_max, rho = 10**5, F2.rho
    for walk in (range(m_max, -1, -1), range(m_max + 1)):
        del scans[:]
        rows = integral_part_multiples(parse_divisor(D), F2.basis, m_max)
        for m in walk:
            rows[m]
        assert sum(scans) == rho * (m_max + 1)
        assert len(scans) <= rho * (m_max // ROW_BLOCK + 2 + WALK), len(scans)


def test_h0_column_is_computed_once_per_evaluation():
    calls = []

    def h0(V):
        calls.append(V)
        return F2.h0(V)

    S = dataclasses.replace(F2, h0=h0)
    ev = pos.Evaluation(S, "C0 + 3*f", 20)
    pos.big_growth_check(S, ev)
    assert calls == [ev.multiples[10], ev.multiples[20]]
    del calls[:]
    pos.semigroup(S, ev)
    assert calls == list(ev.multiples) and ev.h0_counts == [F2.h0(V) for V in ev.multiples]
    F = ZDivisor((0, 1))
    # a non-big D with no member past row 0 reads h0(F) and rows m_max and 0 only
    ev = pos.Evaluation(S, "-1/2*C0 + 3*f", 20)
    del calls[:]
    assert pos.kodaira_check(S, ev, F) is None
    assert calls == [F, ev.multiples[20], ev.multiples[0], ev.multiples[0] - F]
    # a big rational D walks its rows from the onset and builds no h0 column
    ev = pos.Evaluation(S, "C0 + 3*f", 20)
    assert ev.tail_start("h0_positive", -F) is not None
    assert pos.kodaira_check(S, ev, F) == 1 and "h0_counts" not in vars(ev)


def test_is_big_is_decided_once_per_evaluation(monkeypatch):
    """is_big(S, ev), ev.big and build_report's B1 share one result, whose certificate
    verify_big_certificate accepts."""
    built, real = [], pos._big_result
    monkeypatch.setattr(pos, "_big_result", lambda S, ev: built.append(ev) or real(S, ev))
    ev = pos.Evaluation(F2, "1/2*C0 + 5/3*f", 20)
    res = pos.is_big(F2, ev)
    assert pos.is_big(F2, ev) is res is ev.big and built == [ev]
    assert pos.build_report(F2, ev).verdicts["B1"].witness["certificate"] is res.certificate
    assert built == [ev] and res.big
    pos.verify_big_certificate(F2, ev.divisor, res.certificate)


@settings(max_examples=60, deadline=None)
@given(surface_divisors(), st.integers(1, 40))
def test_evaluation_backed_results_equal_the_divisor_backed_ones(sd, m_max):
    S, D = sd
    ev = pos.Evaluation(S, D, m_max)
    assert ev.pairings == pos.generator_pairings(S, ev) == pos.generator_pairings(S, D)
    assert pos.is_ample_cone(S, ev) == pos.is_ample_cone(S, D)
    for kind in S.regions:
        assert pos.definitive_negative(S, ev, kind) == pos.definitive_negative(S, D, kind)
        assert ev.onset(kind) == pos.onset_bound(S, D, kind)
        for G in pos.default_twists(S):
            want = pos.onset_bound(S, D, kind, G)
            assert pos.onset_bound(S, ev, kind, G) == want
            assert ev.onset(kind, G) == want
    text = str(D) if D.terms else f"0*{S.basis[0]}"   # parse_divisor refuses "0"
    assert json.dumps(pos.build_report(S, ev).to_json_dict()) == \
        json.dumps(pos.build_report(S, text, m_max).to_json_dict())


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


# -- top-down tail scans ---------------------------------------------------------------


@contextmanager
def counted_cohomology():
    """The classes vanishing_test passes to cohomology, in call order."""
    calls = []

    def counting(S, V):
        calls.append(V)
        return cohomology(S, V)

    original, pos.cohomology = pos.cohomology, counting
    try:
        yield calls
    finally:
        pos.cohomology = original


@pytest.mark.parametrize("D, per_twist", [("-C0 + 3*f", 1), ("C0 + 3*f", 2001)])
def test_vanishing_scan_stops_at_the_first_failure_from_the_top(D, per_twist):
    ev = pos.Evaluation(F2, D, 2000)
    for G in pos.default_twists(F2):
        with counted_cohomology() as calls:
            pos.vanishing_test(F2, ev, G)
        assert len(calls) == per_twist
        assert calls[0] == ev.twisted(G)[2000]


@settings(max_examples=60, deadline=None)
@given(surface_divisors(), st.integers(4, 40), st.data())
def test_vanishing_scan_visits_the_tail_and_one_failure(sd, m_max, data):
    S, D = sd
    G = data.draw(st.sampled_from(pos.default_twists(S)))
    rows = brute_twisted(G, brute_multiples(S, D, m_max))
    t = brute_tail([h1 == 0 and h2 == 0 for _, h1, h2 in (cohomology(S, x) for x in rows)], 0)
    with counted_cohomology() as calls:
        assert pos.vanishing_test(S, D, G, m_max) == t
    want = 1 if t is None else m_max + 1 - t + (t > 0)
    assert len(calls) == want
    assert calls == rows[::-1][:want]


# -- onset-bounded tails ----------------------------------------------------------------


@st.composite
def nef_divisors(draw):
    """A built-in surface and a divisor on it, nef unless drawn as "any".

    Nef kinds: interior (a >= 0 and b - e*a >= 0 drawn freely), the nef
    boundary b = e*a, the paper family (3/2)C0 + (e+1)f (not nef on F_3),
    and D = 0; coefficients are rational or in Q(sqrt d).
    """
    S = draw(st.sampled_from(SURFACES))
    kind = draw(st.sampled_from(["interior", "boundary", "paper", "zero", "any"]))
    if kind == "zero":
        return S, RDivisor({})
    d = draw(st.sampled_from([0, 2, 3, 5]))

    def value() -> QuadExt:
        return QuadExt(draw(coef), draw(coef) if d else 0, d)

    def nonneg() -> QuadExt:
        x = value()
        return -x if x.sign() < 0 else x

    if kind == "any":
        return S, RDivisor({lbl: value() for lbl in S.basis})
    if S.rho == 1:
        return S, RDivisor({"L": QuadExt(Fraction(3, 2)) if kind == "paper" else nonneg()})
    e = -S.intersection_matrix[0][0]
    if kind == "paper":
        return S, parse_divisor(f"3/2*C0 + {e + 1}*f")
    a = nonneg()
    slack = nonneg() if kind == "interior" else QuadExt(0)
    return S, RDivisor({"C0": a, "f": a * e + slack})


def assert_report_matches_full_scans(S, D, m_max, twists):
    """build_report's scan results against the standalone scans with onset=None."""
    report = pos.build_report(S, D, m_max, twists=twists)
    ev = pos.Evaluation(S, D, m_max)
    for G in twists:
        label = S.format_z(G)
        assert report.verdicts["QI"].witness["per_twist"][label] == \
            pos.vanishing_test(S, D, G, m_max)
        assert report.verdicts["QII"].witness["per_twist"][label] == \
            pos.glob_gen_twist_test(S, D, G, m_max)
        assert report.verdicts["B4"].witness["per_twist"][label] == pos._h0_tail(S, ev, G)
    va = pos.very_ample_multiples(S, D, m_max)
    assert report.verdicts["QIII"].witness["first_m"] == va.first_m
    assert report.verdicts["QIII"].witness["all_from"] == va.all_from
    assert report.verdicts["QIV"].witness["scan_m4"] == pos.section_vanishing_scan(S, D, m_max)
    assert report.verdicts["B3"].witness.get("witness_m") == pos.first_big_multiple(S, D, m_max)


@settings(max_examples=80, deadline=None)
@given(nef_divisors(), st.integers(1, 40), st.data())
def test_onset_bounded_report_matches_the_full_scans(sd, m_max, data):
    S, D = sd
    twists = pos.default_twists(S)
    if data.draw(st.booleans(), label="random twists"):
        twists = [ZDivisor(c) for c in data.draw(st.lists(
            st.tuples(*[st.integers(-3, 3)] * S.rho), min_size=1, max_size=4, unique=True))]
    assert_report_matches_full_scans(S, D, m_max, twists)


@pytest.mark.parametrize("D", ["C0 + 3*f", "sqrt(2)*C0 + 3*f", "3/2*C0 + 3*f"])
def test_onset_bounded_report_matches_the_full_scans_at_m_max_2000(D):
    assert_report_matches_full_scans(F2, D, 2000, pos.default_twists(F2))


def test_report_reads_the_top_the_bound_and_the_walk_below_it():
    D = "C0 + 3*f"
    ev = pos.Evaluation(F2, D, 2000)
    with counted_cohomology() as calls:
        pos.build_report(F2, D, 2000)
    for G in pos.default_twists(F2):
        rows = ev.twisted(G)
        bound = pos.onset_bound(F2, D, "vanishing", G)
        t = pos.vanishing_test(F2, ev, G, onset=bound)
        want = [rows[2000]] + [rows[m] for m in range(bound, max(t - 1, 0) - 1, -1)]
        assert calls[:len(want)] == want
        del calls[:len(want)]
    assert calls == []   # the parent code made 2001 calls per twist here


def solve(cols, rhs):
    """The exact x with sum_j x_j * cols[j] = rhs, for independent square cols."""
    a = [[Fraction(c[i]) for c in cols] + [Fraction(rhs[i])] for i in range(len(rhs))]
    for k in range(len(a)):
        p = next(i for i in range(k, len(a)) if a[i][k])
        a[k], a[p] = a[p], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        a = [row if i == k else [x - row[k] * y for x, y in zip(row, a[k])]
             for i, row in enumerate(a)]
    return [row[-1] for row in a]


def test_sufficient_condition_classes_lie_in_the_cone_of_curves():
    """The sufficient condition, each region's first piece, has forms w.V = V.mu with mu in
    the cone of curves, so a nef D has slopes w.D >= 0 on them and its bounds are sound."""
    for S in [hirzebruch(e) for e in range(8)] + [projective_plane()]:
        gens = [g.coords for g in S.mori_generators]
        for kind, region in S.regions.items():
            for w, _ in region[0]:
                lam = solve(gens, solve(S.intersection_matrix, w))
                assert all(x >= 0 for x in lam), (S.name, kind, w)


def test_an_oracle_failing_at_the_bound_raises_internal_error():
    D = "C0 + 3*f"
    bound = pos.onset_bound(F2, D, "globally_generated")
    bad = pos.Evaluation(F2, D, 20).multiples[bound]
    S = dataclasses.replace(F2, globally_generated=lambda V: V != bad and F2.globally_generated(V))
    assert bound < 20 and S.globally_generated(pos.Evaluation(F2, D, 20).multiples[20])
    with pytest.raises(InternalError, match=f"onset bound {bound} .* m = {bound}"):
        pos.build_report(S, D, 20)
    with pytest.raises(InternalError, match=f"onset bound {bound}"):
        pos.glob_gen_twist_test(S, D, ZDivisor((0, 0)), 20, onset=bound)
    assert pos.glob_gen_twist_test(S, D, ZDivisor((0, 0)), 20) == bound + 1


@pytest.mark.parametrize("S, D", [
    (F2, "C0 + 3*f"), (F2, "3/2*C0 + 3*f"), (F2, "C0 - f"), (F2, "0*f"),
    (SURFACES[3], "3/2*C0 + 4*f"), (SURFACES[0], "sqrt(2)*C0 + f"), (SURFACES[4], "2/3*L"),
])
def test_each_onset_bound_is_computed_once_per_report(S, D, monkeypatch):
    calls = []
    real = pos.onset_bound

    def counting(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(pos, "onset_bound", counting)
    pos.build_report(S, D, 30)
    assert len(calls) <= 1 + 3 * len(pos.default_twists(S))
    assert len(set(calls)) == len(calls)


# -- exact regions ---------------------------------------------------------------------

REGION_SURFACES = [hirzebruch(e) for e in range(8)] + [projective_plane()]


def in_region(region, coords):
    return any(all(sum(w * x for w, x in zip(form, coords)) >= c for form, c in piece)
               for piece in region)


def test_every_region_is_its_predicate_on_integral_classes():
    """Each region against cohomology and the oracles, on every class with |coords| <= 40."""
    box = range(-40, 41)
    for S in REGION_SURFACES:
        assert sorted(S.regions) == ["big", "globally_generated", "h0_positive", "vanishing",
                                     "very_ample"]
        for coords in (zip(box) if S.rho == 1 else ((a, b) for a in box for b in box)):
            got = {kind: in_region(region, coords) for kind, region in S.regions.items()}
            assert got == oracle_kinds(S, ZDivisor(coords)), (S.name, coords)


def oracle_kinds(S, V):
    """Each region kind's predicate at V, from cohomology and the oracles."""
    h0, h1, h2 = cohomology(S, V)
    return {"very_ample": S.very_ample(V), "globally_generated": S.globally_generated(V),
            "h0_positive": h0 > 0, "vanishing": h1 == h2 == 0, "big": pos._is_big_class(S, V)}


def assert_definitive_negative_claims_hold(S, D, claims):
    """Each kind definitive_negative claims for D fails at every [mD], 1 <= m <= 60,
    in the region and by the oracles."""
    kinds = [kind for kind in S.regions if pos.definitive_negative(S, D, kind)]
    claims.update((kind, str(D.coefficients(S.basis)[0].d)) for kind in kinds)
    for row in (brute_multiples(S, D, 60)[1:] if kinds else ()):
        truth = oracle_kinds(S, ZDivisor(row))
        for kind in kinds:
            assert not in_region(S.regions[kind], row) and not truth[kind], (S.name, str(D), kind)


def test_definitive_negative_leaves_no_multiple_in_the_region():
    """Half-integer D on F_0..F_3, and D in Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5) on
    F_0..F_3 and P^2: each claim holds at every [mD], 1 <= m <= 60.

    On F_0, -3*C0 - f has [1*D] = (-3, -1) in the third vanishing piece, so a
    failing form of the first piece alone proves nothing.
    """
    claims = Counter()
    for S in SURFACES[:4]:
        for i in range(-6, 7):
            for j in range(-12, 13):
                D = RDivisor({"C0": Fraction(i, 2), "f": Fraction(j, 2)})
                assert_definitive_negative_claims_hold(S, D, claims)
    parts = [(x, y) for x in (-2, Fraction(-1, 2), 1) for y in (-1, Fraction(1, 3))]
    for d in (2, 3, 5):
        values = [QuadExt(x, y, d) for x, y in parts]
        for S in SURFACES:
            for coeffs in (zip(values) if S.rho == 1 else
                           ((a, b) for a in values for b in values)):
                assert_definitive_negative_claims_hold(S, RDivisor(dict(zip(S.basis, coeffs))),
                                                       claims)
    assert not pos.definitive_negative(SURFACES[0], "-3*C0 - f", "vanishing")
    assert {kind for kind, _ in claims} == set(F2.regions)
    assert {d for _, d in claims} == {"0", "2", "3", "5"}


def test_a_spec_borrowing_a_builtin_oracle_borrows_its_regions():
    spec = {**surface_to_spec(F2), "name": "f2-spec"}
    assert surface_from_spec(spec).regions == F2.regions
    assert surface_from_spec({**spec, "oracle": {"h0_table": {"0,0": 1}}}).regions is None


rational = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def assert_region_helpers_match_a_brute_force_scan(S, D, region, G, lo, m_max):
    flags = [in_region(region, row.coords)
             for row in brute_twisted(G, brute_multiples(S, D, m_max))]
    ev = pos.Evaluation(S, D, m_max)
    assert pos.region_tail(region, ev, G) == brute_tail(flags, 0)
    first = next((m for m in range(lo, m_max + 1) if flags[m]), m_max + 1)
    assert pos.region_first(region, ev, G, lo) == first


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REGION_SURFACES), st.data(), st.integers(1, 60))
def test_region_tail_and_first_member_match_a_brute_force_scan(S, data, m_max):
    D = RDivisor({lbl: data.draw(rational) for lbl in S.basis})
    # a union of two regions has overlapping, even nested, pieces
    region = sum((S.regions[kind] for kind in data.draw(
        st.lists(st.sampled_from(sorted(S.regions)), min_size=1, max_size=2))), ())
    G = ZDivisor(data.draw(st.tuples(*[st.integers(-4, 4)] * S.rho)))
    assert_region_helpers_match_a_brute_force_scan(S, D, region, G, data.draw(st.integers(0, 2)),
                                                   m_max)


def test_region_tail_steps_past_a_run_nested_in_an_earlier_one():
    # below the top row of G + [mD], the h0 > 0 run of k contains the very-ample one
    region = F2.regions["h0_positive"] + F2.regions["very_ample"]
    assert_region_helpers_match_a_brute_force_scan(
        F2, parse_divisor("5/3*C0 + 3*f"), region, ZDivisor((-1, -1)), 1, 12)


@st.composite
def irrational_divisors(draw):
    """F_0..F_4 or P^2 and a divisor with an irrational coefficient in Q(sqrt d), d in
    {2, 3, 5}; on F_e, half of them lie on the nef boundary b = e*a + k, |k| <= 2."""
    S = draw(st.sampled_from([hirzebruch(e) for e in range(5)] + [projective_plane()]))
    d = draw(st.sampled_from([2, 3, 5]))
    a = QuadExt(draw(coef), draw(coef.filter(bool)), d)
    if S.rho == 1:
        return S, RDivisor({"L": a})
    if draw(st.booleans()):
        a = -a if a.sign() < 0 else a
        e = -S.intersection_matrix[0][0]
        return S, RDivisor({"C0": a, "f": a * e + draw(st.integers(-2, 2))})
    return S, RDivisor({"C0": a, "f": QuadExt(draw(coef), draw(coef), d)})


@settings(max_examples=400, deadline=None)
@given(irrational_divisors(), st.one_of(st.sampled_from([1, 2, 63, 64, 65]),
                                        st.integers(1, 400)), st.data())
def test_region_tail_of_an_irrational_divisor_matches_the_oracle_walk(sd, m_max, data):
    """For every region kind and a twist G in [-3, 2]^rho, region_tail equals the
    tail the oracle predicate gives when _tail_from walks G + [mD] with no onset."""
    S, D = sd
    ev = pos.Evaluation(S, D, m_max)
    G = ZDivisor(data.draw(st.tuples(*[st.integers(-3, 2)] * S.rho)))
    rows = ev.twisted(G)
    for kind, region in S.regions.items():
        want = pos._tail_from(lambda V: oracle_kinds(S, V)[kind], rows, 0)
        assert pos.region_tail(region, ev, G) == want, (S.name, str(D), kind, G, m_max)


@st.composite
def rational_divisors(draw):
    """A built-in surface and a rational divisor off the interior of the nef cone.

    Kinds: the nef boundary b = e*a, non-nef (b - e*a < 0 or a < 0), and
    negative (no positive coefficient).  The onset bounds leave the scans
    of most of these without a bound, so the regions decide them.
    """
    S = draw(st.sampled_from(SURFACES))
    kind = draw(st.sampled_from(["boundary", "non-nef", "negative"]))
    x, y = draw(rational), draw(rational)
    if S.rho == 1:
        return S, RDivisor({"L": -abs(x) if kind == "negative" else x})
    e = -S.intersection_matrix[0][0]
    if kind == "boundary":
        return S, RDivisor({"C0": abs(x), "f": abs(x) * e})
    if kind == "negative":
        return S, RDivisor({"C0": -abs(x), "f": -abs(y)})
    if draw(st.booleans()):
        return S, RDivisor({"C0": -abs(x) - Fraction(1, 12), "f": y})
    return S, RDivisor({"C0": x, "f": x * e - abs(y) - Fraction(1, 12)})


@settings(max_examples=80, deadline=None)
@given(rational_divisors(), st.integers(1, 60), st.data())
def test_region_decided_report_matches_the_full_scans(sd, m_max, data):
    S, D = sd
    twists = pos.default_twists(S)
    if data.draw(st.booleans(), label="random twists"):
        twists = [ZDivisor(c) for c in data.draw(st.lists(
            st.tuples(*[st.integers(-3, 3)] * S.rho), min_size=1, max_size=4, unique=True))]
    assert_report_matches_full_scans(S, D, m_max, twists)


@pytest.mark.parametrize("kind, piece, D", [
    # rows G + [mD] with G = -C0 - f are (m - 1, [m/2] - 1): h0 > 0 from m = 2,
    # but the shifted region admits row 1 as well, so the tail guard reads it
    ("h0_positive", (((1, 0), 0), ((0, 1), -1)), "C0 + 1/2*f"),
    # [mD] = (m, [m/2]): big from m = 2; shifted down, the region claims row 1,
    ("big", (((1, 0), 1), ((0, 1), 0)), "C0 + 1/2*f"),
    # shifted up, it claims row 4, and row 3 below it is big too
    ("big", (((1, 0), 1), ((0, 1), 2)), "C0 + 1/2*f"),
    # [mD] = (m, 3m) is very ample from m = 1; the shifted region claims m = 2
    ("very_ample", (((1, 0), 1), ((-2, 1), 2)), "C0 + 3*f"),
])
def test_a_region_shifted_by_one_trips_the_guard(kind, piece, D):
    S = dataclasses.replace(F2, regions={**F2.regions, kind: (piece,)})
    with pytest.raises(InternalError, match="contradicted"):
        pos.build_report(S, D, 40)
    pos.build_report(F2, D, 40)


@pytest.mark.parametrize("e, D", [(0, "9/2*C0"), (2, "3/2*C0 + 3*f"), (3, "3/2*C0 + 4*f")])
def test_report_cost_of_a_rational_boundary_divisor_does_not_grow_with_m_max(e, D):
    """The same few cohomology and oracle calls at m_max 2000 and 20000 (the parent
    code made 4,008 / 2,010 / 4 cohomology and 18,026 / 6,044 / 8,020 oracle calls at 2000)."""
    counts = []
    for m_max in (2000, 20000):
        oracle_calls = []

        def counting(f):
            return lambda V: oracle_calls.append(V) or f(V)

        base = hirzebruch(e)
        S = dataclasses.replace(base, very_ample=counting(base.very_ample),
                                globally_generated=counting(base.globally_generated),
                                h0=counting(base.h0))
        with counted_cohomology() as calls:
            pos.build_report(S, D, m_max)
        counts.append((len(calls), len(oracle_calls)))
    assert counts[0] == counts[1] and counts[0][1] <= 50, counts


def test_report_builds_the_same_rows_at_m_max_2000_and_a_million(monkeypatch):
    """The floor-scan cells of a report of 9/2*C0 on F_0 differ by at most one block
    of rows between m_max 2000 and 1,000,000: the rows read, not m_max, set them."""
    cells = []
    real = _kernels.floor_multiples_quad

    def counting(*args, **kwargs):
        cells.append(args[-1] + 1)
        return real(*args, **kwargs)

    monkeypatch.setattr(_kernels, "floor_multiples_quad", counting)
    built = []
    for m_max in (2000, 10**6):
        del cells[:]
        pos.build_report(hirzebruch(0), "9/2*C0", m_max)
        built.append(sum(cells))
    assert abs(built[0] - built[1]) <= 2 * ROW_BLOCK and max(built) <= 8 * ROW_BLOCK, built


@pytest.mark.parametrize("D", ["sqrt(2)*C0 + f",   # not nef
                               "(2+sqrt(2))*C0 + (4+2*sqrt(2))*f"])   # on the nef boundary
def test_an_irrational_report_reads_few_rows_and_equals_the_walked_one(D, monkeypatch):
    """At M_MAX_LIMIT the report of an irrational D on F_2 builds a few blocks of rows,
    counted in cells per coordinate, where a walk of its tails builds all 1,000,001
    rows; at m_max 2000 its JSON equals the report whose scans all walk, tail_start
    handing them no start."""
    cells = []
    real = _kernels.floor_multiples_quad

    def counting(*args, **kwargs):
        cells.append(args[-1] + 1)
        return real(*args, **kwargs)

    monkeypatch.setattr(_kernels, "floor_multiples_quad", counting)
    pos.build_report(F2, D, pos.M_MAX_LIMIT)
    assert sum(cells) <= 8 * ROW_BLOCK, sum(cells)
    handed = pos.build_report(F2, D, 2000).to_json_dict()
    monkeypatch.setattr(pos.Evaluation, "tail_start", lambda self, kind, G=None: None)
    assert handed == pos.build_report(F2, D, 2000).to_json_dict()


@pytest.mark.parametrize("S, D", [(hirzebruch(1), "-sqrt(2)*C0 + 3*f"),
                                  (F2, "(1 - sqrt(3))*C0 + (2 + sqrt(3))*f"),
                                  (projective_plane(), "(2 - sqrt(5))*L")])
def test_a_provably_empty_irrational_search_reads_one_row(S, D, monkeypatch):
    """P1's first very-ample and B3's first big multiple of an irrational D that
    definitive_negative rules out: each predicate reads only row m_max."""
    va_reads, big_reads = [], []
    counted = dataclasses.replace(S, very_ample=lambda V: va_reads.append(V) or S.very_ample(V))
    real_big = pos._is_big_class
    monkeypatch.setattr(pos, "_is_big_class",
                        lambda S, V: big_reads.append(V) or real_big(S, V))
    ev = pos.Evaluation(counted, D, 2000)
    assert ev.first_member("very_ample") == ev.first_member("big") == 2001
    report = pos.build_report(counted, ev)
    assert va_reads == big_reads == [ev.multiples[2000]]
    assert (report.verdicts["P1"].holds, report.verdicts["P1"].conclusive) == (False, True)
    assert (report.verdicts["B3"].holds, report.verdicts["B3"].conclusive) == (None, False)


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
