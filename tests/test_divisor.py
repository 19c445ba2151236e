"""Integral/fractional part operators and the decomposition identities."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divpos.divisor import (
    RDivisor,
    ZDivisor,
    divisor_from_spec,
    divisor_to_spec,
    enumerate_Tm,
    format_divisor,
    fractional_part,
    integral_part,
    integral_part_multiples,
    integrality_denominator,
    lemma_dr_decompose,
    parse_divisor,
    round_decompose,
)
from divpos.errors import InvalidInput, RepresentationError
from divpos.exact_numbers import RADICAND_MAX, QuadExt, format_quadext, parse_quadext

BASIS = ("C0", "f")


def D(**terms):
    return RDivisor(terms)


# -- integral / fractional part --------------------------------------------------


def test_integral_part_paper_divisor():
    # (3/2) C0 + 3 f on the e=2 ruled surface floors to C0 + 3f
    d = D(C0=Fraction(3, 2), f=3)
    assert integral_part(d, BASIS) == ZDivisor((1, 3))


def test_integral_part_negative_coefficient():
    d = D(C0=Fraction(-1, 2))
    assert integral_part(d, BASIS) == ZDivisor((-1, 0))
    assert fractional_part(d, BASIS) == D(C0=Fraction(1, 2))


def test_integral_part_quadratic_scaling():
    d = RDivisor({"C0": QuadExt(0, 1, 2), "f": QuadExt(0, 1, 2)})
    assert integral_part(d.scaled(10), BASIS) == ZDivisor((14, 14))


def test_fractional_part_range():
    d = D(C0=Fraction(-7, 3), f=Fraction(22, 7))
    fr = fractional_part(d, BASIS)
    for lbl in BASIS:
        c = fr.coefficient(lbl)
        assert QuadExt(0) <= c < QuadExt(1)


def test_integral_part_requires_prime_representation():
    g = RDivisor({"A": Fraction(1, 2)}, expansions={"A": (1, 1)})
    with pytest.raises(RepresentationError):
        integral_part(g, BASIS)


def test_multiples_scan_matches_single_floors():
    d = RDivisor({"C0": QuadExt(Fraction(1, 3), Fraction(2, 7), 2), "f": Fraction(-5, 4)})
    scan = integral_part_multiples(d, BASIS, 40).rows(0, 40)
    assert len(scan) == 41
    for m in range(41):
        assert ZDivisor(scan[m]) == integral_part(d.scaled(m), BASIS)


# -- rounding decomposition --------------------------------------------------------


def general_example():
    # D = (1/2)(C0 + f) + (1/2)(C0 + 2f) in a non-prime representation
    return RDivisor(
        {"A": Fraction(1, 2), "B": Fraction(1, 2)},
        expansions={"A": (1, 1), "B": (1, 2)},
    )


def test_round_decompose_worked_example():
    d = general_example()
    sum_part, t1 = round_decompose(d, 1, BASIS)
    # fractional combination is C0 + (3/2) f, whose floor is C0 + f
    assert t1 == ZDivisor((1, 1))
    assert sum_part == ZDivisor((0, 0))


def test_round_decompose_integral_multiple():
    d = general_example()
    _, t2 = round_decompose(d, 2, BASIS)
    assert t2 == ZDivisor((0, 0))


def test_round_decompose_prime_representation_trivial():
    d = D(C0=Fraction(5, 3), f=Fraction(-7, 2))
    for m in (1, 2, 3, 7, 30):
        _, t = round_decompose(d, m, BASIS)
        assert t == ZDivisor((0, 0))


@given(st.integers(min_value=1, max_value=200))
def test_round_decompose_identity(m):
    d = general_example()
    sum_part, t = round_decompose(d, m, BASIS)
    assert sum_part + t == integral_part(d.to_prime(BASIS).scaled(m), BASIS)


def test_enumerate_tm_worked_example():
    d = general_example()
    enum = enumerate_Tm(d, 12, BASIS)
    assert set(enum.values) == {ZDivisor((0, 0)), ZDivisor((1, 1))}
    assert enum.contains_all()


def test_enumerate_tm_rational_period():
    # all denominators divide k, so the set stabilizes after m <= k
    d = RDivisor(
        {"A": Fraction(1, 3), "B": Fraction(1, 4)},
        expansions={"A": (2, 1), "B": (0, 3)},
    )
    k = 12
    early = enumerate_Tm(d, k, BASIS)
    late = enumerate_Tm(d, 5 * k, BASIS)
    assert set(early.values) == set(late.values)
    assert late.contains_all()


def test_enumerate_tm_quadratic_superset():
    d = RDivisor(
        {"A": QuadExt(0, 1, 2), "B": QuadExt(0, Fraction(1, 2), 2)},
        expansions={"A": (1, 1), "B": (1, -2)},
    )
    enum = enumerate_Tm(d, 100, BASIS)
    assert enum.contains_all()
    # the box must cover negative corrections from the negative expansion entry
    assert enum.bounds[1][0] < 0


def test_enumerate_tm_bounds_shape():
    d = general_example()
    enum = enumerate_Tm(d, 4, BASIS)
    # positive column sums 2 and 3 give boxes [0,1] and [0,2]
    assert enum.bounds == ((0, 1), (0, 2))


# -- euclidean split ---------------------------------------------------------------


def test_lemma_dr_worked_example():
    d = D(C0=Fraction(3, 2))
    k, t, i = lemma_dr_decompose(d, 5, BASIS)
    assert (k, t, i) == (2, 2, 1)
    # [15/2] = 7 = 2*3 + [3/2]
    assert Fraction(15, 2).__floor__() == 7 == 2 * 3 + 1


def test_lemma_dr_integral_divisor():
    d = D(C0=4, f=-2)
    for m in (1, 5, 17):
        assert lemma_dr_decompose(d, m, BASIS) == (1, m, 0)


def test_lemma_dr_lcm_of_denominators():
    d = D(C0=Fraction(1, 3), f=Fraction(1, 2))
    k, t, i = lemma_dr_decompose(d, 7, BASIS)
    assert (k, t, i) == (6, 1, 1)


def test_lemma_dr_rejects_irrational():
    d = RDivisor({"C0": QuadExt(0, 1, 2)})
    with pytest.raises(InvalidInput):
        lemma_dr_decompose(d, 3, BASIS)


coef = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(coef, coef, st.integers(min_value=1, max_value=1000))
@settings(max_examples=80)
def test_lemma_dr_identity_random(a, b, m):
    d = D(C0=a, f=b)
    if d.is_zero():
        return
    k, t, i = lemma_dr_decompose(d, m, BASIS)  # raises InternalError on mismatch
    assert m == t * k + i
    assert 0 <= i <= k - 1
    assert integrality_denominator(d, BASIS) == k


@given(coef, coef, st.integers(min_value=1, max_value=1000))
@settings(max_examples=80)
def test_scaled_floor_identity(a, b, m):
    d = D(C0=a, f=b)
    md = d.scaled(m)
    ip = integral_part(md, BASIS)
    fr = fractional_part(md, BASIS)
    for j, lbl in enumerate(BASIS):
        total = QuadExt(ip.coords[j]) + fr.coefficient(lbl)
        assert total == md.coefficient(lbl)
        assert QuadExt(0) <= fr.coefficient(lbl) < QuadExt(1)


@given(coef, coef, st.integers(min_value=1, max_value=40))
@settings(max_examples=40)
def test_multiples_converge_in_coordinates(a, b, q):
    """max-coordinate distance between [mD]/m and D drops below 1/q for m > q."""
    d = D(C0=a, f=b)
    eps = Fraction(1, q)
    m0 = q + 1
    for m in range(m0, m0 + 5):
        ip = integral_part(d.scaled(m), BASIS)
        for j, lbl in enumerate(BASIS):
            dist = d.coefficient(lbl) - QuadExt(Fraction(ip.coords[j], m))
            assert QuadExt(0) <= dist < QuadExt(eps)


# -- text and spec forms -------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "3/2*C0 + 3*f",
    "C0 - 1/2*f",
    "-C0",
    "sqrt(2)*C0",
    "(1+sqrt(2))*C0 - 1/2*f",
    "(2*sqrt(2))*f",
])
def test_parse_format_roundtrip(text):
    d = parse_divisor(text)
    assert parse_divisor(format_divisor(d)) == d


def test_parse_divisor_values():
    d = parse_divisor("3/2*C0 + 3*f")
    assert d.coefficient("C0") == QuadExt(Fraction(3, 2))
    assert d.coefficient("f") == QuadExt(3)
    assert parse_divisor("C0").coefficient("C0") == QuadExt(1)
    assert parse_divisor("0*C0").is_zero()


coefficients = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(QuadExt, st.fractions(min_value=-20, max_value=20, max_denominator=12),
              st.fractions(min_value=-20, max_value=20, max_denominator=12),
              st.sampled_from([2, 3, 5, 8, 1000003])))


@settings(max_examples=150)
@given(st.one_of(st.just({}), st.dictionaries(st.sampled_from(BASIS), coefficients)))
def test_parse_format_roundtrip_random(terms):
    d = RDivisor(terms)
    assert parse_divisor(format_divisor(d)) == d


@pytest.mark.parametrize("text", ["0", " 0 ", "\t0\n"])
def test_parse_zero_divisor(text):
    assert parse_divisor(text) == RDivisor({}) == parse_divisor("C0 - C0")
    assert format_divisor(parse_divisor(text)) == "0"


def test_parse_divisor_rejects_garbage():
    for bad in ("", "C0 +", "3/2 C0", "* f", "2**f"):
        with pytest.raises(InvalidInput):
            parse_divisor(bad)


# pieces of both grammars, with radicands at and beyond RADICAND_MAX, and numbers
# near and past the interpreter's 4,300-digit limit on integer text
PIECES = ["0", "1", "2", "3", "12", "007", "/", "+", "-", "*", "**", "(", ")", "sqrt(",
          "sqrt(2)", "sqrt(0)", "sqrt(sqrt(2))", " ", "\t", "C0", "f", "L", "x", "_1", ".", "e5",
          str(RADICAND_MAX), str(RADICAND_MAX + 1), "7" * 5000, "0" * 5000 + "3", "9" * 4000,
          "1/" + "3" * 3000]


@settings(max_examples=300, deadline=2000)
@given(st.one_of(st.lists(st.sampled_from(PIECES), max_size=12).map("".join),
                 st.text(max_size=30)))
@example(f"sqrt({RADICAND_MAX})*C0")
@example(f"sqrt({RADICAND_MAX + 1})*C0")
@example(f"sqrt({'7' * 5000})*C0")
@example(f"({'9' * 4000}+1/{'3' * 3000})*C0")
@example(f"{'7' * 5000}*L")
def test_parsers_round_trip_or_raise_invalid_input(text):
    """Any text parses to a value its formatter writes back, or raises InvalidInput.

    A number past the interpreter's digit limit is refused by divpos's own bound,
    not by the interpreter's advice.
    """
    for parse, fmt in ((parse_quadext, format_quadext), (parse_divisor, format_divisor)):
        try:
            value = parse(text)
        except InvalidInput as exc:
            assert "set_int_max_str_digits" not in str(exc)
            continue
        assert parse(fmt(value)) == value


def test_spec_roundtrip_general():
    d = general_example()
    spec = divisor_to_spec(d)
    assert divisor_from_spec(spec) == d


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3, allow_nan=False)
    | st.sampled_from(["1/2", "sqrt(2)", "x", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["terms", "expansions", "A", "B"]), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(JSON)
def test_divisor_spec_of_any_json_shape_loads_or_raises_invalid_input(spec):
    try:
        D = divisor_from_spec(spec)
    except InvalidInput:
        return
    assert divisor_from_spec(divisor_to_spec(D)) == D


def test_zero_coefficients_dropped():
    d = RDivisor({"C0": 0, "f": Fraction(1, 2)})
    assert list(d.terms) == ["f"]
    assert not d.is_zero()


def test_zdivisor_rejects_non_integers():
    with pytest.raises(InvalidInput):
        ZDivisor((Fraction(3, 2), 0))
    with pytest.raises(InvalidInput):
        ZDivisor((1, 0)) * Fraction(1, 2)
    assert (ZDivisor((1, 2)) * 3).coords == (3, 6)
