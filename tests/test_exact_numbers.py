"""Exact quadratic-field arithmetic: examples and algebraic properties."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divpos.exact_numbers as en
from divpos.divisor import ZDivisor
from divpos.errors import InvalidInput, MixedFieldError
from divpos.exact_numbers import (
    RADICAND_MAX,
    QuadExt,
    floor,
    format_quadext,
    frac,
    parse_quadext,
    sign,
    sqrt_of,
    squarefree_decompose,
    weyl_find,
)
from divpos.positivity import build_report
from divpos.surface import CurveClass, SurfaceModel, hirzebruch, projective_plane

SQRT2 = sqrt_of(2)
SQRT3 = sqrt_of(3)


# -- independent oracles -------------------------------------------------------


def floor_oracle(x: QuadExt) -> int:
    """Floor by scanning near an integer-square bracket; independent path."""
    if x.b == 0:
        return x.a.numerator // x.a.denominator
    # bracket b*sqrt(d) with the integer square root and search outward
    approx = (x.b.numerator * isqrt(x.b.denominator**2 * x.d)) // (x.b.denominator**2)
    lo = x.a.numerator // x.a.denominator + approx - 3
    best = None
    for n in range(lo, lo + 8):
        if (x - n).sign() >= 0:
            best = n
    assert best is not None
    return best


def frac_lt_oracle(k: int, d: int, eps: Fraction) -> bool:
    """frac(k*sqrt(d)) < eps by pure integer-square comparisons."""
    F = isqrt(k * k * d)  # floor(k*sqrt(d)), exact for non-square d
    # k*sqrt(d) - F < eps  <=>  k*sqrt(d) < F + eps; both sides positive
    lhs_sq = k * k * d * eps.denominator**2
    rhs = F * eps.denominator + eps.numerator
    return lhs_sq < rhs * rhs


# -- arithmetic examples -------------------------------------------------------


def test_add_rationals():
    assert QuadExt(Fraction(1, 2)) + QuadExt(Fraction(1, 3)) == QuadExt(Fraction(5, 6))


def test_add_conjugate_cancellation():
    x = QuadExt(1, 1, 2)
    y = QuadExt(2, -1, 2)
    assert x + y == QuadExt(3)
    assert (x + y).is_rational


def test_add_like_terms():
    assert QuadExt(0, Fraction(3, 2), 2) + QuadExt(0, Fraction(1, 2), 2) == QuadExt(0, 2, 2)


def test_mul_sqrt2_squared():
    assert SQRT2 * SQRT2 == QuadExt(2)


def test_mul_rational_scalar():
    assert QuadExt(Fraction(1, 2)) * QuadExt(3) == QuadExt(Fraction(3, 2))


def test_mul_norm():
    assert QuadExt(1, 1, 2) * QuadExt(1, -1, 2) == QuadExt(-1)


def test_mixed_field_rejected():
    with pytest.raises(MixedFieldError):
        _ = SQRT2 + SQRT3
    with pytest.raises(MixedFieldError):
        _ = SQRT2 * SQRT3
    # one rational operand is always fine
    assert SQRT2 + QuadExt(Fraction(1, 2)) == QuadExt(Fraction(1, 2), 1, 2)


def test_division():
    x = QuadExt(1, 1, 2)
    assert x / x == QuadExt(1)
    assert (QuadExt(2) / SQRT2) == SQRT2


# -- sign ------------------------------------------------------------------------


def test_sign_examples():
    assert sign(QuadExt(1, -1, 2)) == -1  # sqrt(2) > 1
    assert sign(QuadExt(0)) == 0
    # 7 - 5*sqrt(2): compare 49 against 50 in integers
    assert 7 * 7 < 5 * 5 * 2
    assert sign(QuadExt(7, -5, 2)) == -1


def test_sign_close_calls():
    assert sign(QuadExt(99, -70, 2)) == 1    # 9801 > 9800
    assert sign(QuadExt(-99, 70, 2)) == -1
    assert 239 * 239 < 169 * 169 * 2         # 57121 < 57122
    assert sign(QuadExt(239, -169, 2)) == -1


# -- floor / frac ----------------------------------------------------------------


def test_floor_examples():
    assert floor(QuadExt(Fraction(3, 2))) == 1
    assert floor(QuadExt(Fraction(-3, 2))) == -2  # floor, not truncation
    # floor(10*sqrt(2)) = 14 by the integer-square oracle: 14^2 = 196 <= 200 < 225
    assert isqrt(10 * 10 * 2) == 14
    assert floor(SQRT2 * 10) == 14


def test_frac_examples():
    x = SQRT2 * 10
    assert frac(x) == x - 14
    assert frac(QuadExt(Fraction(-3, 2))) == QuadExt(Fraction(1, 2))


@pytest.mark.parametrize("num, den", [(3, 2), (-3, 2), (7, 1), (-22, 7), (0, 5)])
def test_floor_rational_matches_int_division(num, den):
    assert floor(QuadExt(Fraction(num, den))) == num // den


# -- weyl ------------------------------------------------------------------------


def test_weyl_sqrt2_tenth():
    # brute force by the integer oracle: first k with frac(k*sqrt(2)) < 1/10
    eps = Fraction(1, 10)
    expected = next(k for k in range(1, 100) if frac_lt_oracle(k, 2, eps))
    assert expected == 5
    assert weyl_find(SQRT2, eps, 1) == 5
    # frac(5*sqrt(2)) = 5*sqrt(2) - 7
    assert floor(SQRT2 * 5) == 7


def test_weyl_sqrt2_half():
    assert weyl_find(SQRT2, Fraction(1, 2), 1) == 1


def test_weyl_sqrt3_quarter():
    eps = Fraction(1, 4)
    expected = next(k for k in range(1, 100) if frac_lt_oracle(k, 3, eps))
    assert expected == 3  # frac(3*sqrt(3)) = 3*sqrt(3) - 5, and 12*sqrt(3) < 21
    assert weyl_find(SQRT3, eps, 1) == expected


def test_weyl_k_start():
    k = weyl_find(SQRT2, Fraction(1, 10), 6)
    assert k > 5
    assert frac(SQRT2 * k) < QuadExt(Fraction(1, 10))


def test_weyl_rejects_rational_alpha():
    with pytest.raises(InvalidInput):
        weyl_find(QuadExt(Fraction(3, 2)), Fraction(1, 10), 1)


def test_weyl_rejects_bad_epsilon():
    with pytest.raises(InvalidInput):
        weyl_find(SQRT2, Fraction(3, 2), 1)
    with pytest.raises(InvalidInput):
        weyl_find(SQRT2, 0, 1)


# -- normalization ---------------------------------------------------------------


def test_squarefree_decomposition():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(12) == (3, 2)
    assert squarefree_decompose(49) == (1, 7)
    assert squarefree_decompose(2) == (2, 1)
    assert squarefree_decompose(0) == (0, 1)


def test_radical_normalization():
    assert sqrt_of(8) == QuadExt(0, 2, 2)
    assert sqrt_of(4) == QuadExt(2)
    assert QuadExt(1, 3, 1) == QuadExt(4)
    assert QuadExt(5, 7, 0) == QuadExt(5)


def test_negative_d_rejected():
    with pytest.raises(InvalidInput):
        QuadExt(0, 1, -2)


def test_radicand_bound():
    assert squarefree_decompose(RADICAND_MAX) == (1, 10**6)
    with pytest.raises(InvalidInput, match=f"radicand {RADICAND_MAX + 39} .*{RADICAND_MAX}"):
        squarefree_decompose(RADICAND_MAX + 39)
    with pytest.raises(InvalidInput, match="radicand"):
        parse_quadext(f"sqrt({RADICAND_MAX + 39})")
    # digits are counted before int() meets the interpreter's 4,300-digit limit
    with pytest.raises(InvalidInput,
                       match=rf"radicand 7{{20}}\.\.\. \(5000 digits\) .*{RADICAND_MAX}"):
        parse_quadext("sqrt(" + "0" * 10 + "7" * 5000 + ")")
    assert parse_quadext("sqrt(" + "0" * 5000 + "2)") == QuadExt(0, 1, 2)


# -- text round-trip --------------------------------------------------------------


@pytest.mark.parametrize("text, value", [
    ("3/2", QuadExt(Fraction(3, 2))),
    ("-3/2", QuadExt(Fraction(-3, 2))),
    ("1/2+3/4*sqrt(2)", QuadExt(Fraction(1, 2), Fraction(3, 4), 2)),
    ("sqrt(2)", SQRT2),
    ("-sqrt(5)", QuadExt(0, -1, 5)),
    ("2*sqrt(3)", QuadExt(0, 2, 3)),
    (" 1/2 + 3/4 * sqrt(2) ".replace(" * ", "*"), QuadExt(Fraction(1, 2), Fraction(3, 4), 2)),
    ("0", QuadExt(0)),
    ("7", QuadExt(7)),
    ("-2+sqrt(3)", QuadExt(-2, 1, 3)),
])
def test_parse_examples(text, value):
    assert parse_quadext(text) == value


def test_parse_rejects_garbage():
    for bad in ("", "1//2", "sqrt(2", "1 +", "x"):
        with pytest.raises(InvalidInput):
            parse_quadext(bad)


# -- properties --------------------------------------------------------------------

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
small_d = st.sampled_from([2, 3, 5, 6, 7, 10])


@st.composite
def quads(draw, allow_rational=True, d=small_d):
    a = draw(rationals)
    if allow_rational and draw(st.booleans()):
        return QuadExt(a)
    return QuadExt(a, draw(rationals), draw(d))


@given(quads())
def test_floor_frac_identity(x):
    f = x.floor()
    r = x.frac()
    assert x == QuadExt(f) + r
    assert QuadExt(0) <= r < QuadExt(1)
    assert QuadExt(f) <= x < QuadExt(f + 1)


@given(quads())
def test_sign_antisymmetric(x):
    assert sign(-x) == -sign(x)


@given(st.data())
def test_sign_multiplicative(data):
    d = data.draw(small_d)
    x = QuadExt(data.draw(rationals), data.draw(rationals), d)
    y = QuadExt(data.draw(rationals), data.draw(rationals), d)
    assert sign(x * y) == sign(x) * sign(y)


@given(st.data())
@settings(max_examples=60)
def test_field_axioms_same_d(data):
    d = data.draw(small_d)
    mk = lambda: QuadExt(data.draw(rationals), data.draw(rationals), d)  # noqa: E731
    x, y, z = mk(), mk(), mk()
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == QuadExt(1)


@given(quads())
def test_format_parse_roundtrip(x):
    assert parse_quadext(format_quadext(x)) == x


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=50))
def test_weyl_result_verifiable(d_raw, q):
    d, _ = squarefree_decompose(d_raw)
    if d < 2:
        return
    alpha = QuadExt(0, Fraction(1, q), d)
    eps = Fraction(1, 7)
    k = weyl_find(alpha, eps, 1, k_max=10**6)
    assert frac(alpha * k) < QuadExt(eps)
    for j in range(1, k):
        assert not frac(alpha * j) < QuadExt(eps)


def test_hash_consistent_with_numeric_equality():
    assert QuadExt(2) == 2 and hash(QuadExt(2)) == hash(2)
    half = QuadExt(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert hash(QuadExt(0, 1, 2)) == hash(QuadExt(0, 1, 2))
    table = {QuadExt(3): "q"}
    assert table.get(3) == "q"


def test_numeric_comparisons_with_plain_numbers():
    assert QuadExt(0, 1, 2) > 1
    assert QuadExt(0, 1, 2) < Fraction(3, 2)
    assert QuadExt(Fraction(1, 3)) <= Fraction(1, 3)


# -- trusted arithmetic results ---------------------------------------------------------


def assert_canonical(r):
    """r equals, hashes like and has the fields of the validated QuadExt(r.a, r.b, r.d).

    Its stored triple (N + M*sqrt(d)) / Q is in lowest terms with Q > 0,
    and a rational value (M == 0) carries d == 0.
    """
    want = QuadExt(r.a, r.b, r.d)
    assert r == want and hash(r) == hash(want)
    assert type(r.a) is type(want.a) is Fraction and type(r.b) is type(want.b) is Fraction
    assert (r.a, r.b, r.d) == (want.a, want.b, want.d)
    assert gcd(r.N, r.M, r.Q) == 1 and r.Q > 0
    assert r.M != 0 or r.d == 0
    assert all(type(v) is int for v in (r.N, r.M, r.Q, r.d))
    assert (r.N, r.M, r.Q, r.d) == (want.N, want.M, want.Q, want.d)


@settings(max_examples=200)
@given(st.data())
def test_arithmetic_results_are_canonical(data):
    d = data.draw(st.sampled_from([2, 3, 5, 6, 7, 10, 1000003]))
    x = data.draw(quads(d=st.just(d)))
    y = data.draw(st.one_of(quads(d=st.just(d)), st.integers(-10**6, 10**6), rationals))
    results = [x + y, y + x, x - y, y - x, x * y, y * x, -x]
    if not x.is_zero():
        results += [x.inverse(), y / x]
    if y != 0:
        results.append(x / y)
    for r in results:
        assert_canonical(r)
    assert (x - y) + y == x
    assert x + y - x == y


def test_construction_boundary_still_canonicalises():
    assert QuadExt(0, 1, 8) == 2 * SQRT2
    assert format_quadext(QuadExt(0, 1, 8)) == "2*sqrt(2)"
    assert sqrt_of(1) == 1 and sqrt_of(1).d == 0
    assert parse_quadext("2+3*sqrt(1)") == QuadExt(5)
    big = sqrt_of(1000003)
    assert (big * 3 + 1).d == 1000003 and (big * 0).d == 0 and (big - big).d == 0
    for op in (lambda: SQRT2 + SQRT3, lambda: SQRT2 - SQRT3, lambda: SQRT2 * SQRT3,
               lambda: SQRT2 / SQRT3, lambda: SQRT2 < SQRT3):
        with pytest.raises(MixedFieldError):
            op()


def test_report_decomposes_the_radicand_only_at_the_boundary(monkeypatch):
    seen = []
    original = en.squarefree_decompose

    def counting(d):
        seen.append(d)
        return original(d)

    monkeypatch.setattr(en, "squarefree_decompose", counting)
    build_report(hirzebruch(2), "(1/3+sqrt(1000003))*C0 + (2-1/2*sqrt(1000003))*f", m_max=40)
    assert len([d for d in seen if d > 1]) <= 4


# -- pairings ----------------------------------------------------------------------------


def double_loop_pairing(M, v, w):
    """sum_ij v_i M_ij w_j term by term over the nonzero M_ij."""
    total = 0
    for i, vi in enumerate(v):
        for j, wj in enumerate(w):
            if M[i][j]:
                total = total + vi * wj * M[i][j]
    return total


def model_with_matrix(M):
    rho = len(M)
    unit = tuple(int(i == 0) for i in range(rho))
    return SurfaceModel(
        name="random", basis=tuple(f"E{i}" for i in range(rho)), intersection_matrix=M,
        mori_generators=(CurveClass("E0", unit),), effective_generators=(ZDivisor(unit),),
        canonical_class=ZDivisor((0,) * rho), chi_structure=1)


@st.composite
def symmetric_matrices(draw):
    rho = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    upper = {(i, j): draw(entry) for i in range(rho) for j in range(i, rho)}
    return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(rho)) for i in range(rho))


BUILT_IN = [hirzebruch(e) for e in range(4)] + [projective_plane()]


@settings(max_examples=150)
@given(st.one_of(st.sampled_from(BUILT_IN), symmetric_matrices().map(model_with_matrix)),
       st.data())
def test_pair_coords_matches_the_double_loop(S, data):
    d = data.draw(small_d)
    entry = st.one_of(quads(d=st.just(d)), st.integers(-20, 20))
    v = data.draw(st.lists(entry, min_size=S.rho, max_size=S.rho))
    w = data.draw(st.lists(st.one_of(st.integers(-20, 20), entry), min_size=S.rho,
                           max_size=S.rho))
    assert S.pair_coords(v, w) == double_loop_pairing(S.intersection_matrix, v, w)


# -- the integer triple against a (Fraction, Fraction, d) model -------------------------


def model_of(x):
    """(a, b, d) of a QuadExt, int or Fraction, read through the public fields."""
    if isinstance(x, QuadExt):
        return (x.a, x.b, x.d)
    return (Fraction(x), Fraction(0), 0)


def model_join(x, y):
    assert x[2] == 0 or y[2] == 0 or x[2] == y[2]
    return x[2] or y[2]


def model_add(x, y):
    return (x[0] + y[0], x[1] + y[1], model_join(x, y))


def model_neg(x):
    return (-x[0], -x[1], x[2])


def model_mul(x, y):
    d = model_join(x, y)
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + y[0] * x[1], d)


def model_inverse(x):
    a, b, d = x
    norm = a * a - b * b * d
    return (a / norm, -b / norm, d)


def model_sign(x):
    a, b, d = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    return sa if a * a > b * b * d else sb


def model_floor(x):
    """Largest n with x - n >= 0, near floor(a) + floor(b*sqrt(d))."""
    a, b, d = x
    p, q = abs(b.numerator), b.denominator
    t = isqrt(p * p * d) // q  # floor(|b|*sqrt(d))
    near = a.numerator // a.denominator + (t if b >= 0 else -t)
    return max(n for n in range(near - 3, near + 4) if model_sign((a - n, b, d)) >= 0)


def model_hash(x):
    a, b, d = x
    return hash(a) if b == 0 else hash((a, b, d))


def assert_matches(r, model):
    a, b, d = model
    assert (r.a, r.b, r.d) == (a, b, d if b else 0)
    assert hash(r) == model_hash(model)
    assert r.sign() == model_sign(model)
    assert r.floor() == model_floor(model)
    assert_canonical(r)


@settings(max_examples=300)
@given(st.data())
def test_triple_arithmetic_matches_the_fraction_model(data):
    d = data.draw(st.sampled_from([2, 3, 5, 1000003]))
    x = data.draw(quads(d=st.just(d)))
    y = data.draw(st.one_of(quads(d=st.just(d)), st.integers(-10**6, 10**6), rationals))
    mx, my = model_of(x), model_of(y)
    assert_matches(x, mx)
    cases = [(x + y, model_add(mx, my)), (y + x, model_add(my, mx)),
             (x - y, model_add(mx, model_neg(my))), (y - x, model_add(my, model_neg(mx))),
             (x * y, model_mul(mx, my)), (y * x, model_mul(my, mx)), (-x, model_neg(mx))]
    if not x.is_zero():
        cases += [(x.inverse(), model_inverse(mx)), (y / x, model_mul(my, model_inverse(mx)))]
    if y != 0:
        cases.append((x / y, model_mul(mx, model_inverse(my))))
    for r, model in cases:
        assert_matches(r, model)


@pytest.mark.parametrize("x", [QuadExt(1, -1, 2), QuadExt(Fraction(-3, 7)),
                               QuadExt(Fraction(2, 3), Fraction(-5, 4), 1000003)])
def test_inverse_of_a_negative_norm_keeps_q_positive(x):
    r = x.inverse()
    assert r.Q > 0 and r * x == 1
    assert_canonical(r)
