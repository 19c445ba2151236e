"""Kernel correctness against brute force and exact integer identities."""

from math import isqrt

from hypothesis import given
from hypothesis import strategies as st

import divpos
import divpos._kernels as kernels

SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13]


def brute_floor_quad(N, M, d, Q):
    """Floor by outward search from a float hint, confirmed by exact squares."""
    guess = int((N + M * d**0.5) / Q) - 2
    best = None
    for n in range(guess - 2, guess + 8):
        # (N + M*sqrt(d))/Q >= n  <=>  M*sqrt(d) >= n*Q - N
        rhs = n * Q - N
        if M >= 0:
            ok = rhs <= 0 or M * M * d >= rhs * rhs
        else:
            ok = rhs <= 0 and M * M * d <= rhs * rhs
        if ok:
            best = n
    return best


class TestKernels:
    def test_sign_quad(self):
        assert kernels.sign_quad(7, -5, 2) == -1
        assert kernels.sign_quad(-7, 5, 2) == 1
        assert kernels.sign_quad(0, 0, 2) == 0
        assert kernels.sign_quad(3, 1, 2) == 1
        assert kernels.sign_quad(-3, -1, 2) == -1

    def test_floor_quad_examples(self):
        assert kernels.floor_quad(0, 10, 2, 1) == 14
        assert kernels.floor_quad(0, -10, 2, 1) == -15
        assert kernels.floor_quad(3, 2, 2, 2) == 2  # (3 + 2*sqrt(2))/2 = 2.91..
        assert kernels.floor_quad(5, 0, 2, 2) == 2

    def test_floor_multiples_match_single(self):
        out = kernels.floor_multiples_quad(1, 3, 5, 4, 60)
        for m in range(61):
            assert out[m] == kernels.floor_quad(m, 3 * m, 5, 4)

    def test_weyl_search_basic(self):
        assert kernels.weyl_search(0, 1, 2, 1, 1, 10, 1, 10**4) == 5
        assert kernels.weyl_search(0, 1, 2, 1, 1, 2, 1, 10**4) == 1
        assert kernels.weyl_search(0, 1, 2, 1, 1, 100, 1, 3) == -1  # cap too small

    def test_h0_formulas_match_bruteforce(self):
        for e in (0, 1, 2, 3):
            for a in range(-3, 9):
                for b in range(-5, 14):
                    brute = 0
                    if a >= 0:
                        brute = sum(max(0, b - j * e + 1) for j in range(a + 1))
                    assert kernels.h0_hirzebruch(e, a, b) == brute, (e, a, b)
        for n in range(-4, 12):
            brute = sum(1 for i in range(max(n, 0) + 1)
                        for j in range(max(n, 0) + 1) if i + j <= n)
            assert kernels.h0_p2(n) == brute


@given(
    st.integers(min_value=-10**9, max_value=10**9),
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from(SQUAREFREE),
    st.integers(min_value=1, max_value=10**4),
)
def test_floor_quad_vs_bruteforce(N, M, d, Q):
    got = kernels.floor_quad(N, M, d, Q)
    assert got == brute_floor_quad(N, M, d, Q)
    # definitional check: got <= x < got + 1
    assert kernels.sign_quad(N - got * Q, M, d) >= 0
    assert kernels.sign_quad(N - (got + 1) * Q, M, d) < 0


def test_selected_backend_exported():
    assert divpos.BACKEND == "pure"
    assert kernels.floor_quad(0, 10, 2, 1) == 14


def test_big_integers_stay_exact():
    # far beyond 64-bit: floor(10^40 * sqrt(2))
    M = 10**40
    got = kernels.floor_quad(0, M, 2, 1)
    assert got == isqrt(M * M * 2)
    assert got * got <= 2 * M * M < (got + 1) * (got + 1)


def test_floor_quad_pell_boundaries():
    """Convergents of sqrt(2) make M*sqrt(2) astronomically close to integers;
    the +-1 correction branch must still be exact."""
    convergents = [(3, 2), (17, 12), (99, 70), (577, 408), (3363, 2378),
                   (114243, 80782), (22619537, 15994428)]
    for p, q in convergents:
        assert abs(p * p - 2 * q * q) == 1
        want = isqrt(q * q * 2)
        assert kernels.floor_quad(0, q, 2, 1) == want
        # shift so the value sits just above/below an integer
        assert kernels.floor_quad(-want, q, 2, 1) == 0
        assert kernels.floor_quad(-want - 1, q, 2, 1) == -1


@given(st.integers(-50, 50), st.integers(-50, 50), st.sampled_from(SQUAREFREE),
       st.integers(1, 30), st.integers(0, 300), st.integers(0, 130))
def test_floor_multiples_from_a_start_equal_the_tail_of_the_full_scan(N, M, d, Q, s, n):
    """Rows s..s+n equal rows s.. of the scan from 0; M = 0 takes the rational scan."""
    assert kernels.floor_multiples_quad(N, M, d, Q, n, start=s) == \
        kernels.floor_multiples_quad(N, M, d, Q, s + n)[s:]
    assert kernels.floor_multiples_rat(N, Q, n, start=s) == \
        kernels.floor_multiples_rat(N, Q, s + n)[s:]


def test_floor_multiples_negative_slope():
    out = kernels.floor_multiples_quad(1, -3, 5, 4, 50)
    for m in range(51):
        assert out[m] == kernels.floor_quad(m, -3 * m, 5, 4)


def test_weyl_search_with_late_start():
    from fractions import Fraction

    from divpos.exact_numbers import QuadExt, weyl_find, frac

    # independent brute force straight from the integer-square oracle
    def brute(k_start, eps):
        k = k_start
        while True:
            F = isqrt(k * k * 2)
            if k * k * 2 * eps.denominator**2 < (F * eps.denominator + eps.numerator) ** 2:
                return k
            k += 1

    eps = Fraction(1, 10)
    expected = brute(100, eps)
    got = weyl_find(QuadExt(0, 1, 2), eps, 100)
    assert got == expected
    assert frac(QuadExt(0, 1, 2) * got) < QuadExt(eps)
