"""Exact arithmetic over Q and real quadratic extensions Q(sqrt(d)).

A QuadExt stores one canonical integer triple: the value is
(N + M*sqrt(d)) / Q with gcd(N, M, Q) = 1, Q > 0, d a square-free
integer >= 2, and M == 0 exactly when the value is rational, in which
case d = 0.  The read-only properties a and b give the rational and
irrational parts as reduced Fractions.  Every arithmetic result is built
from integers with one gcd, and floors and signs hand the stored triple
to the integer kernels; floats never enter a decision path.

All irrational coefficients inside one computation must share the same d;
mixing two different radicals raises MixedFieldError.

Only a radicand that comes from outside is made square-free: the public
QuadExt(a, b, d) constructor with d not in {0, 1}, and through it the
sqrt terms of parse_quadext and sqrt_of.  That trial division is bounded
by RADICAND_MAX = 10**12 (about 0.1 s at the bound); a larger d raises
InvalidInput.  Ints and Fractions that enter through quadext() or an
arithmetic operand become triples directly, and arithmetic results share
their operands' square-free d.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

from divpos import _kernels
from divpos.errors import InvalidInput, MixedFieldError

RatLike = Union[int, Fraction, str]

RADICAND_MAX = 10**12  # trial division up to sqrt(d) = 10**6

# The most bits of a parsed coefficient's integers (at most 4,215 digits): str()
# refuses integers past 4,300 digits, so a longer value could not be written out.
COEFFICIENT_BITS = 14_000
COEFFICIENT_DIGITS = 4_215   # the most digits of a literal's integer: 10**4215 exceeds the bits
_DIGIT_RUN = re.compile(r"\d+")


@lru_cache(maxsize=64)
def squarefree_decompose(d: int) -> tuple[int, int]:
    """Write d = s*s*d0 with d0 square-free; returns (d0, s).  0 <= d <= RADICAND_MAX.

    Memoised: a computation sees few radicands, and each trial division up
    to sqrt(d) is then made once.
    """
    if d < 0:
        raise InvalidInput(f"d must be non-negative (real quadratic field), got {d}")
    if d > RADICAND_MAX:
        raise InvalidInput(f"radicand {d} exceeds the bound {RADICAND_MAX}")
    if d in (0, 1):
        return d, 1
    s = 1
    d0 = d
    f = 2
    while f * f <= d0:
        f2 = f * f
        while d0 % f2 == 0:
            d0 //= f2
            s *= f
        f += 1 if f == 2 else 2
    return d0, s


def _as_fraction(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if len(x) > COEFFICIENT_DIGITS:   # before Fraction() meets int's digit limit
            digits = max(map(len, _DIGIT_RUN.findall(x)), default=0)
            if digits > COEFFICIENT_DIGITS:
                raise InvalidInput(f"rational {x[:20]!r}... has a {digits}-digit integer; "
                                   f"a coefficient has at most {COEFFICIENT_BITS} bits "
                                   f"({COEFFICIENT_DIGITS} digits)")
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad rational {x!r:.60}: {exc!s:.60}") from None
    raise InvalidInput(f"not a rational value: {x!r:.60}")


class QuadExt:
    """Exact number (N + M*sqrt(d)) / Q in a fixed real quadratic field."""

    __slots__ = ("N", "M", "Q", "d")

    def __init__(self, a: RatLike = 0, b: RatLike = 0, d: int = 0):
        fa = _as_fraction(a)
        fb = _as_fraction(b)
        d = int(d)
        if d == 0 or d == 1:  # no radical, or sqrt(1) = 1
            d0, s = d, 1
        else:
            d0, s = squarefree_decompose(d)
        if d0 == 0:
            fb = 0
        elif d0 == 1:  # sqrt(1) folds into the rational part
            fa += fb * s
            fb = 0
        if fb == 0:
            _store(self, fa.numerator, 0, fa.denominator, 0)
        else:
            qa, qb = fa.denominator, fb.denominator
            _store(self, fa.numerator * qb, fb.numerator * s * qa, qa * qb, d0)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt values are immutable")

    # -- field bookkeeping -------------------------------------------------

    @property
    def a(self) -> Fraction:
        """The rational part N/Q."""
        return Fraction(self.N, self.Q)

    @property
    def b(self) -> Fraction:
        """The coefficient M/Q of sqrt(d)."""
        return Fraction(self.M, self.Q)

    @property
    def is_rational(self) -> bool:
        return self.M == 0

    def _join_d(self, other: "QuadExt") -> int:
        d, e = self.d, other.d
        if d == e or not e:
            return d
        if not d:
            return e
        raise MixedFieldError(
            f"cannot combine sqrt({d}) with sqrt({e}); "
            "all irrational coefficients must share one quadratic field"
        )

    @staticmethod
    def _coerce(x) -> "QuadExt":
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, int):
            return _raw(int(x), 0, 1, 0)
        if isinstance(x, Fraction):
            return _raw(x.numerator, 0, x.denominator, 0)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic --------------------------------------------------------
    #
    # Operands are canonical, so every result is (N + M*sqrt(d)) / Q over
    # integers, reduced by one gcd in _triple.  An int operand skips the
    # coercion (as does a positive int divisor); adding or subtracting one
    # keeps the triple in lowest terms.

    def __add__(self, other):
        if type(other) is int:
            return _raw(self.N + other * self.Q, self.M, self.Q, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_d(o)
        if self.Q == o.Q:
            return _triple(self.N + o.N, self.M + o.M, self.Q, d)
        return _triple(self.N * o.Q + o.N * self.Q, self.M * o.Q + o.M * self.Q,
                       self.Q * o.Q, d)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.N, -self.M, self.Q, self.d)

    def __sub__(self, other):
        if type(other) is int:
            return _raw(self.N - other * self.Q, self.M, self.Q, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_d(o)
        if self.Q == o.Q:
            return _triple(self.N - o.N, self.M - o.M, self.Q, d)
        return _triple(self.N * o.Q - o.N * self.Q, self.M * o.Q - o.M * self.Q,
                       self.Q * o.Q, d)

    def __rsub__(self, other):
        if type(other) is int:
            return _raw(other * self.Q - self.N, -self.M, self.Q, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is int:
            g = gcd(other, self.Q)
            k = other // g
            return _raw(self.N * k, self.M * k, self.Q // g, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_d(o)
        # (N + M*sqrt(d)) * (N' + M'*sqrt(d)) = (NN' + MM'd) + (NM' + N'M) sqrt(d)
        return _triple(self.N * o.N + self.M * o.M * d, self.N * o.M + o.N * self.M,
                       self.Q * o.Q, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        return _quotient(ONE, self)

    def __truediv__(self, other):
        if type(other) is int and other > 0:
            return _triple(self.N, self.M, self.Q * other, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _quotient(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _quotient(o, self)

    # -- exact decisions ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.N and not self.M

    def sign(self) -> int:
        if not self.M:
            return (self.N > 0) - (self.N < 0)
        return _kernels.sign_quad(self.N, self.M, self.d)

    def floor(self) -> int:
        if not self.M:
            return self.N // self.Q
        return _kernels.floor_quad(self.N, self.M, self.d, self.Q)

    def frac(self) -> "QuadExt":
        return self - self.floor()

    def __eq__(self, other):
        if type(other) is int:
            return not self.M and self.Q == 1 and self.N == other
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.N == o.N and self.M == o.M and self.Q == o.Q and self.d == o.d

    def __hash__(self):
        # rational values must hash like the numbers they equal
        if not self.M:
            return hash(self.N) if self.Q == 1 else hash(Fraction(self.N, self.Q))
        return hash((self.a, self.b, self.d))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare QuadExt with {type(other).__name__}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- display -----------------------------------------------------------

    def __str__(self):
        return format_quadext(self)

    def __repr__(self):
        return f"QuadExt({self!s})"


_new = object.__new__
_set_N, _set_M = QuadExt.N.__set__, QuadExt.M.__set__
_set_Q, _set_d = QuadExt.Q.__set__, QuadExt.d.__set__


def _raw(N: int, M: int, Q: int, d: int) -> QuadExt:
    """(N + M*sqrt(d)) / Q from a triple already in lowest terms, Q > 0, d square-free or 0."""
    x = _new(QuadExt)
    _set_N(x, N)
    _set_M(x, M)
    _set_Q(x, Q)
    _set_d(x, d if M else 0)
    return x


def _store(x: QuadExt, N: int, M: int, Q: int, d: int) -> QuadExt:
    """Set x to (N + M*sqrt(d)) / Q, Q > 0, reduced by gcd(N, M, Q)."""
    g = gcd(N, M, Q)
    if g != 1:
        N //= g
        M //= g
        Q //= g
    _set_N(x, N)
    _set_M(x, M)
    _set_Q(x, Q)
    _set_d(x, d if M else 0)
    return x


def _triple(N: int, M: int, Q: int, d: int) -> QuadExt:
    """(N + M*sqrt(d)) / Q from integers with Q > 0 and d square-free or 0."""
    return _store(_new(QuadExt), N, M, Q, d)


def _quotient(x: QuadExt, y: QuadExt) -> QuadExt:
    """x / y in one triple: 1/y = Q (N - M*sqrt(d)) / (N^2 - M^2 d) for y = (N + M*sqrt(d))/Q."""
    d = x._join_d(y)
    N, M, Q = y.N, y.M, y.Q
    if M:
        norm = N * N - M * M * d  # nonzero: d is square-free >= 2
        N, M = x.N * N - x.M * M * d, x.M * N - x.N * M
    elif N:
        norm, N, M = N, x.N, x.M
    else:
        raise ZeroDivisionError("inverse of zero")
    if norm < 0:  # keep the denominator positive
        norm, Q = -norm, -Q
    return _triple(N * Q, M * Q, x.Q * norm, d)


ZERO = _raw(0, 0, 1, 0)
ONE = _raw(1, 0, 1, 0)


def quadext(value: Union[QuadExt, int, Fraction, str]) -> QuadExt:
    """Coerce ints, Fractions and coefficient strings to QuadExt."""
    if isinstance(value, QuadExt):
        return value
    if isinstance(value, str):
        return parse_quadext(value)
    x = QuadExt._coerce(value)
    if x is NotImplemented:
        raise InvalidInput(f"cannot interpret {value!r:.60} as an exact coefficient")
    return x


# -- spec-named operation wrappers ------------------------------------------


def sign(x: QuadExt) -> int:
    return quadext(x).sign()


def floor(x: QuadExt) -> int:
    return quadext(x).floor()


def frac(x: QuadExt) -> QuadExt:
    return quadext(x).frac()


def weyl_find(alpha: QuadExt, epsilon: RatLike, k_start: int = 1,
              k_max: int = 10**7) -> int:
    """Smallest k >= k_start with frac(k*alpha) < epsilon, alpha irrational.

    Equidistribution of {k*alpha} guarantees termination for every
    epsilon in (0, 1); k_max is only a safety cap and raising it never
    changes a returned value.
    """
    alpha = quadext(alpha)
    if alpha.is_rational:
        raise InvalidInput(
            "weyl_find needs an irrational alpha; for rational values use the denominator"
        )
    eps = _as_fraction(epsilon)
    if not (0 < eps < 1):
        raise InvalidInput(f"epsilon must lie in (0, 1), got {eps}")
    if k_start < 1:
        raise InvalidInput(f"k_start must be >= 1, got {k_start}")
    k = _kernels.weyl_search(alpha.N, alpha.M, alpha.d, alpha.Q, eps.numerator,
                             eps.denominator, k_start, k_max)
    if k < 0:
        raise InvalidInput(f"no k <= k_max={k_max} found; raise k_max")
    return k


# -- text syntax -------------------------------------------------------------
#
# value   := term (("+" | "-") term)*
# term    := rat | [rat "*"] "sqrt" "(" uint ")"
# rat     := ["+"|"-"] uint ["/" uint]
#
# Whitespace-insensitive; parse/format round-trips exactly.

_TOKEN = re.compile(
    r"""(?P<sign>[+-])
      | (?P<rad>(?:(?P<coef>\d+(?:/\d+)?)\*)?sqrt\((?P<d>\d+)\))
      | (?P<rat>\d+(?:/\d+)?)
    """,
    re.VERBOSE,
)


def parse_quadext(text: str) -> QuadExt:
    """Parse "p/q" or "p/q+r/s*sqrt(d)" (whitespace-insensitive)."""
    s = "".join(text.split())
    if not s:
        raise InvalidInput("empty coefficient")
    pos = 0
    total = ZERO
    sign_pending = 1
    expecting_term = True  # a term is legal here (start, or right after a sign)
    saw_term = False
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise InvalidInput(f"cannot parse coefficient {text!r:.60} at {s[pos:]!r:.60}")
        pos = m.end()
        if m.group("sign"):
            if expecting_term:
                sign_pending *= 1 if m.group("sign") == "+" else -1
            else:
                sign_pending = 1 if m.group("sign") == "+" else -1
                expecting_term = True
            continue
        if not expecting_term:
            raise InvalidInput(f"missing operator in coefficient {text!r:.60} "
                               f"before {s[pos - len(m.group(0)):]!r:.60}")
        if m.group("rad"):
            coef = _as_fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            digits = m.group("d").lstrip("0")
            if len(digits) > len(str(RADICAND_MAX)):   # before int() meets its digit limit
                raise InvalidInput(f"radicand {digits[:20]}... ({len(digits)} digits) "
                                   f"exceeds the bound {RADICAND_MAX}")
            term = QuadExt(0, sign_pending * coef, int(digits or "0"))
        else:
            term = quadext(sign_pending * _as_fraction(m.group("rat")))
        try:
            total = total + term
        except MixedFieldError:
            raise InvalidInput(f"coefficient {text!r:.60} mixes two square roots") from None
        sign_pending = 1
        expecting_term = False
        saw_term = True
    if expecting_term or not saw_term:
        raise InvalidInput(f"dangling sign in coefficient {text!r:.60}")
    return check_size(total, text)


def check_size(x: QuadExt, text: str) -> QuadExt:
    """x, parsed from text, unless its integers exceed COEFFICIENT_BITS (InvalidInput)."""
    if max(abs(x.N), abs(x.M), x.Q).bit_length() > COEFFICIENT_BITS:
        raise InvalidInput(f"a coefficient of {text[:40]!r}... exceeds {COEFFICIENT_BITS} bits")
    return x


def format_quadext(x: QuadExt) -> str:
    """Canonical text form; parse_quadext(format_quadext(x)) == x."""
    a, b = x.a, x.b
    if b == 0:
        return str(a)
    if b == 1:
        rad = f"sqrt({x.d})"
    elif b == -1:
        rad = f"-sqrt({x.d})"
    else:
        rad = f"{b}*sqrt({x.d})"
    if a == 0:
        return rad
    joiner = "+" if b > 0 else ""
    return f"{a}{joiner}{rad}"


def sqrt_of(d: int) -> QuadExt:
    """sqrt(d) as a QuadExt (d normalized square-free)."""
    return QuadExt(0, 1, d)
