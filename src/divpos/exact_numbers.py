"""Exact arithmetic over Q and real quadratic extensions Q(sqrt(d)).

A QuadExt is a + b*sqrt(d) with a, b exact rationals (big-integer
numerator/denominator, canonically reduced) and d a square-free integer.
Rational values carry d = 0.  Floors, signs and comparisons are decided
by integer arithmetic only; floats never enter a decision path.

All irrational coefficients inside one computation must share the same d;
mixing two different radicals raises MixedFieldError.

The radicand is made square-free once, where a value enters: the public
QuadExt(a, b, d) constructor, and through it parse_quadext, quadext and
sqrt_of.  That trial division is bounded by RADICAND_MAX = 10**12 (about
0.1 s at the bound); a larger d raises InvalidInput.  Arithmetic results
share their operands' square-free d, so they skip the decomposition.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from divpos import _kernels
from divpos.errors import InvalidInput, MixedFieldError

RatLike = Union[int, Fraction, str]

RADICAND_MAX = 10**12  # trial division up to sqrt(d) = 10**6


def squarefree_decompose(d: int) -> tuple[int, int]:
    """Write d = s*s*d0 with d0 square-free; returns (d0, s).  0 <= d <= RADICAND_MAX."""
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
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad rational {x!r}: {exc}") from None
    raise InvalidInput(f"not a rational value: {x!r}")


class QuadExt:
    """Exact number a + b*sqrt(d) in a fixed real quadratic field."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RatLike = 0, b: RatLike = 0, d: int = 0):
        fa = _as_fraction(a)
        fb = _as_fraction(b)
        d0, s = squarefree_decompose(int(d))
        if s != 1:
            fb *= s
        if d0 == 1:  # sqrt(1) folds into the rational part
            fa += fb
            fb = Fraction(0)
            d0 = 0
        if d0 == 0:
            fb = Fraction(0)
        if fb == 0:
            d0 = 0
        object.__setattr__(self, "a", fa)
        object.__setattr__(self, "b", fb)
        object.__setattr__(self, "d", d0)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt values are immutable")

    # -- field bookkeeping -------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _join_d(self, other: "QuadExt") -> int:
        if self.d == 0 or self.d == other.d:
            return other.d if self.d == 0 else self.d
        if other.d == 0:
            return self.d
        raise MixedFieldError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d}); "
            "all irrational coefficients must share one quadratic field"
        )

    @staticmethod
    def _coerce(x) -> "QuadExt":
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, int):
            return _trusted_quadext(Fraction(x), _FZERO, 0)
        if isinstance(x, Fraction):
            return _trusted_quadext(x, _FZERO, 0)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic --------------------------------------------------------
    #
    # Operands are canonical (d square-free or 0), so every result is built
    # by _trusted_quadext; an int operand skips the coercion.

    def __add__(self, other):
        if type(other) is int:
            return _trusted_quadext(self.a + other, self.b, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _trusted_quadext(self.a + o.a, self.b + o.b, self._join_d(o))

    __radd__ = __add__

    def __neg__(self):
        return _trusted_quadext(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _trusted_quadext(self.a - o.a, self.b - o.b, self._join_d(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is int:
            return _trusted_quadext(self.a * other, self.b * other, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_d(o)
        # (a + b*sqrt(d)) * (a' + b'*sqrt(d)) = (aa' + bb'd) + (ab' + a'b) sqrt(d)
        return _trusted_quadext(self.a * o.a + self.b * o.b * d,
                                self.a * o.b + o.a * self.b, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.b == 0:
            return _trusted_quadext(1 / self.a, _FZERO, 0)
        # conjugate trick; the norm a^2 - b^2 d is a nonzero rational
        norm = self.a * self.a - self.b * self.b * self.d
        return _trusted_quadext(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    # -- exact decisions ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        N, M, _ = self._int_triple()
        return _kernels.sign_quad(N, M, self.d)

    def _int_triple(self) -> tuple[int, int, int]:
        """(N, M, Q) with self = (N + M*sqrt(d)) / Q, Q > 0."""
        qa, qb = self.a.denominator, self.b.denominator
        return (self.a.numerator * qb, self.b.numerator * qa, qa * qb)

    def floor(self) -> int:
        if self.b == 0:
            return self.a.numerator // self.a.denominator
        N, M, Q = self._int_triple()
        return _kernels.floor_quad(N, M, self.d, Q)

    def frac(self) -> "QuadExt":
        return self - self.floor()

    def __eq__(self, other):
        if type(other) is int:
            return self.b == 0 and self.a == other
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        # rational values must hash like the numbers they equal
        if self.b == 0:
            return hash(self.a)
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

    # -- conversion / display ----------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise InvalidInput(f"{self} is irrational, not representable as a Fraction")
        return self.a

    def __float__(self):
        # display only; decisions never rely on this
        return float(self.a) + float(self.b) * float(self.d) ** 0.5

    def __str__(self):
        return format_quadext(self)

    def __repr__(self):
        return f"QuadExt({self!s})"


_FZERO = Fraction(0)
_set_a, _set_b, _set_d = QuadExt.a.__set__, QuadExt.b.__set__, QuadExt.d.__set__


def _trusted_quadext(a: Fraction, b: Fraction, d: int) -> QuadExt:
    """a + b*sqrt(d) from Fractions a, b and a d already square-free or 0.

    Only for results of arithmetic on canonical values; anything else goes
    through QuadExt(...), which decomposes d.  Only b == 0 -> d = 0 is
    normalised here.
    """
    x = object.__new__(QuadExt)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d if b else 0)
    return x


ZERO = QuadExt(0)
ONE = QuadExt(1)


def quadext(value: Union[QuadExt, int, Fraction, str]) -> QuadExt:
    """Coerce ints, Fractions and coefficient strings to QuadExt."""
    if isinstance(value, QuadExt):
        return value
    if isinstance(value, (int, Fraction)):
        return QuadExt(value)
    if isinstance(value, str):
        return parse_quadext(value)
    raise InvalidInput(f"cannot interpret {value!r} as an exact coefficient")


# -- spec-named operation wrappers ------------------------------------------


def add(x: QuadExt, y: QuadExt) -> QuadExt:
    return quadext(x) + quadext(y)


def mul(x: QuadExt, y: QuadExt) -> QuadExt:
    return quadext(x) * quadext(y)


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
    N, M, Q = alpha._int_triple()
    k = _kernels.weyl_search(N, M, alpha.d, Q, eps.numerator, eps.denominator,
                             k_start, k_max)
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
    total = QuadExt(0)
    sign_pending = 1
    expecting_term = True  # a term is legal here (start, or right after a sign)
    saw_term = False
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise InvalidInput(f"cannot parse coefficient {text!r} at {s[pos:]!r}")
        pos = m.end()
        if m.group("sign"):
            if expecting_term:
                sign_pending *= 1 if m.group("sign") == "+" else -1
            else:
                sign_pending = 1 if m.group("sign") == "+" else -1
                expecting_term = True
            continue
        if not expecting_term:
            raise InvalidInput(f"missing operator in coefficient {text!r} before {s[pos - len(m.group(0)):]!r}")
        if m.group("rad"):
            coef = _as_fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            term = QuadExt(0, sign_pending * coef, int(m.group("d")))
        else:
            term = QuadExt(sign_pending * _as_fraction(m.group("rat")))
        total = total + term
        sign_pending = 1
        expecting_term = False
        saw_term = True
    if expecting_term or not saw_term:
        raise InvalidInput(f"dangling sign in coefficient {text!r}")
    return total


def format_quadext(x: QuadExt) -> str:
    """Canonical text form; parse_quadext(format_quadext(x)) == x."""
    if x.b == 0:
        return str(x.a)
    if x.b == 1:
        rad = f"sqrt({x.d})"
    elif x.b == -1:
        rad = f"-sqrt({x.d})"
    else:
        rad = f"{x.b}*sqrt({x.d})"
    if x.a == 0:
        return rad
    joiner = "+" if x.b > 0 else ""
    return f"{x.a}{joiner}{rad}"


def sqrt_of(d: int) -> QuadExt:
    """sqrt(d) as a QuadExt (d normalized square-free)."""
    return QuadExt(0, 1, d)
