"""Formal divisors with exact coefficients and the integral-part calculus.

An RDivisor is a finite formal sum of named components with QuadExt
coefficients.  In "prime" representation the labels are the surface's
prime-divisor basis; in "general" representation each component carries
its own integer expansion in that basis (components need not be prime).
A ZDivisor is an integer coordinate vector in the prime basis.

The operators here are the coefficientwise floor [D], the fractional
part {D} = D - [D], the rounding decomposition of [mD] into a floored
combination plus a correction term T_m, and the euclidean split
[mD] = t*(kD) + [iD] available for rational divisors.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, neg, sub
from typing import Union

from divpos import _kernels
from divpos.errors import InternalError, InvalidInput, RepresentationError
from divpos.exact_numbers import ZERO, QuadExt, check_size, format_quadext, parse_quadext, quadext

CoefLike = Union[QuadExt, int, Fraction, str]


@dataclass(frozen=True, slots=True)
class ZDivisor:
    """Integral divisor class: integer coordinates in the prime basis.

    The constructor checks that every coordinate is an integer.  Sums,
    differences, negations and integer multiples of ZDivisors have
    integer coordinates by construction, so they skip that check.
    """

    coords: tuple[int, ...]

    def __post_init__(self):
        clean = []
        for c in self.coords:
            ic = int(c)
            if ic != c:
                raise InvalidInput(f"ZDivisor coordinate {c!r:.60} is not an integer")
            clean.append(ic)
        object.__setattr__(self, "coords", tuple(clean))

    def __add__(self, other: "ZDivisor") -> "ZDivisor":
        a, b = self.coords, other.coords
        if len(a) != len(b):
            raise InvalidInput(f"rank mismatch: {len(a)} vs {len(b)} coordinates")
        return trusted_zdivisor(tuple(map(add, a, b)))

    def __sub__(self, other: "ZDivisor") -> "ZDivisor":
        a, b = self.coords, other.coords
        if len(a) != len(b):
            raise InvalidInput(f"rank mismatch: {len(a)} vs {len(b)} coordinates")
        return trusted_zdivisor(tuple(map(sub, a, b)))

    def __neg__(self) -> "ZDivisor":
        return trusted_zdivisor(tuple(map(neg, self.coords)))

    def __mul__(self, n: int) -> "ZDivisor":
        coords = tuple(n * x for x in self.coords)
        if type(n) is int:
            return trusted_zdivisor(coords)
        return ZDivisor(coords)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def trusted_zdivisor(coords: tuple[int, ...]) -> ZDivisor:
    """A ZDivisor from a tuple of Python ints, without re-checking them.

    Only for coordinates computed from integers; anything else goes
    through ZDivisor(...), which validates.
    """
    z = object.__new__(ZDivisor)
    object.__setattr__(z, "coords", coords)
    return z


class RDivisor:
    """Formal sum of named integral divisors with QuadExt coefficients."""

    __slots__ = ("terms", "expansions")

    def __init__(
        self,
        terms: Mapping[str, CoefLike] | Iterable[tuple[str, CoefLike]],
        expansions: Mapping[str, Sequence[int]] | None = None,
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[str, QuadExt] = {}
        for label, coef in items:
            c = quadext(coef)
            if not c.is_zero():
                if label in clean:
                    c = clean[label] + c
                clean[label] = c
        clean = {k: v for k, v in clean.items() if not v.is_zero()}
        object.__setattr__(self, "terms", dict(sorted(clean.items())))
        if expansions is not None:
            exp = {str(k): tuple(int(x) for x in v) for k, v in expansions.items()}
            missing = [k for k in self.terms if k not in exp]
            if missing:
                raise InvalidInput(f"general representation lacks expansions for {missing}")
            lens = {len(v) for v in exp.values()}
            if len(lens) > 1:
                raise InvalidInput("expansion vectors have inconsistent lengths")
            object.__setattr__(self, "expansions", exp)
        else:
            object.__setattr__(self, "expansions", None)

    def __setattr__(self, name, value):
        raise AttributeError("RDivisor values are immutable")

    @property
    def representation(self) -> str:
        return "prime" if self.expansions is None else "general"

    def coefficient(self, label: str) -> QuadExt:
        return self.terms.get(label, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(c.is_rational for c in self.terms.values())

    # -- linear structure ----------------------------------------------------

    def scaled(self, factor: CoefLike) -> "RDivisor":
        f = quadext(factor)
        return RDivisor({k: v * f for k, v in self.terms.items()}, self.expansions)

    def __add__(self, other: "RDivisor") -> "RDivisor":
        if self.representation != other.representation:
            raise RepresentationError("cannot add prime and general representations")
        merged = dict(self.terms)
        for k, v in other.terms.items():
            merged[k] = merged.get(k, ZERO) + v
        exp = None
        if self.expansions is not None:
            exp = dict(self.expansions)
            for k, v in (other.expansions or {}).items():
                if k in exp and exp[k] != v:
                    raise InvalidInput(f"conflicting expansions for component {k!r:.60}")
                exp[k] = v
        return RDivisor(merged, exp)

    def __neg__(self) -> "RDivisor":
        return self.scaled(-1)

    def __sub__(self, other: "RDivisor") -> "RDivisor":
        return self + (-other)

    # -- coordinates ----------------------------------------------------------

    def coefficients(self, basis: Sequence[str]) -> tuple[QuadExt, ...]:
        """Coefficient vector over the prime basis; prime representation only."""
        if self.expansions is not None:
            raise RepresentationError(
                "divisor is in general representation; use expand_coefficients"
            )
        unknown = [k for k in self.terms if k not in basis]
        if unknown:
            raise InvalidInput(f"labels {unknown!s:.60} not in the surface basis "
                               f"{list(basis)!s:.60}")
        return tuple(self.coefficient(lbl) for lbl in basis)

    def expand_coefficients(self, basis: Sequence[str]) -> tuple[QuadExt, ...]:
        """Coefficient vector over the prime basis for either representation."""
        if self.expansions is None:
            return self.coefficients(basis)
        rho = len(basis)
        out = [ZERO] * rho
        for label, coef in self.terms.items():
            vec = self.expansions[label]
            if len(vec) != rho:
                raise InvalidInput(
                    f"expansion of {label!r:.60} has length {len(vec)}, expected {rho}"
                )
            for j, e in enumerate(vec):
                if e:
                    out[j] = out[j] + coef * e
        return tuple(out)

    def to_prime(self, basis: Sequence[str]) -> "RDivisor":
        coeffs = self.expand_coefficients(basis)
        return RDivisor({lbl: c for lbl, c in zip(basis, coeffs)})

    def __eq__(self, other):
        if not isinstance(other, RDivisor):
            return NotImplemented
        return self.terms == other.terms and self.expansions == other.expansions

    def __hash__(self):
        exp = None
        if self.expansions is not None:
            exp = tuple(sorted(self.expansions.items()))
        return hash((tuple(self.terms.items()), exp))

    def __str__(self):
        return format_divisor(self)

    def __repr__(self):
        return f"RDivisor({format_divisor(self)!r})"


def zdivisor_to_r(V: ZDivisor, basis: Sequence[str]) -> RDivisor:
    return RDivisor({lbl: c for lbl, c in zip(basis, V.coords)})


# -- integral / fractional part ----------------------------------------------


def integral_part(D: RDivisor, basis: Sequence[str]) -> ZDivisor:
    """[D]: coefficientwise floor over the prime basis."""
    coeffs = D.coefficients(basis)
    return ZDivisor(tuple(c.floor() for c in coeffs))


def fractional_part(D: RDivisor, basis: Sequence[str]) -> RDivisor:
    """{D} = D - [D]; all coefficients in [0, 1)."""
    coeffs = D.coefficients(basis)
    return RDivisor({lbl: c - c.floor() for lbl, c in zip(basis, coeffs)})


def integral_part_multiples(D: RDivisor, basis: Sequence[str], m_max: int) -> "MultiplesColumn":
    """[[mD] for m in 0..m_max], unbuilt: a row is built when it is first read."""
    return MultiplesColumn(tuple(D.expand_coefficients(basis)), m_max)


class MultiplesColumn(Sequence):
    """The rows [mD], m in 0..m_max, of a divisor D with prime ``coefficients``.

    A row is built when it is first read and kept, so a row read twice is
    the same object and memory grows with the rows read, not with m_max.
    A read builds its row alone, through a one-row floor scan per
    coordinate.  The first iteration builds every row, one floor scan per
    coordinate over the whole column, and keeps the rows read before it.
    ``stretch(start, n)`` builds a run of rows with one floor scan per
    coordinate and keeps none of them, so a walk costs no memory per row.
    """

    __slots__ = ("coefficients", "m_max", "_rows")

    def __init__(self, coefficients: tuple[QuadExt, ...], m_max: int):
        self.coefficients = coefficients
        self.m_max = m_max
        self._rows: dict[int, ZDivisor] | list[ZDivisor] = {}   # a list once iterated

    def rows(self, start: int, n: int) -> list[tuple[int, ...]]:
        """[mD] for m in start..start+n as coordinate tuples, via the floor-scan kernel.

        floor_multiples_quad hands a rational coefficient (M == 0) to the
        rational scan itself.
        """
        return list(zip(*[_kernels.floor_multiples_quad(c.N, c.M, c.d, c.Q, n, start=start)
                          for c in self.coefficients]))

    def stretch(self, start: int, n: int) -> list[ZDivisor]:
        """Rows start..start+n, within 0..m_max: a slice of the column once iterated,
        else built by one floor scan per coordinate and not kept."""
        if isinstance(self._rows, list):
            return self._rows[start:start + n + 1]
        return list(map(trusted_zdivisor, self.rows(start, n)))

    def _read(self, m: int) -> ZDivisor:
        """Row m of a column not yet iterated, built on its first read."""
        if m < 0:
            m += self.m_max + 1
        if not 0 <= m <= self.m_max:
            raise IndexError(f"row {m} is outside 0..{self.m_max}") from None
        row = self._rows.get(m)
        if row is None:
            row = self._rows[m] = trusted_zdivisor(tuple([
                _kernels.floor_multiples_quad(c.N, c.M, c.d, c.Q, 0, start=m)[0]
                for c in self.coefficients]))
        return row

    def __len__(self) -> int:
        return self.m_max + 1

    def __getitem__(self, m: int) -> ZDivisor:
        # a list raises IndexError itself; a dict lacks a row not read and a negative m
        try:
            return self._rows[m]
        except KeyError:
            return self._read(m)

    def __iter__(self):
        """Every row in order (h0_counts reads the whole column)."""
        if isinstance(self._rows, dict):
            rows = list(map(trusted_zdivisor, self.rows(0, self.m_max)))
            for m, row in self._rows.items():
                rows[m] = row
            self._rows = rows
        return iter(self._rows)


# -- rounding decomposition (general representations) --------------------------


def _expansions(D: RDivisor, basis: Sequence[str]) -> Mapping[str, Sequence[int]]:
    """D's expansion vectors; the components of a prime representation are unit vectors."""
    if D.expansions is not None:
        return D.expansions
    unknown = [lbl for lbl in D.terms if lbl not in basis]
    if unknown:
        raise InvalidInput(f"label {unknown[0]!r:.60} not in the surface basis")
    return {lbl: tuple(int(b == lbl) for b in basis) for lbl in D.terms}


def round_decompose(D: RDivisor, m: int, basis: Sequence[str]) -> tuple[ZDivisor, ZDivisor]:
    """Split [mD] = sum_i [m a_i] D_i + T_m over a general representation.

    T_m is the floor of the fractional combination sum_i {m a_i} D_i
    expanded into the prime basis.  Components of a prime representation
    are treated as their own unit expansions, which makes T_m = 0.
    The exact identity (sum) + T_m = [mD] is verified before returning.
    """
    if m < 1:
        raise InvalidInput(f"m must be a positive integer, got {m}")
    rho = len(basis)
    expansions = _expansions(D, basis)
    floored = [0] * rho
    frac_combo = [ZERO] * rho
    for label, coef in D.terms.items():
        scaled = coef * m
        fl = scaled.floor()
        fr = scaled - fl
        vec = expansions[label]
        for j, e in enumerate(vec):
            if e:
                floored[j] += fl * e
                frac_combo[j] = frac_combo[j] + fr * e
    t_part = ZDivisor(tuple(c.floor() for c in frac_combo))
    sum_part = ZDivisor(tuple(floored))

    whole = integral_part(D.to_prime(basis).scaled(m), basis)
    if sum_part + t_part != whole:
        raise InternalError(
            f"round_decompose identity failed at m={m}: {sum_part} + {t_part} != {whole}"
        )
    return sum_part, t_part


@dataclass(frozen=True)
class TmEnumeration:
    """The set {T_m : 1 <= m <= m_max} plus its a-priori finite superset box."""

    values: tuple[ZDivisor, ...]
    bounds: tuple[tuple[int, int], ...]  # closed [lo, hi] per prime coordinate

    def contains_all(self) -> bool:
        return all(
            lo <= v.coords[j] <= hi
            for v in self.values
            for j, (lo, hi) in enumerate(self.bounds)
        )


def enumerate_Tm(D: RDivisor, m_max: int, basis: Sequence[str]) -> TmEnumeration:
    """Collect T_m for m = 1..m_max and report the finiteness certificate.

    Each prime coordinate of T_m is the floor of sum_i {m a_i} e_ij with
    every fractional part in [0, 1), so it lies in the closed box
    [-(negative part of column j), max(positive part - 1, 0)].  That box
    is independent of m, which certifies that {T_m} is finite.
    """
    if m_max < 1:
        raise InvalidInput(f"m_max must be >= 1, got {m_max}")
    rho = len(basis)
    expansions = _expansions(D, basis)
    neg = [0] * rho
    pos = [0] * rho
    for label in D.terms:
        for j, e in enumerate(expansions[label]):
            if e > 0:
                pos[j] += e
            elif e < 0:
                neg[j] += -e
    bounds = tuple((-n, max(p - 1, 0)) for n, p in zip(neg, pos))

    seen: dict[ZDivisor, None] = {}
    for m in range(1, m_max + 1):
        _, t = round_decompose(D, m, basis)
        seen.setdefault(t, None)
    values = tuple(sorted(seen, key=lambda z: z.coords))
    return TmEnumeration(values=values, bounds=bounds)


# -- euclidean split for rational divisors -------------------------------------


def integrality_denominator(D: RDivisor, basis: Sequence[str]) -> int:
    """Least k >= 1 with kD integral; rational prime-representation only."""
    coeffs = D.coefficients(basis)
    k = 1
    for c in coeffs:
        if not c.is_rational:
            raise InvalidInput("divisor has irrational coefficients; no integral multiple")
        k = lcm(k, c.Q)
    return k


def lemma_dr_decompose(D: RDivisor, m: int, basis: Sequence[str]) -> tuple[int, int, int]:
    """Write [mD] = t*(kD) + [iD] with m = t*k + i, 0 <= i <= k-1.

    k is computed as the least positive integer making kD integral (the
    lcm of the coefficient denominators).  The identity is re-verified
    exactly; failure would mean an arithmetic bug, hence InternalError.
    """
    if m < 1:
        raise InvalidInput(f"m must be a positive integer, got {m}")
    k = integrality_denominator(D, basis)
    t, i = divmod(m, k)
    kD = integral_part(D.scaled(k), basis)  # kD is integral, floor is exact
    lhs = integral_part(D.scaled(m), basis)
    rhs = kD * t + (integral_part(D.scaled(i), basis) if i else ZDivisor((0,) * len(basis)))
    if lhs != rhs:
        raise InternalError(
            f"lemma_dr identity failed for m={m}, k={k}: [mD]={lhs} but t*kD+[iD]={rhs}"
        )
    return k, t, i


# The most digits of the integers of an input divisor's prime coefficients over their
# common denominator, and of an integer literal in a JSON input file.  What check, audit,
# growth and semigroup print has at most twice as many, plus 12 for m_max, 12 for a
# radicand and SURFACE_DIGITS (D.D, chi and h0 at M_MAX_LIMIT), so it stays within the
# 4,300 digits that str() writes of an int.
DIVISOR_DIGITS = 2_000


# -- text syntax ---------------------------------------------------------------
#
# Inline divisor grammar: signed terms `coef*label` joined by + and -, with
# the exact_numbers coefficient syntax.  A compound coefficient (one that
# itself contains + or -) must be parenthesized: "(1+sqrt(2))*C0 - 1/2*f".

_TERM = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            \((?P<paren>[^()]*(?:\([^()]*\)[^()]*)*)\)\s*\*\s*(?P<label1>[A-Za-z_]\w*)
          | (?P<coef>[^*+\-\s]+(?:\(\d+\))?)\s*\*\s*(?P<label2>[A-Za-z_]\w*)
          | (?P<label3>[A-Za-z_]\w*)
        )\s*""",
    re.VERBOSE,
)


def parse_divisor(text: str) -> RDivisor:
    """Parse an inline divisor expression like "3/2*C0 + 3*f", or "0" for the zero divisor."""
    s = text.strip()
    if not s:
        raise InvalidInput("empty divisor expression")
    if s == "0":  # format_divisor's form of the zero divisor
        return RDivisor({})
    pos = 0
    terms: list[tuple[str, QuadExt]] = []
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or (not first and m.group("sign") is None):
            raise InvalidInput(f"cannot parse divisor {text!r:.60} near {s[pos:]!r:.60}")
        pos = m.end()
        sgn = -1 if m.group("sign") == "-" else 1
        if m.group("paren") is not None:
            coef = parse_quadext(m.group("paren"))
            label = m.group("label1")
        elif m.group("coef") is not None:
            coef = parse_quadext(m.group("coef"))
            label = m.group("label2")
        else:
            coef = QuadExt(1)
            label = m.group("label3")
        terms.append((label, coef * sgn))
        first = False
    D = RDivisor(terms)
    if len(D.terms) < len(terms):   # parse_quadext bounds each term; repeated labels add up
        for coef in D.terms.values():
            check_size(coef, text)
    return D


def format_divisor(D: RDivisor) -> str:
    """Canonical inline form; parse_divisor round-trips it."""
    if not D.terms:
        return "0"
    parts = []
    for label, coef in D.terms.items():
        neg = coef.sign() < 0
        mag = -coef if neg else coef
        if mag == QuadExt(1):
            body = label
        else:
            cs = format_quadext(mag)
            if ("+" in cs[1:]) or ("-" in cs[1:]) or ("*" in cs):
                cs = f"({cs})"
            body = f"{cs}*{label}"
        parts.append(("- " if neg else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def divisor_to_spec(D: RDivisor) -> dict:
    """JSON-shaped divisor spec with exact coefficient strings."""
    spec: dict = {"terms": {lbl: format_quadext(c) for lbl, c in D.terms.items()}}
    if D.expansions is not None:
        spec["expansions"] = {lbl: list(vec) for lbl, vec in D.expansions.items()}
    return spec


def divisor_from_spec(spec: Mapping) -> RDivisor:
    """The divisor of a JSON spec; a malformed shape raises InvalidInput naming the field."""
    if not isinstance(spec, Mapping):
        raise InvalidInput(f"divisor spec must be an object, got {spec!r:.60}")
    if "terms" not in spec:
        raise InvalidInput("divisor spec lacks field 'terms'")
    terms, expansions = spec["terms"], spec.get("expansions")
    if not isinstance(terms, Mapping) or not all(
            isinstance(c, str) or type(c) is int for c in terms.values()):
        raise InvalidInput(f"divisor spec field 'terms' must map labels to coefficient "
                           f"strings or integers, got {terms!r:.60}")
    if expansions is not None and (not isinstance(expansions, Mapping) or not all(
            isinstance(v, list) and all(type(x) is int for x in v) for v in expansions.values())):
        raise InvalidInput(f"divisor spec field 'expansions' must map labels to lists of "
                           f"integers, got {expansions!r:.60}")
    return RDivisor(dict(terms), expansions)
