"""Executable ampleness and bigness criteria with certificates.

Every criterion returns a verdict plus a witness that can be re-checked
by direct recomputation.  The cone criterion (positive pairing with every
generator of the closed cone of curves) is the ground-truth oracle for
ampleness; the interior of the effective cone plays the same role for
bigness.

Criteria that quantify over coherent sheaves are instantiated over a
finite catalog of line-bundle twists.  Those executable forms are
necessary conditions of the originals: a "holds" verdict against a
non-ample ground truth means the catalog lacks a distinguishing sheaf,
not a contradiction, and is marked inconclusive rather than counted as a
disagreement.  Bounded m-searches report "not found <= m_max" along with
an effective onset bound where the surface's closed-form oracles provide
one; absence below a valid bound is conclusive, absence without one is
not.

Criterion ids: "P1".."P11" for the integral-divisor proposition,
"QI".."QX" for the rational-coefficient one, "Ri".."Rvi" for the real-
coefficient one, "B1".."B7" for the bigness characterizations.  P2..P11
and Ri..Rvi are integral-part substitutions sharing the Q-series
executables; the JSON report marks aliases explicitly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, product
from math import lcm
from operator import add, mul
from typing import Callable, Iterable, Optional, Union

from divpos.divisor import (
    MultiplesColumn,
    RDivisor,
    ZDivisor,
    divisor_to_spec,
    divisor_from_spec,
    integral_part_multiples,
    trusted_zdivisor,
)
from divpos.errors import InternalError, InvalidInput
from divpos.exact_numbers import QuadExt, format_quadext, parse_quadext, quadext
from divpos.surface import CurveClass, Region, SurfaceModel, chi_rr, cohomology, rdivisor_on

DivisorLike = Union[RDivisor, ZDivisor, str]
DivisorOrEvaluation = Union[RDivisor, ZDivisor, str, "Evaluation"]


# ---------------------------------------------------------------------------
# exact pairings


def intersect(S: SurfaceModel, D: DivisorOrEvaluation, E: DivisorOrEvaluation) -> QuadExt:
    """Exact intersection number D.E via the surface's bilinear form."""
    return quadext(S.pair_coords(_evaluation(S, D, None).coefficients,
                                 _evaluation(S, E, None).coefficients))


def _pair_class(S: SurfaceModel, coeffs: Sequence[QuadExt], cls: Sequence[int]) -> QuadExt:
    return quadext(S.pair_coords(coeffs, cls))


def generator_pairings(S: SurfaceModel,
                       D: DivisorOrEvaluation) -> list[tuple[CurveClass, QuadExt]]:
    """(g, D.g) for each Mori generator g; an Evaluation keeps them as ``pairings``."""
    coeffs = _evaluation(S, D, None).coefficients
    return [(g, _pair_class(S, coeffs, g.coords)) for g in S.mori_generators]


def self_intersection(S: SurfaceModel, D: DivisorOrEvaluation) -> QuadExt:
    return intersect(S, D, D)


# ---------------------------------------------------------------------------
# cone criteria (exact, two-sided)


def is_nef(S: SurfaceModel, D: DivisorOrEvaluation) -> tuple[bool, Optional[str]]:
    """Nef test: D.g >= 0 for every cone generator; witness is a violator."""
    bad = next((g.label for g, v in _evaluation(S, D, None).pairings if v.sign() < 0), None)
    return bad is None, bad


def is_ample_cone(S: SurfaceModel, D: DivisorOrEvaluation) -> tuple[bool, Optional[str]]:
    """Ground-truth ampleness: strict positivity on the whole cone of curves.

    With finitely many generators spanning the closed cone this is both
    sufficient and necessary; the witness names a non-positive generator.
    """
    bad = next((g.label for g, v in _evaluation(S, D, None).pairings if v.sign() <= 0), None)
    return bad is None, bad


def nakai_test(S: SurfaceModel, D: DivisorOrEvaluation) -> tuple[bool, dict]:
    """Surface Nakai-Moishezon: D.D > 0 and D.C > 0 for every curve generator."""
    d2 = self_intersection(S, D)
    details: dict = {"self_intersection": format_quadext(d2)}
    if d2.sign() <= 0:
        details["violation"] = "self_intersection"
        return False, details
    ok, bad = is_ample_cone(S, D)
    if not ok:
        details["violation"] = bad
        return False, details
    return True, details


def ratio_bound(S: SurfaceModel, D: DivisorOrEvaluation, H: DivisorLike) -> QuadExt:
    """min over curve generators of (D.C)/(H.C) for an ample reference H.

    Positive iff D is ample; the minimum is the best epsilon in the ratio
    criterion.  H = S's reference class reuses the pairings that proved it.
    """
    proved, hp = getattr(S, "_proved_ample", (None, None))
    if H != proved:
        hp = generator_pairings(S, H)
        bad = next((g.label for g, v in hp if v.sign() <= 0), None)
        if bad is not None:
            raise InvalidInput(f"reference divisor is not ample (fails on {bad})")
    return min(dv / hv for (_, dv), (_, hv) in zip(_evaluation(S, D, None).pairings, hp))


def seshadri_bound(S: SurfaceModel, D: DivisorOrEvaluation) -> QuadExt:
    """min over the cone generators C of (D.C)/mult_x(C), at their declared multiplicities.

    A surrogate of the Seshadri criterion restricted to the generators;
    exact on the built-ins, where the generators are smooth curves
    (multiplicity 1) sweeping the surface.
    """
    return min(v / g.multiplicity for g, v in _evaluation(S, D, None).pairings)


def neighborhood_test(S: SurfaceModel, D: DivisorOrEvaluation, delta: Fraction) -> bool:
    """Ampleness of D +- delta*B for every basis class B.

    An exact proxy for "a punctured neighborhood of the class is ample"
    at radius delta in max-coordinates; on polyhedral cones it agrees
    with ampleness once delta is below the distance of any sampled class
    to the cone walls (see auditor.safe_delta).  By bilinearity
    (D +- delta*e_j).g = D.g +- delta*(e_j.g), so D's generator pairings
    and the surface's integers e_j.g decide every perturbation.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise InvalidInput(f"delta must be positive, got {delta}")
    pairings = [(v, S.basis_pairings(g.coords)) for g, v in _evaluation(S, D, None).pairings]
    return all((v + step * col[j]).sign() > 0
               for j in range(S.rho) for step in (delta, -delta) for v, col in pairings)


# ---------------------------------------------------------------------------
# bounded m-scans

M_MAX_LIMIT = 10**6  # every entry point's cap on m_max; a scan that walks takes ~7 s, 210 MB there

# The most digits of the integers of an input divisor's prime coefficients over their
# common denominator.  What check, audit, growth and semigroup print has at most twice
# as many, plus 12 for m_max, 12 for a radicand and SURFACE_DIGITS (D.D, chi and h0 at
# M_MAX_LIMIT), so it stays within the 4,300 digits that str() writes of an int.
DIVISOR_DIGITS = 2_000


@dataclass(frozen=True)
class VAMultiples:
    first_m: Optional[int]  # least m >= 1 with very_ample([mD])
    all_from: Optional[int]  # least m0 with very_ample([mD]) for all m in [m0, m_max]


class Evaluation:
    """What does not change for one divisor D on one surface S, computed once.

    Every criterion reads D through its Evaluation (see _evaluation).  It
    holds D's prime ``coefficients``; its cached properties are built on
    first read: the generator ``pairings`` (ground truth, violator, nefness,
    the cone half of Nakai), ``multiples`` and the ``h0_counts`` column.
    ``slope(w)`` = w.D of a region form w and ``onset(kind, G)`` are memoised
    per key.  ``multiples`` is the one store of the rows [mD], m = 0..m_max
    (a MultiplesColumn builds the blocks of rows a scan reads), and
    ``twisted(G)`` is a view of G + [mD] over it that keeps nothing.
    ``tail_start`` and ``first_member`` tell a scan where to start,
    and ``first_member`` answers a search that definitive_negative proves
    empty, so the scan reads one row.  Re-verification
    (``auditor._reverify_report``, ``verify_big_certificate``) recomputes
    from the divisor and never reads these values.
    """

    def __init__(self, S: SurfaceModel, D: DivisorLike, m_max: int):
        if not isinstance(m_max, int) or not 1 <= m_max <= M_MAX_LIMIT:
            raise InvalidInput(f"m_max must be an integer in [1, {M_MAX_LIMIT}], got {m_max!r:.60}")
        self.surface = S
        self.divisor = rdivisor_on(S, D)
        self.m_max = m_max
        self.coefficients = self.divisor.coefficients(S.basis)
        self.slopes: dict[tuple[int, ...], QuadExt] = {}
        self._bounds: dict[tuple[str, ZDivisor], Optional[int]] = {}

    @cached_property
    def multiples(self) -> MultiplesColumn:
        """[mD] for m in 0..m_max."""
        return integral_part_multiples(self.divisor, self.surface.basis, self.m_max)

    @cached_property
    def pairings(self) -> list[tuple[CurveClass, QuadExt]]:
        """generator_pairings(S, D)."""
        return generator_pairings(self.surface, self)

    @cached_property
    def _nef(self) -> bool:
        return all(v.sign() >= 0 for _, v in self.pairings)

    def slope(self, w: tuple[int, ...]) -> QuadExt:
        """w.D for an integer form w on the coordinates, memoised in ``slopes``."""
        s = self.slopes.get(w)
        if s is None:
            s = self.slopes[w] = quadext(sum(c * x for x, c in zip(w, self.coefficients) if x))
        return s

    def onset(self, kind: str, G: Optional[ZDivisor] = None) -> Optional[int]:
        """onset_bound(S, D, kind, G), computed once per (kind, G); G defaults to 0."""
        if G is None:
            G = trusted_zdivisor((0,) * self.surface.rho)
        key = (kind, G)
        if key not in self._bounds:
            self._bounds[key] = onset_bound(self.surface, self, kind, G)
        return self._bounds[key]

    def tail_start(self, kind: str, G: Optional[ZDivisor] = None) -> Optional[int]:
        """Where a tail scan of kind at G + [mD] (G defaults to 0) may start; None: walk it all.

        The onset bound for a nef D (see onset_bound); where that gives none,
        the exact tail start region_tail for a rational D on a surface with regions.
        """
        G = G if G is not None else trusted_zdivisor((0,) * self.surface.rho)
        bound = self.onset(kind, G) if self._nef else None
        if bound is None and self._exact:
            return region_tail(self.surface.regions[kind], self, G)
        return bound

    def first_member(self, kind: str) -> Optional[int]:
        """The least m >= 1 with [mD] of kind, m_max + 1 for none; None: walk up to it.

        region_first from m = 1 at twist 0 for a rational D on a surface with
        regions; for any other D, m_max + 1 where definitive_negative proves
        that no [mD] is of the kind (the scan then still reads row m_max).
        """
        if self._exact:
            return region_first(self.surface.regions[kind], self,
                                trusted_zdivisor((0,) * self.surface.rho), 1)
        return self.m_max + 1 if definitive_negative(self.surface, self, kind) else None

    @property
    def _exact(self) -> bool:
        """Whether exact regions decide D's scans: D rational on a surface with regions."""
        return self.surface.regions is not None and all(c.is_rational for c in self.coefficients)

    @cached_property
    def h0_counts(self) -> list[int]:
        """[h0([mD]) for m in 0..m_max]."""
        h0 = self.surface.require_h0()
        return [h0(V) for V in self.multiples]

    def twisted(self, G: ZDivisor) -> Sequence[ZDivisor]:
        """G + [mD] for m in 0..m_max: ``multiples`` itself for G = 0, else a view of it."""
        if len(G.coords) != self.surface.rho:
            raise InvalidInput(f"twist {G} has {len(G.coords)} coordinates, "
                               f"the surface has rank {self.surface.rho}")
        if G.is_zero():
            return self.multiples
        return _Twisted(self.multiples, G.coords)


class _Twisted(Sequence):
    """The rows g + [mD] of a column [mD], added on each read and not kept."""

    __slots__ = ("rows", "g")

    def __init__(self, rows: MultiplesColumn, g: tuple[int, ...]):
        self.rows, self.g = rows, g

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, m: int) -> ZDivisor:
        return trusted_zdivisor(tuple(map(add, self.g, self.rows[m].coords)))


def check_digits(ev: Evaluation, field: str) -> Evaluation:
    """ev, unless its divisor passes DIVISOR_DIGITS; then InvalidInput naming field and bound."""
    q = lcm(*(c.Q for c in ev.coefficients))
    if too_long(max(q, *(max(abs(c.N), abs(c.M)) * (q // c.Q) for c in ev.coefficients))):
        raise InvalidInput(f"{field}: the prime coefficients over their common denominator "
                           f"have an integer of more than {DIVISOR_DIGITS} digits")
    return ev


def too_long(n: int) -> bool:
    """Whether the integer n >= 0 has more than DIVISOR_DIGITS digits."""
    # 2**3.321 < 10, so only an n of more bits than that is compared with the power of ten
    return n.bit_length() > DIVISOR_DIGITS * 3321 // 1000 and n >= 10**DIVISOR_DIGITS


def _evaluation(S: SurfaceModel, D: DivisorOrEvaluation,
                m_max: Optional[int]) -> Evaluation:
    """D itself when it is an evaluation on S, else D evaluated up to m_max (default 200).

    The one way a criterion gets at D: a divisor, its text or its
    Evaluation.  An evaluation's m_max is its own; any other is refused.
    """
    if not isinstance(D, Evaluation):
        return Evaluation(S, D, 200 if m_max is None else m_max)
    if D.surface is not S:
        raise InvalidInput(f"the evaluation was built on {D.surface.name:.60}, not on this surface")
    if m_max is not None and m_max != D.m_max:
        raise InvalidInput(f"m_max={m_max!r:.60} differs from the evaluation's m_max={D.m_max}")
    return D


def _tail_from(ok: Callable[[object], bool], items: Sequence, lo: int,
               onset: Optional[int] = None) -> Optional[int]:
    """Least i >= lo with ok(items[m]) for all m in [i, end]; None if the last fails.

    Walks down from the last item, so ok never sees an item below the tail.
    onset, when given, is an onset bound: ok is proved for every index from
    it on, so the items strictly between max(onset, lo) and the last are
    not read.  The last item is still read first, and a failure there
    still returns None; then items[max(onset, lo)] is read, and a failure
    there contradicts the bound and raises InternalError.  So every run
    re-verifies the bound at two points.  The walk goes on down from there.
    """
    i = len(items) - 1
    if not ok(items[i]):
        return None
    if onset is not None and max(onset, lo) < i:
        i = max(onset, lo)
        if not ok(items[i]):
            raise InternalError(f"onset bound {onset} contradicted: "
                                f"the predicate fails at m = {i}")
    while i > lo and ok(items[i - 1]):
        i -= 1
    return i


def _first_from(ok: Callable[[object], bool], items: Sequence, lo: int,
                first: Optional[int] = None) -> Optional[int]:
    """Least i >= lo with ok(items[i]); None if there is none.

    first, when given, is that index as Evaluation.first_member decides it,
    and len(items) when there is no member.  Then only items[first] and
    items[first - 1] (when first > lo) are read: the first must pass and
    the second fail, else InternalError.
    """
    if first is None:
        return next((i for i in range(lo, len(items)) if ok(items[i])), None)
    if (first < len(items) and not ok(items[first])) or (first > lo and ok(items[first - 1])):
        raise InternalError(f"region's first member m = {first} contradicted by the predicate")
    return first if first < len(items) else None


# -- exact regions (rational D on a surface with SurfaceModel.regions) ----------


def _period_forms(region: Region, ev: "Evaluation", G: ZDivisor) -> tuple[int, list[list]]:
    """(q, pieces) for a rational D, q a common denominator, so [(m + q)D] = [mD] + qD.

    Each form (w, c) of the region becomes (w, c - w.G, w.qD): it holds at
    G + [mD] iff w.[mD] >= c - w.G, and w.qD is its step from m to m + q.
    """
    q = lcm(*(c.Q for c in ev.coefficients))
    qD = [c.N * (q // c.Q) for c in ev.coefficients]
    return q, [[(w, c - sum(map(mul, w, G.coords)), sum(map(mul, w, qD))) for w, c in piece]
               for piece in region]


def _region_runs(pieces: list[list], row: Sequence[int], sign: int,
                 K: int) -> list[tuple[int, int]]:
    """The k in [0, K] whose row [(m + sign*k*q)D] is in the region, row = [mD].

    One (first, last) run per piece that holds somewhere; pieces as _period_forms.
    """
    runs = []
    for piece in pieces:
        first, last = 0, K
        for w, c, s in piece:
            v = sum(map(mul, w, row)) - c   # the form holds at k iff v + k*s >= 0
            s *= sign
            if s > 0:
                first = max(first, -(v // s))
            elif s < 0:
                last = min(last, v // -s)
            elif v < 0:
                last = -1
        if first <= last:
            runs.append((first, last))
    return runs


def region_tail(region: Region, ev: "Evaluation", G: ZDivisor) -> Optional[int]:
    """Least m0 with G + [mD] in the region for every m in [m0, m_max]; None if row m_max is not.

    D must be rational.  The rows m - k*q of one residue class step by -qD,
    so _region_runs decides each class at once.  Classes are visited from
    the top row down, and the visit stops once no class left can hold a
    failure above the highest one found: the cost is O(min(q, m_max - m0 + 1)).
    """
    rows = ev.multiples
    top = tuple(map(add, G.coords, rows[ev.m_max].coords))
    if not any(all(sum(map(mul, w, top)) >= c for w, c in piece) for piece in region):
        return None   # the common case of a scan that fails at once, without the set-up
    q, pieces = _period_forms(region, ev, G)
    worst = -1   # the highest m whose row is outside the region
    m = ev.m_max
    while m > worst and m > ev.m_max - q:
        k = 0   # the least k with row m - k*q outside the region
        for first, last in sorted(_region_runs(pieces, rows[m].coords, -1, m // q)):
            if first <= k:
                k = max(k, last + 1)
        if k <= m // q:
            worst = max(worst, m - k * q)
        m -= 1
    return None if worst == ev.m_max else worst + 1


def region_first(region: Region, ev: "Evaluation", G: ZDivisor, lo: int) -> int:
    """Least m in [lo, m_max] with G + [mD] in the region; m_max + 1 when there is none.

    D must be rational; the residue classes are visited from lo up, at a
    cost of O(min(q, first - lo + 1)).  A piece is dropped first when one of
    its forms fails at every m >= lo: with step s = w.qD <= 0, w.[mD] is at
    most m*s/q + lift <= lo*s/q + lift, lift the sizes of w's negative entries.
    """
    q, pieces = _period_forms(region, ev, G)
    pieces = [piece for piece in pieces if all(
        s > 0 or lo * s + q * (-sum(x for x in w if x < 0) - c) >= 0 for w, c, s in piece)]
    rows = ev.multiples
    best = ev.m_max + 1
    m = lo
    while pieces and m < best and m < lo + q:
        runs = _region_runs(pieces, rows[m].coords, 1, (ev.m_max - m) // q)
        if runs:
            best = min(best, m + q * min(first for first, _ in runs))
        m += 1
    return best


# The tail scans take a keyword-only onset, where the tail may start
# (Evaluation.tail_start, checked by _tail_from); the default None reads
# every multiple from m_max down to the first failure.  The bottom-up scans
# take a keyword-only first, the exact first member (Evaluation.first_member,
# checked by _first_from).


def very_ample_multiples(S: SurfaceModel, D: DivisorOrEvaluation,
                         m_max: Optional[int] = None, *,
                         onset: Optional[int] = None,
                         first: Optional[int] = None) -> VAMultiples:
    """Scan very_ample([mD]) for m in [1, m_max].

    first_m is found from the bottom up, or checked at first; onset, a
    very-ample onset bound, cuts only the scan for all_from.
    """
    va = S.require_very_ample()
    ev = _evaluation(S, D, m_max)
    mults = ev.multiples
    first = _first_from(va, mults, 1, first)
    all_from = None if first is None else _tail_from(va, mults, first, onset)
    return VAMultiples(first_m=first, all_from=all_from)


def glob_gen_twist_test(S: SurfaceModel, D: DivisorOrEvaluation, G: ZDivisor,
                        m_max: Optional[int] = None, *,
                        onset: Optional[int] = None) -> Optional[int]:
    """Least m2 <= m_max with G + [mD] globally generated for all m in [m2, m_max].

    onset is a global-generation onset bound for G.
    """
    gg = S.require_globally_generated()
    ev = _evaluation(S, D, m_max)
    return _tail_from(gg, ev.twisted(G), 0, onset)


def vanishing_test(S: SurfaceModel, D: DivisorOrEvaluation, G: ZDivisor,
                   m_max: Optional[int] = None, *,
                   onset: Optional[int] = None) -> Optional[int]:
    """Least m1 <= m_max with h1 = h2 = 0 for G + [mD] on all m in [m1, m_max].

    onset is a vanishing onset bound for G.
    cohomology runs on m = m_max, then (given an onset below m_max) on the
    onset, then down to the first failure, so its h1 >= 0 check sees only
    those multiples.  That is enough: the built-in h0 oracles are closed
    form, and a spec's h0 table is checked for h1 >= 0 on every entry when
    the spec loads.
    """
    ev = _evaluation(S, D, m_max)
    return _tail_from(lambda V: cohomology(S, V)[1:] == (0, 0), ev.twisted(G), 0, onset)


def _h0_tail(S: SurfaceModel, ev: Evaluation, G: ZDivisor, *,
             onset: Optional[int] = None) -> Optional[int]:
    """Least m <= m_max with h0(G + [mD]) > 0 for all m in [m, m_max]; onset as above."""
    h0 = S.require_h0()
    return _tail_from(lambda V: h0(V) > 0, ev.twisted(G), 0, onset)


def section_vanishing_scan(S: SurfaceModel, D: DivisorOrEvaluation,
                           m_max: Optional[int] = None, *,
                           onset: Optional[int] = None) -> Optional[int]:
    """Least m4 such that for all m in [m4, m_max] every target admits a
    nonzero section vanishing somewhere.

    Targets: each generator curve C (all rational on the built-ins, so a
    section vanishing at a point exists iff deg([mD]|_C) > 0) and the
    surface itself (h0([mD]) >= 1 and [mD] != 0).  onset is a bound past
    which every target holds, such as the larger of the very-ample and
    h0-positive onset bounds.
    """
    h0 = S.require_h0()
    ev = _evaluation(S, D, m_max)
    gens = [g.as_zdivisor() for g in S.mori_generators]
    return _tail_from(lambda V: all(S.pair_z(V, g) > 0 for g in gens)
                      and h0(V) >= 1 and not V.is_zero(), ev.multiples, 0, onset)


def chi_growth(S: SurfaceModel, D: DivisorOrEvaluation,
               m_list: Sequence[int]) -> tuple[list[tuple[int, int]], Optional[Fraction]]:
    """Exact chi([mD]) by Riemann-Roch for each requested m.

    Also reports 2*chi([mD])/m^2 at the largest m, the empirical leading
    coefficient against D.D.  An Evaluation must reach max(m_list).
    """
    if not m_list:
        raise InvalidInput("m_list must be non-empty")
    if min(m_list) < 0:
        raise InvalidInput(f"m_list entries must be >= 0, got {min(m_list)}")
    top = max(m_list)
    ev = _evaluation(S, D, None if isinstance(D, Evaluation) else max(top, 1))
    if top > ev.m_max:
        raise InvalidInput(f"m_list reaches {top}, beyond the evaluation's m_max={ev.m_max}")
    mults = ev.multiples
    rows = [(m, chi_rr(S, mults[m])) for m in m_list]
    estimate = None
    if top > 0:
        chi_top = chi_rr(S, mults[top])
        estimate = Fraction(2 * chi_top, top * top)
    return rows, estimate


def semigroup(S: SurfaceModel, D: DivisorOrEvaluation,
              m_max: Optional[int] = None) -> list[int]:
    """N(X, D) up to m_max: the m with h0([mD]) > 0; verified add-closed.

    On the member bitset: for each member m1 <= m_max/2 the members m2 >= m1,
    shifted up by m1, must be members; a failure names the least m1, then s.
    """
    ev = _evaluation(S, D, m_max)
    m_max = ev.m_max
    counts = ev.h0_counts
    members = [m for m, n in enumerate(counts) if n > 0]
    holes = int("".join("0" if n > 0 else "1" for n in reversed(counts)), 2)  # bit s: s not in
    inside = ~holes  # bit s: s in N(X, D) or s > m_max
    for m1 in members:
        if 2 * m1 > m_max:
            break
        bad = (inside >> m1 << 2 * m1) & holes  # m1 + m2 for the members m2 >= m1, not in
        if bad:
            s = (bad & -bad).bit_length() - 1
            raise InternalError(
                f"semigroup not closed: {m1} and {s - m1} in N(X, D) but {s} is not")
    return members


# ---------------------------------------------------------------------------
# bigness


@dataclass(frozen=True)
class BigResult:
    big: bool
    certificate: Optional[dict]  # {"epsilon": str, "lambda": [str], "ample_ref": [int]}
    note: str = ""


def _ample_reference(S: SurfaceModel) -> ZDivisor:
    """S's ample class, else the first ample class of a small box; proved ample once per S.

    The class is kept on S with the generator pairings that proved it,
    which ratio_bound reads.
    """
    # getattr, not S.__dict__: reading __dict__ turns S's inline attribute values
    # into a dict, and every later S.<field> in the scans gets slower (about 5%)
    proved = getattr(S, "_proved_ample", None)
    if proved is None:
        if S.ample_reference is not None:
            candidates = [S.ample_reference]
        else:
            candidates = (V for V in map(ZDivisor, product(range(4), repeat=S.rho))
                          if not V.is_zero())
        for H in candidates:
            hev = _evaluation(S, H, None)
            ok, bad = is_ample_cone(S, hev)
            if ok:
                proved = (H, hev.pairings)
                break
            if S.ample_reference is not None:
                raise InvalidInput(f"surface spec field 'ample': {list(H.coords)} is not "
                                   f"ample on {S.name!r:.60} (fails on {bad})")
        else:
            raise InvalidInput(
                f"no ample class found for surface {S.name!r:.60}; set 'ample' in its spec")
        object.__setattr__(S, "_proved_ample", proved)
    return proved[0]


def _solve_square(cols: list[Sequence[QuadExt]], rhs: Sequence[QuadExt]) -> Optional[list[QuadExt]]:
    """Solve sum_j x_j * cols[j] = rhs exactly; None if singular."""
    n = len(rhs)
    k = len(cols)
    # augmented matrix rows
    A = [[quadext(cols[j][i]) for j in range(k)] + [quadext(rhs[i])] for i in range(n)]
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, n) if A[r][col].sign() != 0), None)
        if piv is None:
            return None
        A[row], A[piv] = A[piv], A[row]
        inv = A[row][col].inverse()
        A[row] = [x * inv for x in A[row]]
        for r in range(n):
            if r != row and A[r][col].sign() != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
        row += 1
        if row == n:
            break
    if row < k:
        return None
    # consistency of remaining rows
    for r in range(row, n):
        if A[r][k].sign() != 0:
            return None
    return [A[i][k] for i in range(k)]


def _effective_coordinates(S: SurfaceModel, coeffs: Sequence[QuadExt]) -> Optional[list[QuadExt]]:
    """Coordinates of a class in the effective-generator basis, if square."""
    gens = S.effective_generators
    if len(gens) != S.rho:
        return None
    if S._unit_effective:
        return [quadext(c) for c in coeffs]
    cols = [[quadext(g.coords[i]) for i in range(S.rho)] for g in gens]
    return _solve_square(cols, [quadext(c) for c in coeffs])


def rational_below(x: QuadExt) -> Fraction:
    """A positive rational strictly below a positive exact value."""
    if x.sign() <= 0:
        raise InvalidInput("need a positive value")
    return Fraction(1, x.inverse().floor() + 1)


def is_big(S: SurfaceModel, D: DivisorOrEvaluation) -> BigResult:
    """Interior-of-the-effective-cone test with an ample-plus-effective certificate.

    When the effective generators form a basis (all built-ins) the
    interior test is closed-form: all generator coordinates strictly
    positive.  The certificate exhibits D - epsilon*H = sum lambda_j E_j
    with a positive rational epsilon and exact non-negative lambda; it is
    re-verified before being returned, as is the certificate of the
    epsilon-ladder search used when the generators are supernumerary.
    """
    ev = _evaluation(S, D, None)
    lam = _effective_coordinates(S, ev.coefficients)
    if lam is None:
        res = _is_big_caratheodory(S, ev.coefficients)
        if res.big:
            verify_big_certificate(S, ev.divisor, res.certificate)
        return res
    if any(x.sign() <= 0 for x in lam):
        j = next(i for i, x in enumerate(lam) if x.sign() <= 0)
        return BigResult(False, None,
                         note=f"coordinate {j} on the effective cone is {format_quadext(lam[j])} <= 0")
    H = _ample_reference(S)
    hcoords = _effective_coordinates(S, [quadext(c) for c in H.coords])
    assert hcoords is not None
    ratios = [l / h for l, h in zip(lam, hcoords) if h.sign() > 0]
    eps = rational_below(min(ratios))
    resid = [l - h * eps for l, h in zip(lam, hcoords)]
    if any(r.sign() < 0 for r in resid):
        raise InternalError("big certificate residual went negative")
    cert = {
        "epsilon": str(eps),
        "lambda": [format_quadext(r) for r in resid],
        "ample_ref": list(H.coords),
    }
    verify_big_certificate(S, ev.divisor, cert)
    return BigResult(True, cert)


def _is_big_class(S: SurfaceModel, V: ZDivisor) -> bool:
    """Whether an integral class lies in the interior of the effective cone."""
    if S._unit_effective:
        return min(V.coords) > 0
    return is_big(S, V).big


def _is_big_caratheodory(S: SurfaceModel, coeffs: Sequence[QuadExt]) -> BigResult:
    """Supernumerary generators: epsilon-ladder membership search.

    Exact cone membership at each ladder step via Caratheodory subsets.
    Sound for "big"; a boundary class deeper than the ladder floor would
    be reported not-big, noted in the verdict.
    """
    H = _ample_reference(S)
    gens = S.effective_generators
    rho = S.rho

    def member(vec: list[QuadExt]) -> Optional[list[tuple[int, QuadExt]]]:
        if all(v.sign() == 0 for v in vec):
            return []
        for size in range(1, rho + 1):
            for idx in combinations(range(len(gens)), size):
                cols = [[quadext(gens[j].coords[i]) for i in range(rho)] for j in idx]
                sol = _solve_square(cols, vec)
                if sol is not None and all(x.sign() >= 0 for x in sol):
                    return list(zip(idx, sol))
        return None

    for k in range(1, 41):
        eps = Fraction(1, 2**k)
        shifted = [quadext(c) - quadext(h * eps) for c, h in zip(coeffs, H.coords)]
        combo = member(shifted)
        if combo is not None:
            lam = [QuadExt(0)] * len(gens)
            for j, x in combo:
                lam[j] = x
            cert = {
                "epsilon": str(eps),
                "lambda": [format_quadext(x) for x in lam],
                "ample_ref": list(H.coords),
            }
            return BigResult(True, cert, note="epsilon-ladder membership")
    return BigResult(False, None, note="no ladder epsilon >= 2^-40 admits a decomposition")


def verify_big_certificate(S: SurfaceModel, D: RDivisor, cert: dict) -> None:
    """Re-check D = epsilon*H + sum lambda_j E_j exactly; InternalError on failure.

    H must be ample with S.rho integer coordinates, and lambda must give
    one entry per effective generator.  An H other than S's reference class,
    which _ample_reference proves once per surface, is proved ample here.
    """
    eps = Fraction(cert["epsilon"])
    lam = [parse_quadext(x) for x in cert["lambda"]]
    ref = cert["ample_ref"]
    if len(ref) != S.rho or any(type(x) is not int for x in ref):
        raise InternalError(f"big certificate ample_ref {ref!r:.60} is not {S.rho} integers")
    if len(lam) != len(S.effective_generators):
        raise InternalError(f"big certificate has {len(lam)} lambda entries for "
                            f"{len(S.effective_generators)} effective generators")
    H = ZDivisor(tuple(ref))
    if H != _ample_reference(S) and not is_ample_cone(S, H)[0]:
        raise InternalError(f"big certificate ample_ref {ref!r:.60} is not ample")
    if eps <= 0 or any(x.sign() < 0 for x in lam):
        raise InternalError("big certificate has non-positive parts")
    coeffs = D.coefficients(S.basis)
    for i in range(S.rho):
        acc = quadext(Fraction(H.coords[i]) * eps)
        for x, g in zip(lam, S.effective_generators):
            acc = acc + x * g.coords[i]
        if acc != quadext(coeffs[i]):
            raise InternalError(f"big certificate mismatch in coordinate {i}")


def claim_boh_check(S: SurfaceModel, D: DivisorOrEvaluation,
                    m_max: Optional[int] = None) -> Optional[int]:
    """Least m0 <= m_max with [mD] big for all m in [m0, m_max]."""
    return _tail_from(partial(_is_big_class, S), _evaluation(S, D, m_max).multiples, 1)


def first_big_multiple(S: SurfaceModel, D: DivisorOrEvaluation,
                       m_max: Optional[int] = None, *,
                       first: Optional[int] = None) -> Optional[int]:
    """Least m >= 1 with [mD] big (the some-multiple form); first as in _first_from."""
    return _first_from(partial(_is_big_class, S), _evaluation(S, D, m_max).multiples, 1, first)


def kodaira_check(S: SurfaceModel, D: DivisorOrEvaluation, F: ZDivisor,
                  m_max: Optional[int] = None) -> Optional[int]:
    """Least m in N(X, D) from which h0([mD] - F) > 0 persists to m_max."""
    h0 = S.require_h0()
    ev = _evaluation(S, D, m_max)
    if h0(F) <= 0:
        raise InvalidInput(f"F = {S.format_z(F)} is not effective")
    mults = ev.multiples
    members = [m for m, n in enumerate(ev.h0_counts) if n > 0]
    if not members:
        return None
    i = _tail_from(lambda m: h0(mults[m] - F) > 0, members, 0)
    return None if i is None else members[i]


GROWTH_MIN_M_MAX = 4  # the growth test compares h0 at m_max with h0 at m_max // 2 >= 2


@dataclass(frozen=True)
class GrowthCheck:
    passed: bool
    c_estimate: Fraction          # h0([m_max D]) / (2 m_max^2)
    leading: Fraction             # h0([m_max D]) / m_max^2, to compare with D.D/2
    anchor_m: int
    anchor_c: Fraction            # h0([anchor D]) / (2 anchor^2); the tested constant


def big_growth_check(S: SurfaceModel, D: DivisorOrEvaluation,
                     m_max: Optional[int] = None) -> GrowthCheck:
    """Quadratic section growth test for bigness.

    Gate: h0 at m_max must reach three times h0 at the halfway point.
    Quadratic growth quadruples over a doubling of m while linear growth
    at most doubles, so the factor-3 threshold separates them with a
    margin on either side; anchoring any constant at m_max itself would
    let linear counts pass (the constant just shrinks like 1/m).  The
    pointwise constant C = h0([m_max D])/(2 m_max^2) is still reported
    for comparison against half the self-intersection of nef divisors.
    m_max must be at least GROWTH_MIN_M_MAX.  Only the two counts it
    compares are computed.
    """
    h0 = S.require_h0()
    ev = _evaluation(S, D, m_max)
    m_max = ev.m_max
    if m_max < GROWTH_MIN_M_MAX:
        raise InvalidInput(f"m_max must be >= {GROWTH_MIN_M_MAX}, got {m_max}")
    m_h = m_max // 2
    mults = ev.multiples
    n_h, n_top = h0(mults[m_h]), h0(mults[m_max])
    return GrowthCheck(
        passed=n_h > 0 and n_top >= 3 * n_h,
        c_estimate=Fraction(n_top, 2 * m_max * m_max),
        leading=Fraction(n_top, m_max * m_max),
        anchor_m=m_h,
        anchor_c=Fraction(n_h, 2 * m_h * m_h),
    )


# ---------------------------------------------------------------------------
# onset bounds for the bounded searches


def definitive_negative(S: SurfaceModel, D: DivisorOrEvaluation, kind: str) -> bool:
    """Closed-form proof that the predicate fails at [mD] for every m >= 1.

    A form w >= c can never hold when the slope w.D is non-positive and
    even the largest fractional correction cannot lift m*(w.D) up to c.
    The region is the union of its pieces, so the proof needs such a form
    in every piece.  Turns "not found <= m_max" into a definitive
    negative for the exists-m searches.
    """
    if S.regions is None or kind not in S.regions:
        return False
    ev = _evaluation(S, D, None)

    def never(w: tuple[int, ...], c: int) -> bool:
        slope = ev.slope(w)
        if slope.sign() > 0:
            return False
        lift = -sum(x for x in w if x < 0)   # -w.{mD} is at most w's negative part
        # w.[mD] <= m*slope + lift <= slope_at_m1 + lift for slope <= 0
        top = slope + lift if slope.sign() < 0 else lift
        return top < c

    return all(any(never(w, c) for w, c in piece) for piece in S.regions[kind])


def ceil_quotient(need: Union[int, Fraction], slope: QuadExt) -> int:
    """Least integer m with m*slope >= need (slope > 0); 0 when need <= 0."""
    if need <= 0:
        return 0
    return -(quadext(-need) / slope).floor()


def onset_bound(S: SurfaceModel, D: DivisorOrEvaluation, kind: str,
                twist: Optional[ZDivisor] = None) -> Optional[int]:
    """Effective bound B: the predicate holds at G + [mD] for every m >= B.

    Each form (w, c) of the first piece of the kind's region, a sufficient
    condition, asks for m*(w.D) >= need, where need folds in c, w.G and the
    largest fractional correction.  A positive slope w.D gives the least
    such m; a slope <= 0 is skipped when need < 0, and otherwise the result
    is None, as it is for a surface without regions.  The skip is sound for
    slope 0 only: m times a negative slope falls without bound, so for a D
    with a negative slope on some form the returned bound can be wrong
    (ROADMAP item 1).  Evaluation.tail_start therefore hands bounds to the
    scans only for nef D, whose slopes on those forms are >= 0.
    ``Evaluation.onset`` memoises the result.
    """
    if S.regions is None or kind not in S.regions:
        return None
    ev = _evaluation(S, D, None)
    bound = 1
    for w, c in S.regions[kind][0]:
        slope = ev.slope(w)
        overshoot = sum(x for x in w if x > 0)   # w.{mD} stays below it
        g_w = sum(map(mul, twist.coords, w)) if twist is not None else 0
        # the fractional correction is strictly below the overshoot only
        # when some coordinate has a positive weight; otherwise keep full slack
        slack = 1 if overshoot > 0 else 0
        need = c - slack - g_w + overshoot
        if slope.sign() <= 0:
            if need < 0:
                continue  # condition already slack for every m
            return None
        bound = max(bound, ceil_quotient(need, slope))
    return bound


# ---------------------------------------------------------------------------
# report assembly


def default_twists(S: SurfaceModel) -> list[ZDivisor]:
    """{0} united with minus each basis class and minus their sum, deduplicated."""
    rho = S.rho
    out = [ZDivisor((0,) * rho)]
    for j in range(rho):
        out.append(ZDivisor(tuple(-1 if i == j else 0 for i in range(rho))))
    allneg = ZDivisor((-1,) * rho)
    if allneg not in out:
        out.append(allneg)
    return out


def default_effective_catalog(S: SurfaceModel) -> list[ZDivisor]:
    rho = S.rho
    out = [ZDivisor(tuple(1 if i == j else 0 for i in range(rho))) for j in range(rho)]
    allpos = ZDivisor((1,) * rho)
    if allpos not in out:
        out.append(allpos)
    return out


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    holds: Optional[bool]          # None = inconclusive
    conclusive: bool
    witness: dict = field(default_factory=dict)
    note: str = ""
    same_as: Optional[str] = None

    def to_json_dict(self) -> dict:
        out: dict = {"holds": self.holds, "conclusive": self.conclusive,
                     "witness": self.witness}
        if self.note:
            out["note"] = self.note
        if self.same_as:
            out["same_as"] = self.same_as
        return out


@dataclass(frozen=True)
class PositivityReport:
    surface: str
    divisor: RDivisor
    ground_truth: bool
    verdicts: dict[str, CriterionResult]
    m_max: int
    delta: Fraction
    twists: tuple[ZDivisor, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": "v1",
            "surface": self.surface,
            "divisor": divisor_to_spec(self.divisor),
            "ground_truth": self.ground_truth,
            "m_max": self.m_max,
            "delta": str(self.delta),
            "twists": [list(t.coords) for t in self.twists],
            "verdicts": {cid: r.to_json_dict() for cid, r in sorted(self.verdicts.items())},
        }


def report_from_json_dict(data: dict) -> PositivityReport:
    if data.get("schema_version") != "v1":
        raise InvalidInput(f"unsupported schema_version {data.get('schema_version')!r:.60}")
    verdicts = {}
    for cid, v in data["verdicts"].items():
        verdicts[cid] = CriterionResult(
            criterion=cid,
            holds=v["holds"],
            conclusive=v["conclusive"],
            witness=v.get("witness", {}),
            note=v.get("note", ""),
            same_as=v.get("same_as"),
        )
    return PositivityReport(
        surface=data["surface"],
        divisor=divisor_from_spec(data["divisor"]),
        ground_truth=data["ground_truth"],
        verdicts=verdicts,
        m_max=data["m_max"],
        delta=Fraction(data["delta"]),
        twists=tuple(ZDivisor(tuple(t)) for t in data["twists"]),
    )


def _scan_result(cid: str, witness_m: Optional[int], m_max: int,
                 bound: Optional[int], extra: Optional[dict] = None,
                 proxy: bool = False) -> CriterionResult:
    """Fold a bounded-search outcome into a verdict.

    Found: holds, conclusive only up to the catalog caveat.  Not found:
    conclusive failure when a valid onset bound lies within the scanned
    range, else inconclusive.
    """
    witness: dict = dict(extra or {})
    witness["m_max"] = m_max
    if bound is not None:
        witness["onset_bound"] = bound
    if witness_m is not None:
        witness["witness_m"] = witness_m
        return CriterionResult(cid, True, not proxy, witness,
                               note="catalog-quantified; necessary-condition proxy" if proxy else "")
    if bound is not None and bound <= m_max:
        return CriterionResult(cid, False, True, witness,
                               note="absent below a valid effective onset bound")
    return CriterionResult(cid, None, False, witness,
                           note=f"no witness found up to m_max={m_max}; no effective bound applies")


def _max_bound(bounds: Iterable[Optional[int]]) -> Optional[int]:
    """The largest bound, or None when any of them is missing."""
    bounds = list(bounds)
    return None if None in bounds else max(bounds)


# The criteria that read a surface oracle: criterion id -> (the SurfaceModel
# field of the oracle, the note of its inconclusive verdict on a surface that
# lacks it).  Field names only: the scans are called by name at call time.
_ORACLE_OF = {
    "P1": ("very_ample", "surface lacks a very_ample oracle"),
    "QI": ("h0", "no h0 oracle"),
    "QII": ("globally_generated", "no globally_generated oracle"),
    "QIV": ("h0", "no h0 oracle"),
    "B2": ("h0", "no h0 oracle"),
    "B3": ("h0", "no h0 oracle"),
    "B4": ("h0", "no h0 oracle"),
}

# The integral-part substitutions: alias -> the Q-series criterion it repeats.
_ALIASES = {
    "P2": "QI", "P3": "QII", "P4": "QIII", "P5": "QIV", "P6": "QV",
    "P7": "QVI", "P8": "QVII", "P9": "QVIII", "P10": "QIX", "P11": "QX",
    "Ri": "QII", "Rii": "QVI", "Riii": "QVII", "Riv": "QVIII",
    "Rv": "QIX", "Rvi": "QX",
}


def build_report(S: SurfaceModel, D: DivisorOrEvaluation, m_max: Optional[int] = None,
                 delta: Fraction = Fraction(1, 1000),
                 twists: Optional[Sequence[ZDivisor]] = None) -> PositivityReport:
    """Evaluate every criterion the surface supports and bundle the verdicts."""
    ev = _evaluation(S, D, m_max)
    m_max = ev.m_max
    twists = list(twists) if twists is not None else default_twists(S)
    if not twists:
        raise InvalidInput("twists must name at least one twist class")
    ground, bad_gen = is_ample_cone(S, ev)
    # a criterion whose oracle the surface lacks is inconclusive and not computed below
    verdicts: dict[str, CriterionResult] = {
        cid: CriterionResult(cid, None, False, {}, note=note)
        for cid, (oracle, note) in _ORACLE_OF.items() if getattr(S, oracle) is None}

    pair_witness = {g.label: format_quadext(v) for g, v in ev.pairings}

    def twist_scan(cid: str, scan: Callable, kind: str, bound: Optional[int]) -> CriterionResult:
        """scan(S, ev, G) once per twist G; the criterion holds from the latest onset on."""
        per_twist = {S.format_z(G): scan(S, ev, G, onset=ev.tail_start(kind, G)) for G in twists}
        return _scan_result(cid, _max_bound(per_twist.values()), m_max, bound,
                            {"per_twist": per_twist}, proxy=True)

    def max_onset(kind: str) -> Optional[int]:
        return _max_bound(ev.onset(kind, G) for G in twists)

    # exact criteria ------------------------------------------------------
    verdicts["QIX"] = CriterionResult(
        "QIX", ground, True,
        {"pairings": pair_witness, **({"violator": bad_gen} if bad_gen else {})})
    nakai_ok, nakai_wit = nakai_test(S, ev)
    verdicts["QVI"] = CriterionResult("QVI", nakai_ok, True, nakai_wit)
    sesh = seshadri_bound(S, ev)
    verdicts["QVII"] = CriterionResult(
        "QVII", sesh.sign() > 0, True, {"epsilon": format_quadext(sesh)})
    H = _ample_reference(S)
    ratio = ratio_bound(S, ev, H)
    verdicts["QVIII"] = CriterionResult(
        "QVIII", ratio.sign() > 0, True,
        {"epsilon": format_quadext(ratio), "reference": list(H.coords)})
    verdicts["QX"] = CriterionResult(
        "QX", neighborhood_test(S, ev, delta), True, {"delta": str(delta)})

    # bounded searches ------------------------------------------------------
    # tail criteria: decided exactly on polyhedral cones, scans as witnesses.
    # On a surface with a rational polyhedral cone of curves the three "for
    # all m >= m0" criteria reduce exactly to strict positivity on the cone
    # generators:
    #   - a non-positive pairing makes [mD] fail on that curve at every
    #     integral multiple (rational coefficients) or along a fractional
    #     subsequence supplied by equidistribution (irrational ones);
    #   - strict positivity drives [mD] linearly deep into the region each
    #     closed-form oracle carves out.
    tail_wit = {"non_positive_generator": bad_gen} if bad_gen else {}
    conclusive_tail = S.regions is not None

    def tail(cid: str, witness: dict, note: str) -> CriterionResult:
        return CriterionResult(cid, ground if conclusive_tail else None, conclusive_tail,
                               witness, note=note)

    if "P1" not in verdicts:
        va = very_ample_multiples(S, ev, onset=ev.tail_start("very_ample"),
                                  first=ev.first_member("very_ample"))
        if va.first_m is None and definitive_negative(S, ev, "very_ample"):
            verdicts["P1"] = CriterionResult(
                "P1", False, True, {"m_max": m_max},
                note="closed-form oracle excludes very ampleness of every [mD]")
        else:
            verdicts["P1"] = _scan_result("P1", va.first_m, m_max, ev.onset("very_ample"))
        tail_wit = {**tail_wit, "first_m": va.first_m, "all_from": va.all_from}
    if "QI" not in verdicts:
        verdicts["QI"] = twist_scan("QI", vanishing_test, "vanishing", max_onset("vanishing"))
    if "QII" not in verdicts:
        verdicts["QII"] = twist_scan("QII", glob_gen_twist_test, "globally_generated",
                                     max_onset("globally_generated"))
    verdicts["QIII"] = tail("QIII", tail_wit,
                            "decided by cone positivity; scan attached" if conclusive_tail else "")
    if "QIV" not in verdicts:
        m4 = section_vanishing_scan(S, ev, onset=_max_bound(
            [ev.tail_start("very_ample"), ev.tail_start("h0_positive")]))
        verdicts["QIV"] = tail("QIV", {**tail_wit, "scan_m4": m4},
                               "curve targets via degrees on rational generators")
    chi_rows, chi_lead = chi_growth(S, ev, list(range(1, min(6, m_max + 1))))
    verdicts["QV"] = tail(
        "QV", {"chi_samples": [[m, c] for m, c in chi_rows],
               "leading_estimate": str(chi_lead) if chi_lead is not None else None},
        "surface target plus generator-curve targets")

    # bigness -----------------------------------------------------------------
    bigres = is_big(S, ev)
    big_wit = {"certificate": bigres.certificate} if bigres.certificate else {}
    verdicts["B1"] = CriterionResult("B1", bigres.big, True, big_wit, note=bigres.note)
    if m_max < GROWTH_MIN_M_MAX:
        verdicts.setdefault("B2", CriterionResult(
            "B2", None, False, {"m_max": m_max},
            note=f"the section-growth test needs m_max >= {GROWTH_MIN_M_MAX}"))
    if "B2" not in verdicts:
        growth = big_growth_check(S, ev)
        verdicts["B2"] = CriterionResult(
            "B2", growth.passed, True,
            {"c_estimate": str(growth.c_estimate), "leading": str(growth.leading),
             "anchor_m": growth.anchor_m, "anchor_c": str(growth.anchor_c)},
            note="section-growth surrogate for the birational-map criterion")
    if "B3" not in verdicts:
        verdicts["B3"] = _scan_result("B3", first_big_multiple(S, ev, first=ev.first_member("big")),
                                      m_max, None)
    if "B4" not in verdicts:
        verdicts["B4"] = twist_scan("B4", _h0_tail, "h0_positive", ev.onset("h0_positive"))
    for cid in ("B5", "B6", "B7"):
        verdicts[cid] = CriterionResult(
            cid, bigres.big, True, big_wit,
            note="ample-plus-effective decomposition at the numerical level", same_as="B1")

    # alias series ---------------------------------------------------------
    for new, old in _ALIASES.items():
        base = verdicts[old]
        verdicts[new] = CriterionResult(new, base.holds, base.conclusive,
                                        base.witness, base.note, same_as=old)

    return PositivityReport(
        surface=S.name,
        divisor=ev.divisor,
        ground_truth=ground,
        verdicts=verdicts,
        m_max=m_max,
        delta=Fraction(delta),
        twists=tuple(twists),
    )
