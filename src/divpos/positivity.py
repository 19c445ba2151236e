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

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Optional, Sequence, Union

from divpos.divisor import (
    RDivisor,
    ZDivisor,
    divisor_to_spec,
    divisor_from_spec,
    integral_part_multiples,
    trusted_zdivisor,
)
from divpos.errors import InternalError, InvalidInput
from divpos.exact_numbers import QuadExt, format_quadext, parse_quadext, quadext
from divpos.surface import CurveClass, SurfaceModel, chi_rr, cohomology, rdivisor_on

DivisorLike = Union[RDivisor, ZDivisor, str]
DivisorOrEvaluation = Union[RDivisor, ZDivisor, str, "Evaluation"]


# ---------------------------------------------------------------------------
# exact pairings


def intersect(S: SurfaceModel, D: DivisorLike, E: DivisorLike) -> QuadExt:
    """Exact intersection number D.E via the surface's bilinear form."""
    dc = rdivisor_on(S, D).coefficients(S.basis)
    ec = rdivisor_on(S, E).coefficients(S.basis)
    return quadext(S.pair_coords(dc, ec))


def _pair_class(S: SurfaceModel, coeffs: Sequence[QuadExt], cls: Sequence[int]) -> QuadExt:
    return quadext(S.pair_coords(coeffs, cls))


def generator_pairings(S: SurfaceModel, D: DivisorLike) -> list[tuple[CurveClass, QuadExt]]:
    coeffs = rdivisor_on(S, D).coefficients(S.basis)
    return [(g, _pair_class(S, coeffs, g.coords)) for g in S.mori_generators]


def self_intersection(S: SurfaceModel, D: DivisorLike) -> QuadExt:
    return intersect(S, D, D)


# ---------------------------------------------------------------------------
# cone criteria (exact, two-sided)


def is_nef(S: SurfaceModel, D: DivisorLike) -> tuple[bool, Optional[str]]:
    """Nef test: D.g >= 0 for every cone generator; witness is a violator."""
    for g, v in generator_pairings(S, D):
        if v.sign() < 0:
            return False, g.label
    return True, None


def is_ample_cone(S: SurfaceModel, D: DivisorLike) -> tuple[bool, Optional[str]]:
    """Ground-truth ampleness: strict positivity on the whole cone of curves.

    With finitely many generators spanning the closed cone this is both
    sufficient and necessary; the witness names a non-positive generator.
    """
    for g, v in generator_pairings(S, D):
        if v.sign() <= 0:
            return False, g.label
    return True, None


def nakai_test(S: SurfaceModel, D: DivisorLike) -> tuple[bool, dict]:
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


def ratio_bound(S: SurfaceModel, D: DivisorLike, H: DivisorLike) -> QuadExt:
    """min over curve generators of (D.C)/(H.C) for an ample reference H.

    Positive iff D is ample; the minimum is the best epsilon in the ratio
    criterion.
    """
    ok, bad = is_ample_cone(S, H)
    if not ok:
        raise InvalidInput(f"reference divisor is not ample (fails on {bad})")
    hp = generator_pairings(S, H)
    dp = generator_pairings(S, D)
    best: Optional[QuadExt] = None
    for (_, dv), (_, hv) in zip(dp, hp):
        r = dv / hv
        if best is None or r < best:
            best = r
    assert best is not None  # surfaces carry at least one generator
    return best


def seshadri_bound(S: SurfaceModel, D: DivisorLike,
                   catalog: Optional[Sequence[CurveClass]] = None) -> QuadExt:
    """min over a declared curve catalog of (D.C)/mult_x(C).

    A catalog-restricted surrogate of the Seshadri criterion; exact on
    the built-ins, where the generators are smooth curves sweeping the
    surface.  Default catalog: the cone generators with multiplicity 1.
    """
    curves = tuple(catalog) if catalog is not None else S.mori_generators
    if not curves:
        raise InvalidInput("empty curve catalog")
    coeffs = rdivisor_on(S, D).coefficients(S.basis)
    best: Optional[QuadExt] = None
    for c in curves:
        r = _pair_class(S, coeffs, c.coords) / c.multiplicity
        if best is None or r < best:
            best = r
    return best  # type: ignore[return-value]


def neighborhood_test(S: SurfaceModel, D: DivisorLike, delta: Fraction) -> bool:
    """Ampleness of D +- delta*B for every basis class B.

    An exact proxy for "a punctured neighborhood of the class is ample"
    at radius delta in max-coordinates; on polyhedral cones it agrees
    with ampleness once delta is below the distance of any sampled class
    to the cone walls (see auditor.safe_delta).
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise InvalidInput(f"delta must be positive, got {delta}")
    base = rdivisor_on(S, D)
    for j, lbl in enumerate(S.basis):
        for sgn in (1, -1):
            pert = base + RDivisor({lbl: QuadExt(sgn * delta)})
            ok, _ = is_ample_cone(S, pert)
            if not ok:
                return False
    return True


# ---------------------------------------------------------------------------
# bounded m-scans


@dataclass(frozen=True)
class VAMultiples:
    first_m: Optional[int]  # least m >= 1 with very_ample([mD])
    all_from: Optional[int]  # least m0 with very_ample([mD]) for all m in [m0, m_max]
    m_max: int


class Evaluation:
    """The integral parts [mD], m = 0..m_max, of one divisor on one surface.

    Built once per (S, D, m_max) and passed to the scans in place of D,
    so [mD] is computed once however many scans read it.  ``multiples[m]``
    is [mD].  ``twisted(G)`` is the list G + [mD]; the list of the most
    recent twist is kept, so the scans of one twist share it while at
    most one twist's list stays alive.
    """

    __slots__ = ("surface", "divisor", "m_max", "multiples", "unit_effective",
                 "_twist", "_twisted")

    def __init__(self, S: SurfaceModel, D: DivisorLike, m_max: int):
        if not isinstance(m_max, int) or m_max < 1:
            raise InvalidInput(f"m_max must be an integer >= 1, got {m_max!r}")
        self.surface = S
        self.divisor = rdivisor_on(S, D)
        self.m_max = m_max
        self.multiples = [trusted_zdivisor(c)
                          for c in integral_part_multiples(self.divisor, S.basis, m_max)]
        self.unit_effective = _gens_are_unit_basis(S)
        self._twist: Optional[ZDivisor] = None
        self._twisted: list[ZDivisor] = []

    def twisted(self, G: ZDivisor) -> list[ZDivisor]:
        """[G + [mD] for m in 0..m_max]."""
        if len(G.coords) != self.surface.rho:
            raise InvalidInput(f"twist {G} has {len(G.coords)} coordinates, "
                               f"the surface has rank {self.surface.rho}")
        if G.is_zero():
            return self.multiples
        if G != self._twist:
            self._twisted = []   # let the previous twist's list go first
            g = G.coords
            self._twisted = [trusted_zdivisor(tuple(map(add, g, V.coords)))
                             for V in self.multiples]
            self._twist = G
        return self._twisted

    def is_big_multiple(self, m: int) -> bool:
        """Whether [mD] lies in the interior of the effective cone."""
        V = self.multiples[m]
        if self.unit_effective:
            return min(V.coords) > 0
        return is_big(self.surface, V).big


def _evaluation(S: SurfaceModel, D: DivisorOrEvaluation,
                m_max: Optional[int]) -> Evaluation:
    """D itself when it is an evaluation on S, else D evaluated up to m_max (default 200)."""
    if not isinstance(D, Evaluation):
        return Evaluation(S, D, 200 if m_max is None else m_max)
    if D.surface is not S:
        raise InvalidInput(f"the evaluation was built on {D.surface.name}, not on this surface")
    if m_max is not None and m_max != D.m_max:
        raise InvalidInput(f"m_max={m_max!r} differs from the evaluation's m_max={D.m_max}")
    return D


def _tail_start(flags: list[bool], lo: int) -> Optional[int]:
    """Least i >= lo with flags[m] true for all m in [i, end]; None if end fails."""
    if not flags or not flags[-1]:
        return None
    i = len(flags) - 1
    while i - 1 >= lo and flags[i - 1]:
        i -= 1
    return i


# The scans below take D as a divisor or as its Evaluation on S.  For an
# evaluation, m_max defaults to the evaluation's own and any other value
# is refused; for a divisor it defaults to 200.


def very_ample_multiples(S: SurfaceModel, D: DivisorOrEvaluation,
                         m_max: Optional[int] = None) -> VAMultiples:
    """Scan very_ample([mD]) for m in [1, m_max]; D may be an Evaluation."""
    va = S.require_very_ample()
    ev = _evaluation(S, D, m_max)
    flags = [False] + [va(V) for V in ev.multiples[1:]]
    first = next((m for m, ok in enumerate(flags) if ok), None)
    return VAMultiples(first_m=first, all_from=_tail_start(flags, 1), m_max=ev.m_max)


def glob_gen_twist_test(S: SurfaceModel, D: DivisorOrEvaluation, G: ZDivisor,
                        m_max: Optional[int] = None) -> Optional[int]:
    """Least m2 <= m_max with G + [mD] globally generated for all m in [m2, m_max].

    D may be an Evaluation; the scans of one twist share its G + [mD].
    """
    gg = S.require_globally_generated()
    ev = _evaluation(S, D, m_max)
    return _tail_start([gg(V) for V in ev.twisted(G)], 0)


def vanishing_test(S: SurfaceModel, D: DivisorOrEvaluation, G: ZDivisor,
                   m_max: Optional[int] = None) -> Optional[int]:
    """Least m1 <= m_max with h1 = h2 = 0 for G + [mD] on all m in [m1, m_max].

    D may be an Evaluation; the scans of one twist share its G + [mD].
    cohomology runs on every m, so its h1 >= 0 check sees every multiple.
    """
    ev = _evaluation(S, D, m_max)
    flags = []
    for V in ev.twisted(G):
        _, h1, h2 = cohomology(S, V)
        flags.append(h1 == 0 and h2 == 0)
    return _tail_start(flags, 0)


def _h0_tail(S: SurfaceModel, ev: Evaluation, G: ZDivisor) -> Optional[int]:
    """Least m <= m_max with h0(G + [mD]) > 0 for all m in [m, m_max]."""
    h0 = S.require_h0()
    return _tail_start([h0(V) > 0 for V in ev.twisted(G)], 0)


def section_vanishing_scan(S: SurfaceModel, D: DivisorOrEvaluation,
                           m_max: Optional[int] = None) -> Optional[int]:
    """Least m4 such that for all m in [m4, m_max] every target admits a
    nonzero section vanishing somewhere.

    Targets: each generator curve C (all rational on the built-ins, so a
    section vanishing at a point exists iff deg([mD]|_C) > 0) and the
    surface itself (h0([mD]) >= 1 and [mD] != 0).  D may be an Evaluation.
    """
    h0 = S.require_h0()
    ev = _evaluation(S, D, m_max)
    gens = [g.as_zdivisor() for g in S.mori_generators]
    flags = []
    for V in ev.multiples:
        ok = all(S.pair_z(V, g) > 0 for g in gens)
        ok = ok and h0(V) >= 1 and not V.is_zero()
        flags.append(ok)
    return _tail_start(flags, 0)


def chi_growth(S: SurfaceModel, D: DivisorOrEvaluation,
               m_list: Sequence[int]) -> tuple[list[tuple[int, int]], Optional[Fraction]]:
    """Exact chi([mD]) by Riemann-Roch for each requested m.

    Also reports 2*chi([mD])/m^2 at the largest m, the empirical leading
    coefficient against D.D.  D may be an Evaluation reaching max(m_list).
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

    D may be an Evaluation.
    """
    h0 = S.require_h0()
    ev = _evaluation(S, D, m_max)
    m_max = ev.m_max
    members = [m for m, V in enumerate(ev.multiples) if h0(V) > 0]
    inside = set(members)
    for i, m1 in enumerate(members):
        for m2 in members[i:]:
            s = m1 + m2
            if s > m_max:
                break
            if s not in inside:
                raise InternalError(
                    f"semigroup not closed: {m1} and {m2} in N(X, D) but {s} is not"
                )
    return members


# ---------------------------------------------------------------------------
# bigness


@dataclass(frozen=True)
class BigResult:
    big: bool
    certificate: Optional[dict]  # {"epsilon": str, "lambda": [str], "ample_ref": [int]}
    note: str = ""


def _ample_reference(S: SurfaceModel) -> ZDivisor:
    if S.ample_reference is not None:
        return S.ample_reference
    # small search box; fine for low rank user models
    rho = S.rho
    from itertools import product

    for coords in product(range(0, 4), repeat=rho):
        V = ZDivisor(coords)
        if V.is_zero():
            continue
        ok, _ = is_ample_cone(S, V)
        if ok:
            return V
    raise InvalidInput(f"no ample class found for surface {S.name!r}; set 'ample' in its spec")


def _solve_square(cols: list[Sequence[QuadExt]], rhs: Sequence[QuadExt]) -> Optional[list[QuadExt]]:
    """Solve sum_j x_j * cols[j] = rhs exactly; None if singular."""
    n = len(rhs)
    k = len(cols)
    # augmented matrix rows
    A = [[quadext(cols[j][i]) for j in range(k)] + [quadext(rhs[i])] for i in range(n)]
    row = 0
    pivots = []
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
        pivots.append(col)
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


def _gens_are_unit_basis(S: SurfaceModel) -> bool:
    if len(S.effective_generators) != S.rho:
        return False
    for j, g in enumerate(S.effective_generators):
        for i in range(S.rho):
            if g.coords[i] != (1 if i == j else 0):
                return False
    return True


def _effective_coordinates(S: SurfaceModel, coeffs: Sequence[QuadExt]) -> Optional[list[QuadExt]]:
    """Coordinates of a class in the effective-generator basis, if square."""
    gens = S.effective_generators
    if len(gens) != S.rho:
        return None
    if _gens_are_unit_basis(S):
        return [quadext(c) for c in coeffs]
    cols = [[quadext(g.coords[i]) for i in range(S.rho)] for g in gens]
    return _solve_square(cols, [quadext(c) for c in coeffs])


def rational_below(x: QuadExt) -> Fraction:
    """A positive rational strictly below a positive exact value."""
    if x.sign() <= 0:
        raise InvalidInput("need a positive value")
    return Fraction(1, x.inverse().floor() + 1)


def is_big(S: SurfaceModel, D: DivisorLike) -> BigResult:
    """Interior-of-the-effective-cone test with an ample-plus-effective certificate.

    When the effective generators form a basis (all built-ins) the
    interior test is closed-form: all generator coordinates strictly
    positive.  The certificate exhibits D - epsilon*H = sum lambda_j E_j
    with a positive rational epsilon and exact non-negative lambda; it is
    re-verified before being returned.
    """
    coeffs = rdivisor_on(S, D).coefficients(S.basis)
    lam = _effective_coordinates(S, coeffs)
    if lam is None:
        return _is_big_caratheodory(S, coeffs)
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
    verify_big_certificate(S, rdivisor_on(S, D), cert)
    return BigResult(True, cert)


def _is_big_caratheodory(S: SurfaceModel, coeffs: Sequence[QuadExt]) -> BigResult:
    """Supernumerary generators: epsilon-ladder membership search.

    Exact cone membership at each ladder step via Caratheodory subsets.
    Sound for "big"; a boundary class deeper than the ladder floor would
    be reported not-big, noted in the verdict.
    """
    from itertools import combinations

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
    """Re-check D = epsilon*H + sum lambda_j E_j exactly; InternalError on failure."""
    eps = Fraction(cert["epsilon"])
    lam = [parse_quadext(x) for x in cert["lambda"]]
    H = ZDivisor(tuple(cert["ample_ref"]))
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
                    m_max: Optional[int] = None, require_big: bool = True) -> Optional[int]:
    """Least m0 <= m_max with [mD] big for all m in [m0, m_max]; D may be an Evaluation."""
    ev = _evaluation(S, D, m_max)
    if require_big and not is_big(S, ev.divisor).big:
        raise InvalidInput("divisor is not big")
    flags = [False] + [ev.is_big_multiple(m) for m in range(1, ev.m_max + 1)]
    return _tail_start(flags, 1)


def first_big_multiple(S: SurfaceModel, D: DivisorOrEvaluation,
                       m_max: Optional[int] = None) -> Optional[int]:
    """Least m >= 1 with [mD] big (the some-multiple form); D may be an Evaluation."""
    ev = _evaluation(S, D, m_max)
    return next((m for m in range(1, ev.m_max + 1) if ev.is_big_multiple(m)), None)


def kodaira_check(S: SurfaceModel, D: DivisorOrEvaluation, F: ZDivisor,
                  m_max: Optional[int] = None, require_big: bool = True) -> Optional[int]:
    """Least m in N(X, D) from which h0([mD] - F) > 0 persists to m_max.

    D may be an Evaluation.
    """
    h0 = S.require_h0()
    ev = _evaluation(S, D, m_max)
    if require_big and not is_big(S, ev.divisor).big:
        raise InvalidInput("divisor is not big")
    if h0(F) <= 0:
        raise InvalidInput(f"F = {S.format_z(F)} is not effective")
    mults = ev.multiples
    members = [m for m, V in enumerate(mults) if h0(V) > 0]
    if not members:
        return None
    best: Optional[int] = None
    for m in reversed(members):
        if h0(mults[m] - F) > 0:
            best = m
        else:
            break
    return best


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
    D may be an Evaluation; m_max must be at least GROWTH_MIN_M_MAX.
    """
    h0 = S.require_h0()
    ev = _evaluation(S, D, m_max)
    m_max = ev.m_max
    if m_max < GROWTH_MIN_M_MAX:
        raise InvalidInput(f"m_max must be >= {GROWTH_MIN_M_MAX}, got {m_max}")
    counts = [h0(v) for v in ev.multiples]
    m_h = m_max // 2
    anchor = Fraction(counts[m_h], 2 * m_h * m_h)
    passed = counts[m_h] > 0 and counts[m_max] >= 3 * counts[m_h]
    return GrowthCheck(
        passed=passed,
        c_estimate=Fraction(counts[m_max], 2 * m_max * m_max),
        leading=Fraction(counts[m_max], m_max * m_max),
        anchor_m=m_h,
        anchor_c=anchor,
    )


# ---------------------------------------------------------------------------
# onset bounds for the bounded searches


def _frac_overshoot(S: SurfaceModel, cls: Sequence[int]) -> int:
    """Strict upper bound on {mD}.mu over all fractional-part vectors."""
    total = 0
    for j in range(S.rho):
        p = S.pair_z(ZDivisor(tuple(1 if i == j else 0 for i in range(S.rho))),
                     ZDivisor(tuple(cls)))
        if p > 0:
            total += p
    return total


def definitive_negative(S: SurfaceModel, D: DivisorLike, kind: str) -> bool:
    """Closed-form proof that the predicate fails at [mD] for every m >= 1.

    A sufficient condition mu >= c can never hold when the pairing slope
    D.mu is non-positive and even the largest fractional correction
    cannot lift m*(D.mu) up to c.  Turns "not found <= m_max" into a
    definitive negative for the exists-m searches.
    """
    if S.sufficient_conditions is None or kind not in S.sufficient_conditions:
        return False
    coeffs = rdivisor_on(S, D).coefficients(S.basis)
    for cls, c in S.sufficient_conditions[kind]:
        slope = _pair_class(S, coeffs, cls)
        if slope.sign() > 0:
            continue
        lift = 0
        for j in range(S.rho):
            p = S.pair_z(ZDivisor(tuple(1 if i == j else 0 for i in range(S.rho))),
                         ZDivisor(tuple(cls)))
            if p < 0:
                lift += -p  # -{mD}.mu is at most the negative column part
        # [mD].mu <= m*slope + lift <= slope_at_m1 + lift for slope <= 0
        top = slope + lift if slope.sign() < 0 else QuadExt(lift)
        if top < QuadExt(c):
            return True
    return False


def ceil_quotient(need: Union[int, Fraction], slope: QuadExt) -> int:
    """Least integer m with m*slope >= need (slope > 0); 0 when need <= 0."""
    if need <= 0:
        return 0
    return -(quadext(-need) / slope).floor()


def onset_bound(S: SurfaceModel, D: DivisorLike, kind: str,
                twist: Optional[ZDivisor] = None) -> Optional[int]:
    """Effective bound: the predicate holds at G + [mD] for every m past it.

    kind indexes the surface's sufficient-condition table
    ("very_ample", "globally_generated", "vanishing", "h0_positive").
    None when the surface has no table or some pairing slope is not
    strictly positive (no finite onset derivable).
    """
    if S.sufficient_conditions is None or kind not in S.sufficient_conditions:
        return None
    coeffs = rdivisor_on(S, D).coefficients(S.basis)
    bound = 1
    for cls, c in S.sufficient_conditions[kind]:
        slope = _pair_class(S, coeffs, cls)
        g_mu = S.pair_z(twist, ZDivisor(tuple(cls))) if twist is not None else 0
        overshoot = _frac_overshoot(S, cls)
        # the fractional correction is strictly below the overshoot only
        # when some basis class pairs positively; otherwise keep full slack
        slack = 1 if overshoot > 0 else 0
        need = c - slack - g_mu + overshoot
        if slope.sign() <= 0:
            if need < 0:
                continue  # condition already slack for every m
            return None
        bound = max(bound, ceil_quotient(need, slope))
    return bound


# ---------------------------------------------------------------------------
# tail deciders for the integral-part criteria
#
# On a surface with a rational polyhedral cone of curves the three
# "for all m >= m0" criteria below reduce exactly to strict positivity on
# the cone generators:
#   - a non-positive pairing makes [mD] fail on that curve at every
#     integral multiple (rational coefficients) or along a fractional
#     subsequence supplied by equidistribution (irrational ones);
#   - strict positivity drives [mD] linearly deep into the region each
#     closed-form oracle carves out.
# The scans corroborate the decision with explicit witnesses.


def decide_tail_criterion(S: SurfaceModel, D: DivisorLike) -> tuple[bool, dict]:
    holds, bad = is_ample_cone(S, D)
    witness: dict = {}
    if not holds:
        witness["non_positive_generator"] = bad
    return holds, witness


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
        raise InvalidInput(f"unsupported schema_version {data.get('schema_version')!r}")
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


def _twist_scan_result(cid: str, S: SurfaceModel, twists: Sequence[ZDivisor], m_max: int,
                       onsets: Sequence[Optional[int]],
                       bound: Optional[int]) -> CriterionResult:
    """Fold one scan's onset per twist; the criterion holds from the latest onset on."""
    per_twist = {}
    worst: Optional[int] = 0
    for G, m in zip(twists, onsets):
        per_twist[S.format_z(G)] = m
        worst = None if (worst is None or m is None) else max(worst, m)
    return _scan_result(cid, worst, m_max, bound, {"per_twist": per_twist}, proxy=True)


def build_report(S: SurfaceModel, D: DivisorLike, m_max: int = 200,
                 delta: Fraction = Fraction(1, 1000),
                 twists: Optional[Sequence[ZDivisor]] = None,
                 curve_catalog: Optional[Sequence[CurveClass]] = None) -> PositivityReport:
    """Evaluate every criterion the surface supports and bundle the verdicts."""
    ev = Evaluation(S, D, m_max)
    rd = ev.divisor
    twists = list(twists) if twists is not None else default_twists(S)
    ground, bad_gen = is_ample_cone(S, rd)
    verdicts: dict[str, CriterionResult] = {}

    pair_witness = {
        g.label: format_quadext(v) for g, v in generator_pairings(S, rd)
    }

    # exact criteria ------------------------------------------------------
    verdicts["QIX"] = CriterionResult(
        "QIX", ground, True,
        {"pairings": pair_witness, **({"violator": bad_gen} if bad_gen else {})})
    nakai_ok, nakai_wit = nakai_test(S, rd)
    verdicts["QVI"] = CriterionResult("QVI", nakai_ok, True, nakai_wit)
    sesh = seshadri_bound(S, rd, curve_catalog)
    verdicts["QVII"] = CriterionResult(
        "QVII", sesh.sign() > 0, True, {"epsilon": format_quadext(sesh)})
    H = _ample_reference(S)
    ratio = ratio_bound(S, rd, H)
    verdicts["QVIII"] = CriterionResult(
        "QVIII", ratio.sign() > 0, True,
        {"epsilon": format_quadext(ratio), "reference": list(H.coords)})
    verdicts["QX"] = CriterionResult(
        "QX", neighborhood_test(S, rd, delta), True, {"delta": str(delta)})

    # bounded searches ------------------------------------------------------
    have_va = S.very_ample is not None
    have_gg = S.globally_generated is not None
    have_h0 = S.h0 is not None

    if have_va:
        va = very_ample_multiples(S, ev)
        if va.first_m is None and definitive_negative(S, rd, "very_ample"):
            verdicts["P1"] = CriterionResult(
                "P1", False, True, {"m_max": m_max},
                note="closed-form oracle excludes very ampleness of every [mD]")
        else:
            verdicts["P1"] = _scan_result(
                "P1", va.first_m, m_max, onset_bound(S, rd, "very_ample"))
    else:
        verdicts["P1"] = CriterionResult("P1", None, False, {},
                                         note="surface lacks a very_ample oracle")
        va = None

    # the per-twist scans, twist by twist so they share each twist's G + [mD]
    twist_scans: dict[str, Callable[[ZDivisor], Optional[int]]] = {}
    if have_h0:
        twist_scans["QI"] = lambda G: vanishing_test(S, ev, G)
    if have_gg:
        twist_scans["QII"] = lambda G: glob_gen_twist_test(S, ev, G)
    if have_h0:
        twist_scans["B4"] = lambda G: _h0_tail(S, ev, G)
    onsets: dict[str, list[Optional[int]]] = {cid: [] for cid in twist_scans}
    for G in twists:
        for cid, scan in twist_scans.items():
            onsets[cid].append(scan(G))

    if have_h0:
        verdicts["QI"] = _twist_scan_result(
            "QI", S, twists, m_max, onsets["QI"],
            _max_bound(onset_bound(S, rd, "vanishing", G) for G in twists))
    else:
        verdicts["QI"] = CriterionResult("QI", None, False, {}, note="no h0 oracle")

    if have_gg:
        verdicts["QII"] = _twist_scan_result(
            "QII", S, twists, m_max, onsets["QII"],
            _max_bound(onset_bound(S, rd, "globally_generated", G) for G in twists))
    else:
        verdicts["QII"] = CriterionResult("QII", None, False, {},
                                          note="no globally_generated oracle")

    # tail criteria: decided exactly on polyhedral cones, scans as witnesses
    tail_ok, tail_wit = decide_tail_criterion(S, rd)
    conclusive_tail = S.sufficient_conditions is not None
    if va is not None:
        tail_wit = {**tail_wit, "first_m": va.first_m, "all_from": va.all_from}
    verdicts["QIII"] = CriterionResult(
        "QIII", tail_ok if conclusive_tail else None, conclusive_tail, tail_wit,
        note="decided by cone positivity; scan attached" if conclusive_tail else "")
    if have_h0:
        m4 = section_vanishing_scan(S, ev)
        verdicts["QIV"] = CriterionResult(
            "QIV", tail_ok if conclusive_tail else None, conclusive_tail,
            {**tail_wit, "scan_m4": m4},
            note="curve targets via degrees on rational generators")
    else:
        verdicts["QIV"] = CriterionResult("QIV", None, False, {}, note="no h0 oracle")
    sample = list(range(1, min(6, m_max + 1)))
    chi_rows, chi_lead = chi_growth(S, ev, sample)
    verdicts["QV"] = CriterionResult(
        "QV", tail_ok if conclusive_tail else None, conclusive_tail,
        {"chi_samples": [[m, c] for m, c in chi_rows],
         "leading_estimate": str(chi_lead) if chi_lead is not None else None},
        note="surface target plus generator-curve targets")

    # bigness -----------------------------------------------------------------
    bigres = is_big(S, rd)
    verdicts["B1"] = CriterionResult(
        "B1", bigres.big, True,
        {"certificate": bigres.certificate} if bigres.certificate else {},
        note=bigres.note)
    if have_h0:
        if m_max >= GROWTH_MIN_M_MAX:
            growth = big_growth_check(S, ev)
            verdicts["B2"] = CriterionResult(
                "B2", growth.passed, True,
                {"c_estimate": str(growth.c_estimate), "leading": str(growth.leading),
                 "anchor_m": growth.anchor_m, "anchor_c": str(growth.anchor_c)},
                note="section-growth surrogate for the birational-map criterion")
        else:
            verdicts["B2"] = CriterionResult(
                "B2", None, False, {"m_max": m_max},
                note=f"the section-growth test needs m_max >= {GROWTH_MIN_M_MAX}")
        fb = first_big_multiple(S, ev)
        verdicts["B3"] = _scan_result("B3", fb, m_max, None)
        verdicts["B4"] = _twist_scan_result(
            "B4", S, twists, m_max, onsets["B4"], onset_bound(S, rd, "h0_positive"))
    else:
        for cid in ("B2", "B3", "B4"):
            verdicts[cid] = CriterionResult(cid, None, False, {}, note="no h0 oracle")
    for cid in ("B5", "B6", "B7"):
        verdicts[cid] = CriterionResult(
            cid, bigres.big, True,
            {"certificate": bigres.certificate} if bigres.certificate else {},
            note="ample-plus-effective decomposition at the numerical level",
            same_as="B1")

    # alias series ---------------------------------------------------------
    alias_map = {
        "P2": "QI", "P3": "QII", "P4": "QIII", "P5": "QIV", "P6": "QV",
        "P7": "QVI", "P8": "QVII", "P9": "QVIII", "P10": "QIX", "P11": "QX",
        "Ri": "QII", "Rii": "QVI", "Riii": "QVII", "Riv": "QVIII",
        "Rv": "QIX", "Rvi": "QX",
    }
    for new, old in alias_map.items():
        base = verdicts[old]
        verdicts[new] = CriterionResult(new, base.holds, base.conclusive,
                                        base.witness, base.note, same_as=old)

    return PositivityReport(
        surface=S.name,
        divisor=rd,
        ground_truth=ground,
        verdicts=verdicts,
        m_max=m_max,
        delta=Fraction(delta),
        twists=tuple(twists),
    )
