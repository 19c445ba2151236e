"""Explicit surface models: Picard lattice, cones, canonical class, oracles.

A SurfaceModel is data, not code: an intersection matrix, generators of
the closed cone of curves and of the effective cone, the canonical class,
chi(O_X), and optional per-surface oracles deciding very-ampleness,
global generation and section counts of integral divisors.  Built-in
models cover the Hirzebruch surfaces F_e and the projective plane; user
models load from a JSON-shaped spec file (exact integers only).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, gcd
from operator import mul, sub
from typing import Callable, Optional, Sequence

from divpos import _kernels
from divpos.divisor import DIVISOR_DIGITS, RDivisor, ZDivisor, trusted_zdivisor, zdivisor_to_r
from divpos.errors import InternalError, InvalidInput, OracleUnavailable

# The most digits of hirzebruch's e and of every integer of a spec.  A report is linear
# in them, so it still prints at an input divisor's DIVISOR_DIGITS (divisor).
SURFACE_DIGITS = 100

# The most (rho - 1)- or rho-subsets of its effective generators a surface may have.  Its
# facet normals are found once over the former (effective_facets); a big certificate may
# search the latter for rho independent generators whose cone holds a class.
MAX_GENERATOR_SUBSETS = 5000


@dataclass(frozen=True)
class CurveClass:
    """A curve's numerical class plus multiplicity data for Seshadri ratios.

    multiplicity is mult_x C at the worst declared point; the built-in
    generators are smooth, so they carry multiplicity 1.
    """

    label: str
    coords: tuple[int, ...]
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if all(c == 0 for c in self.coords):
            raise InvalidInput(f"curve class {self.label!r:.60} must be nonzero")
        if self.multiplicity < 1:
            raise InvalidInput(f"multiplicity of {self.label!r:.60} must be >= 1")

    def as_zdivisor(self) -> ZDivisor:
        return ZDivisor(self.coords)


# An exact region of integral classes: a union (tuple) of pieces, each a
# conjunction (tuple) of integer forms (w, c) meaning w.coords >= c.  A built-in
# model carries one per scan predicate, equal to it on every integral class, so a
# rational divisor's scans can be decided from it.  The first piece is a
# sufficient condition, with w >= 0 on the nef cone: the onset bounds read it.
Region = tuple[tuple[tuple[tuple[int, ...], int], ...], ...]


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    basis: tuple[str, ...]
    intersection_matrix: tuple[tuple[int, ...], ...]
    mori_generators: tuple[CurveClass, ...]
    effective_generators: tuple[ZDivisor, ...]
    canonical_class: ZDivisor
    chi_structure: int
    very_ample: Optional[Callable[[ZDivisor], bool]] = None
    globally_generated: Optional[Callable[[ZDivisor], bool]] = None
    h0: Optional[Callable[[ZDivisor], int]] = None
    ample_reference: Optional[ZDivisor] = None
    regions: Optional[Mapping[str, Region]] = None
    spec: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        rho = len(self.basis)
        M = self.intersection_matrix
        if len(M) != rho or any(len(row) != rho for row in M):
            raise InvalidInput(f"intersection matrix must be {rho}x{rho}")
        for i in range(rho):
            for j in range(rho):
                if M[i][j] != M[j][i]:
                    raise InvalidInput("intersection matrix must be symmetric")
        if not self.mori_generators:
            raise InvalidInput("mori_generators must be non-empty")
        if not self.effective_generators:
            raise InvalidInput("effective_generators must be non-empty")
        for g in self.mori_generators:
            if len(g.coords) != rho:
                raise InvalidInput(f"mori generator {g.label!r:.60} has wrong rank")
        for v in self.effective_generators:
            if len(v.coords) != rho:
                raise InvalidInput("effective generator has wrong rank")
        if len(self.canonical_class.coords) != rho:
            raise InvalidInput("canonical class has wrong rank")
        # (M K)_i = e_i.K, read by every Riemann-Roch evaluation
        object.__setattr__(self, "_mk", self.basis_pairings(self.canonical_class.coords))
        n = len(self.effective_generators)
        if max(comb(n, rho - 1), comb(n, rho)) > MAX_GENERATOR_SUBSETS:
            raise InvalidInput(f"'effective_generators': {n} generators at rank {rho} have more "
                               f"than {MAX_GENERATOR_SUBSETS} subsets of {rho - 1} or {rho}")
        # the facet normals of the effective cone, read by every bigness test
        object.__setattr__(self, "_facets", effective_facets(
            tuple(v.coords for v in self.effective_generators), rho))

    @property
    def rho(self) -> int:
        return len(self.basis)

    def basis_pairings(self, cls: Sequence[int]) -> tuple[int, ...]:
        """(e_j . cls) over the basis classes e_j: the column M cls."""
        return tuple(sum(map(mul, row, cls)) for row in self.intersection_matrix)

    # -- exact pairings ------------------------------------------------------

    def pair_z(self, V: ZDivisor, W: ZDivisor) -> int:
        w = W.coords
        total = 0
        for vi, row in zip(V.coords, self.intersection_matrix):
            if vi:
                total += vi * sum(map(mul, row, w))
        return total

    def pair_coords(self, v: Sequence, w: Sequence):
        """Bilinear pairing v.M.w of two coefficient vectors (QuadExt or int entries).

        Summed as v_i * (M w)_i, skipping the zero entries of M and of M w, so
        an integer class w costs rho products with the entries of v.
        """
        total = 0
        for vi, row in zip(v, self.intersection_matrix):
            mw = sum(wj * mij for mij, wj in zip(row, w) if mij)
            if mw != 0:
                total = total + vi * mw
        return total

    def zdivisor(self, coords: Sequence[int]) -> ZDivisor:
        if len(coords) != self.rho:
            raise InvalidInput(f"expected {self.rho} coordinates, got {len(coords)}")
        return ZDivisor(tuple(coords))

    def format_z(self, V: ZDivisor) -> str:
        parts = []
        for lbl, c in zip(self.basis, V.coords):
            if c == 0:
                continue
            mag = abs(c)
            body = lbl if mag == 1 else f"{mag}*{lbl}"
            parts.append(("- " if c < 0 else "+ ") + body)
        if not parts:
            return "0"
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    # -- oracle access ---------------------------------------------------------

    def require_h0(self) -> Callable[[ZDivisor], int]:
        if self.h0 is None:
            raise OracleUnavailable(f"surface {self.name!r:.60} has no h0 oracle")
        return self.h0

    def require_very_ample(self) -> Callable[[ZDivisor], bool]:
        if self.very_ample is None:
            raise OracleUnavailable(f"surface {self.name!r:.60} has no very_ample oracle")
        return self.very_ample

    def require_globally_generated(self) -> Callable[[ZDivisor], bool]:
        if self.globally_generated is None:
            raise OracleUnavailable(f"surface {self.name!r:.60} has no globally_generated oracle")
        return self.globally_generated


@lru_cache(maxsize=64)   # every hirzebruch(e) has the same generators
def effective_facets(gens: tuple[tuple[int, ...], ...], rho: int) -> tuple[tuple[int, ...], ...]:
    """The primitive integer normals n of the facets of the cone the generators span.

    A class is in the open cone iff n > 0 on it for every n.  A facet is spanned by rho - 1
    independent generators whose normal is >= 0 on every generator.  When every generator
    lies on that hyperplane both signs are kept, and when no rho - 1 generators are
    independent the zero form is the one normal: a cone spanning less than the lattice has
    no interior class.  The subsets run from the last generator down, so with rho
    independent generators facet j is the one that leaves out generator j.
    """
    facets: list[tuple[int, ...]] = []
    independent = False
    for subset in combinations(gens[::-1], rho - 1):
        normal = [(-1) ** i * _det([row[:i] + row[i + 1:] for row in subset]) for i in range(rho)]
        if not any(normal):
            continue
        independent = True
        g = gcd(*normal)
        normal = tuple(x // g for x in normal)
        values = [sum(map(mul, normal, v)) for v in gens]
        if min(values) < 0 < max(values):
            continue
        for sign in (1, -1) if not any(values) else (1,) if min(values) >= 0 else (-1,):
            n = tuple(sign * x for x in normal)
            if n not in facets:
                facets.append(n)
    return tuple(facets) if independent else ((0,) * rho,)


def _det(rows: list[tuple[int, ...]]) -> int:
    """The determinant of a square integer matrix, by fraction-free (Bareiss) elimination."""
    a, sign, prev = [list(row) for row in rows], 1, 1
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        for i in range(k + 1, len(a)):
            a[i] = [(x * a[k][k] - a[i][k] * y) // prev for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    return sign * prev


def cohomology(S: SurfaceModel, D: ZDivisor) -> tuple[int, int, int]:
    """(h0, h1, h2) of an integral divisor.

    h0 comes from the surface oracle, h2 from Serre duality
    h2(D) = h0(K - D), chi from Riemann-Roch
    chi(D) = chi(O_X) + D.(D - K)/2, and h1 = h0 + h2 - chi.
    """
    h0f = S.require_h0()
    k, v = S.canonical_class.coords, D.coords
    if len(v) != len(k):
        raise InvalidInput(f"{D} has {len(v)} coordinates, the surface has rank {len(k)}")
    h0 = h0f(D)
    h2 = h0f(trusted_zdivisor(tuple(map(sub, k, v))))
    chi = chi_rr(S, D)
    h1 = h0 + h2 - chi
    if h1 < 0:
        raise InternalError(
            f"negative h1 = {h1} for {S.format_z(D)} on {S.name}; h0 oracle inconsistent"
        )
    return h0, h1, h2


def chi_rr(S: SurfaceModel, D: ZDivisor) -> int:
    """Euler characteristic by surface Riemann-Roch, exact.

    D.(D - K) is summed as v_i ((M v)_i - (M K)_i), without building D - K.
    """
    v = D.coords
    if len(v) != S.rho:
        raise InvalidInput(f"{D} has {len(v)} coordinates, the surface has rank {S.rho}")
    num = 0
    for vi, row, mk in zip(v, S.intersection_matrix, S._mk):
        if vi:
            num += vi * (sum(map(mul, row, v)) - mk)
    if num % 2 != 0:
        raise InvalidInput(
            f"D.(D-K) = {num} is odd; lattice data inconsistent with a surface"
        )
    return S.chi_structure + num // 2


# -- built-in models -----------------------------------------------------------


def hirzebruch(e: int) -> SurfaceModel:
    """The Hirzebruch surface F_e = P(O + O(-e)) over P^1.

    Basis [C0, f] with C0 a section of self-intersection -e and f a
    fiber; both cones are generated by C0 and f.  a*C0 + b*f is very
    ample iff a >= 1 and b >= a*e + 1, globally generated iff a >= 0 and
    b >= a*e, and h0 counts the pushforward line-bundle sections.  By the
    same splitting (Hartshorne III Ex. 8.4, V.2.18), h1 = h2 = 0 exactly on
    {a >= 0, b - e*a >= -1}, {a = -1} and {a = -2, b = -e - 1}; for e = 0
    the last piece is {b = -1, a <= -2}.
    """
    if not 0 <= e < 10**SURFACE_DIGITS:
        raise InvalidInput(f"hirzebruch needs 0 <= e < 10**{SURFACE_DIGITS}, got {e!s:.60}")

    def va(V: ZDivisor) -> bool:
        a, b = V.coords
        return a >= 1 and b >= a * e + 1

    def gg(V: ZDivisor) -> bool:
        a, b = V.coords
        return a >= 0 and b >= a * e

    def h0(V: ZDivisor) -> int:
        a, b = V.coords
        return _kernels.h0_hirzebruch(e, a, b)

    a, b, b_ea = (1, 0), (0, 1), (-e, 1)   # the forms a, b and b - e*a
    neg_a, neg_b = (-1, 0), (0, -1)
    last = (((a, -2), (neg_a, 2), (b, -e - 1), (neg_b, e + 1)) if e > 0
            else ((b, -1), (neg_b, 1), (neg_a, 2)))
    regions = {
        "very_ample": (((a, 1), (b_ea, 1)),),
        "globally_generated": (((a, 0), (b_ea, 0)),),
        "h0_positive": (((a, 0), (b, 0)),),
        "vanishing": (((a, 0), (b_ea, -1)), ((a, -1), (neg_a, 1)), last),
        "big": (((a, 1), (b, 1)),),
    }
    return SurfaceModel(
        name=f"hirzebruch:{e}",
        basis=("C0", "f"),
        intersection_matrix=((-e, 1), (1, 0)),
        mori_generators=(
            CurveClass("C0", (1, 0)),
            CurveClass("f", (0, 1)),
        ),
        effective_generators=(ZDivisor((1, 0)), ZDivisor((0, 1))),
        canonical_class=ZDivisor((-2, -(e + 2))),
        chi_structure=1,
        very_ample=va,
        globally_generated=gg,
        h0=h0,
        ample_reference=ZDivisor((1, e + 1)),
        regions=regions,
    )


def projective_plane() -> SurfaceModel:
    """P^2 with basis the line class L; rank-1 sanity model."""

    def va(V: ZDivisor) -> bool:
        return V.coords[0] >= 1

    def gg(V: ZDivisor) -> bool:
        return V.coords[0] >= 0

    def h0(V: ZDivisor) -> int:
        return _kernels.h0_p2(V.coords[0])

    n = (1,)
    regions = {
        "very_ample": (((n, 1),),),
        "globally_generated": (((n, 0),),),
        "h0_positive": (((n, 0),),),
        "vanishing": (((n, -2),),),
        "big": (((n, 1),),),
    }
    return SurfaceModel(
        name="p2",
        basis=("L",),
        intersection_matrix=((1,),),
        mori_generators=(CurveClass("L", (1,)),),
        effective_generators=(ZDivisor((1,)),),
        canonical_class=ZDivisor((-3,)),
        chi_structure=1,
        very_ample=va,
        globally_generated=gg,
        h0=h0,
        ample_reference=ZDivisor((1,)),
        regions=regions,
    )


# -- loading -----------------------------------------------------------------


def _builtin_surface(ident: str) -> Optional[SurfaceModel]:
    """The builtin model named by ident ("hirzebruch:E", "p2"); None for any other id."""
    if ident == "p2":
        return projective_plane()
    if ident.startswith("hirzebruch:"):
        try:
            e = int(ident.split(":", 1)[1])
        except ValueError:
            raise InvalidInput(f"bad hirzebruch id {ident!r:.60}; "
                               "expected hirzebruch:<e>") from None
        return hirzebruch(e)
    return None


def load_json(path: str, what: str):
    """The JSON value in the file at path.

    An integer literal of more than DIVISOR_DIGITS digits, the widest integer
    of any input, is refused naming what, the file and the bound, before int()
    meets the interpreter's 4,300-digit limit; a narrower field (a surface
    spec's, at SURFACE_DIGITS) refuses a shorter one itself, naming the field.
    A file that cannot be read or is not JSON is refused naming what and at
    most 60 characters of the path.
    """
    def parse_int(text: str) -> int:
        if len(text) - text.startswith("-") > DIVISOR_DIGITS:
            raise InvalidInput(f"{what}: {path!r:.60} holds an integer of more than "
                               f"{DIVISOR_DIGITS} digits")
        return int(text)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=parse_int)
    except OSError as exc:
        raise InvalidInput(f"{what}: cannot read {path!r:.60} ({exc.strerror})") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InvalidInput(f"{what}: {path!r:.60} is not valid JSON ({exc!s:.60})") from None


def resolve_surface(ident: str) -> SurfaceModel:
    """Resolve a builtin id ("hirzebruch:E", "p2") or a spec-file path."""
    S = _builtin_surface(ident)
    if S is not None:
        return S
    return surface_from_spec(load_json(ident, "surface"))


def surface_from_spec(spec: Mapping) -> SurfaceModel:
    """Build a SurfaceModel from its JSON-shaped spec.

    Required fields: name, basis, matrix, mori_generators,
    effective_generators, canonical, chi, oracle.  The oracle is either a
    builtin id ("hirzebruch:E", "p2"; not a spec-file path) or a table
    object with an "h0_table" map from coordinate strings "c1,c2,..." to
    integer counts (very_ample / globally_generated tables optional, each a list
    of coordinate strings).

    The oracle is checked against the spec before the model is returned:
    a referenced model must have the spec's matrix, canonical class, chi
    and generators, and every h0_table entry V whose K - V is also in the
    table must give h1(V) = h0(V) + h0(K - V) - chi(V) >= 0.  The scans
    rely on this, since they skip the multiples below a tail.

    The integer fields (matrix, chi, canonical, effective_generators, the
    generators' coords and multiplicity, ample) take JSON ints only, rho per
    class; basis is a list of label strings, h0_table an object and the
    other tables lists.  Anything else raises InvalidInput naming the field.
    Each mori_generators entry is a class or an object with "label" and "coords".
    """
    if not isinstance(spec, Mapping):
        raise InvalidInput(f"surface spec is {spec!r:.60}, expected an object")
    for fieldname in ("name", "basis", "matrix", "mori_generators",
                      "effective_generators", "canonical", "chi", "oracle"):
        if fieldname not in spec:
            raise InvalidInput(f"surface spec lacks field {fieldname!r}")
    basis = tuple(_spec_shape("basis", spec["basis"], list))
    if not all(isinstance(b, str) for b in basis):
        raise InvalidInput(f"surface spec field 'basis' is {spec['basis']!r:.60}, expected labels")
    rho = len(basis)
    matrix = _spec_ints("'matrix'", spec["matrix"], rho, rho)
    gens = []
    for i, g in enumerate(_spec_shape("mori_generators", spec["mori_generators"], list)):
        where = f"'mori_generators' entry {i}"
        if isinstance(g, Mapping):
            missing = [key for key in ("label", "coords") if key not in g]
            if missing:
                raise InvalidInput(f"surface spec field {where} lacks {missing[0]!r}")
            gens.append(CurveClass(
                str(g["label"]), _spec_ints(f"{where} 'coords'", g["coords"], rho),
                _spec_ints(f"{where} 'multiplicity'", g.get("multiplicity", 1))))
        else:
            coords = _spec_ints(where, g, rho)
            gens.append(CurveClass("+".join(map(str, coords)), coords))
    eff = tuple(ZDivisor(v) for v in _spec_ints("'effective_generators'",
                                                 spec["effective_generators"], None, rho))
    K = ZDivisor(_spec_ints("'canonical'", spec["canonical"], rho))

    oracle = spec["oracle"]
    va = gg = h0 = table = regions = None
    if isinstance(oracle, str):
        try:
            ref = _builtin_surface(oracle)
        except InvalidInput as exc:
            raise InvalidInput(f"surface spec field 'oracle': {exc}") from None
        if ref is None:
            raise InvalidInput(f"surface spec field 'oracle': {oracle!r:.60} is not a builtin id; "
                               "expected 'p2' or 'hirzebruch:E'")
        va, gg, h0 = ref.very_ample, ref.globally_generated, ref.h0
        regions = ref.regions
    elif isinstance(oracle, Mapping):
        if "h0_table" in oracle:
            table = {_table_key("h0_table", key): _spec_ints(f"'h0_table': entry {key!r:.60}", v)
                     for key, v in _spec_shape("h0_table", oracle["h0_table"], Mapping).items()}

            def h0(V: ZDivisor, _table=table) -> int:
                try:
                    return _table[V.coords]
                except KeyError:
                    raise OracleUnavailable(
                        f"h0 table has no entry for {V.coords}"
                    ) from None
        if "very_ample_table" in oracle:
            vat = {_table_key("very_ample_table", key)
                   for key in _spec_shape("very_ample_table", oracle["very_ample_table"], list)}
            va = lambda V, _s=vat: V.coords in _s  # noqa: E731
        if "globally_generated_table" in oracle:
            ggt = {_table_key("globally_generated_table", key) for key in _spec_shape(
                "globally_generated_table", oracle["globally_generated_table"], list)}
            gg = lambda V, _s=ggt: V.coords in _s  # noqa: E731
    else:
        raise InvalidInput("surface spec field 'oracle' must be a string or object")

    amp = ZDivisor(_spec_ints("'ample'", spec["ample"], rho)) if "ample" in spec else None
    S = SurfaceModel(
        name=str(spec["name"]),
        basis=basis,
        intersection_matrix=matrix,
        mori_generators=tuple(gens),
        effective_generators=eff,
        canonical_class=K,
        chi_structure=_spec_ints("'chi'", spec["chi"]),
        very_ample=va,
        globally_generated=gg,
        h0=h0,
        ample_reference=amp,
        regions=regions,
        spec=dict(spec),
    )
    if isinstance(oracle, str):
        theirs = _lattice_fields(ref)
        for name, value in _lattice_fields(S).items():
            if value != theirs[name]:
                raise InvalidInput(f"surface spec field 'oracle': {oracle!r:.60} has a different "
                                   f"{name!r} ({theirs[name]}, the spec has {value!s:.60})")
    if table is not None:
        _check_h0_table(S, table)
    return S


def _spec_ints(where: str, value, *shape: Optional[int]):
    """JSON ints (not bools) nested in lists of the lengths in ``shape`` (None: any), as tuples.

    No shape is one int, (rho,) a class, (None, rho) a list of classes.
    """
    if not shape:
        if type(value) is not int:
            raise InvalidInput(f"surface spec field {where} is {value!r:.60}, expected an integer")
        if abs(value) >= 10**SURFACE_DIGITS:
            raise InvalidInput(f"surface spec field {where} has more than {SURFACE_DIGITS} digits")
        return value
    n = shape[0]
    if not isinstance(value, (list, tuple)) or n not in (None, len(value)):
        raise InvalidInput(f"surface spec field {where} is {value!r:.60}, expected a list"
                           + ("" if n is None else f" of {n} entries"))
    return tuple(_spec_ints(f"{where} entry {i}", x, *shape[1:]) for i, x in enumerate(value))


def _table_key(fieldname: str, key: str) -> tuple[int, ...]:
    """The coordinates of a table-oracle key "c1,c2,..."; InvalidInput naming field and key."""
    try:
        return tuple(int(x) for x in key.split(","))
    except (AttributeError, ValueError):
        raise InvalidInput(f"surface spec field {fieldname!r}: key {key!r:.60} is not "
                           "a comma-separated list of integers") from None


def _spec_shape(fieldname: str, value, kind: type):
    """value if it is a list (kind list) or an object (kind Mapping); else InvalidInput."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        raise InvalidInput(f"surface spec field {fieldname!r} is {value!r:.60}, expected "
                           + ("a list" if kind is list else "an object"))
    return value


def _lattice_fields(S: SurfaceModel) -> dict:
    """The spec fields whose values a borrowed oracle and its regions assume."""
    return {
        "matrix": S.intersection_matrix,
        "canonical": S.canonical_class.coords,
        "chi": S.chi_structure,
        "mori_generators": sorted(g.coords for g in S.mori_generators),
        "effective_generators": sorted(v.coords for v in S.effective_generators),
    }


def _check_h0_table(S: SurfaceModel, table: Mapping[tuple[int, ...], int]) -> None:
    """InvalidInput unless h0 >= 0 and h1 = h0(V) + h0(K - V) - chi(V) >= 0 per entry."""
    k = S.canonical_class.coords
    for key, n in table.items():
        name = ",".join(map(str, key))
        if len(key) != S.rho:
            raise InvalidInput(f"surface spec field 'h0_table': key {name!r:.60} has "
                               f"{len(key)} coordinates, the basis has {S.rho}")
        if n < 0:
            raise InvalidInput(f"surface spec field 'h0_table': entry {name!r:.60} is negative")
        dual = tuple(map(sub, k, key))
        if dual in table:
            h1 = n + table[dual] - chi_rr(S, trusted_zdivisor(key))
            if h1 < 0:
                raise InvalidInput(f"surface spec field 'h0_table': entry {name!r:.60} gives "
                                   f"h1 = {h1} < 0 with h0(K - V) = {table[dual]}")


def surface_to_spec(S: SurfaceModel) -> dict:
    """Spec dict for a surface (builtin oracles referenced by name)."""
    if S.spec is not None:
        return dict(S.spec)
    return {
        "name": S.name,
        "basis": list(S.basis),
        "matrix": [list(row) for row in S.intersection_matrix],
        "mori_generators": [
            {"label": g.label, "coords": list(g.coords), "multiplicity": g.multiplicity}
            for g in S.mori_generators
        ],
        "effective_generators": [list(v.coords) for v in S.effective_generators],
        "canonical": list(S.canonical_class.coords),
        "chi": S.chi_structure,
        "oracle": S.name,
    }


def rdivisor_on(S: SurfaceModel, D) -> RDivisor:
    """Coerce a ZDivisor / RDivisor / inline string to a prime RDivisor on S."""
    from divpos.divisor import parse_divisor

    if isinstance(D, ZDivisor):
        return zdivisor_to_r(D, S.basis)
    if isinstance(D, str):
        D = parse_divisor(D)
    if isinstance(D, RDivisor):
        return D.to_prime(S.basis)
    raise InvalidInput(f"cannot interpret {D!r:.60} as a divisor on {S.name:.60}")
