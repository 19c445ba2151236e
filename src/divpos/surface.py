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
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Mapping, Optional, Sequence

from divpos import _kernels
from divpos.divisor import RDivisor, ZDivisor, zdivisor_to_r
from divpos.errors import InternalError, InvalidInput, OracleUnavailable


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
            raise InvalidInput(f"curve class {self.label!r} must be nonzero")
        if self.multiplicity < 1:
            raise InvalidInput(f"multiplicity of {self.label!r} must be >= 1")

    def as_zdivisor(self) -> ZDivisor:
        return ZDivisor(self.coords)


# A sufficient-condition entry (mu, c): the predicate holds for every
# integral V with V.mu >= c, where mu is a pairing class.  Used to derive
# effective onset bounds for the bounded-search criteria; only the
# built-in models carry them.
SuffCond = tuple[tuple[int, ...], int]


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
    sufficient_conditions: Optional[Mapping[str, tuple[SuffCond, ...]]] = None
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
                raise InvalidInput(f"mori generator {g.label!r} has wrong rank")
        for v in self.effective_generators:
            if len(v.coords) != rho:
                raise InvalidInput("effective generator has wrong rank")
        if len(self.canonical_class.coords) != rho:
            raise InvalidInput("canonical class has wrong rank")

    @property
    def rho(self) -> int:
        return len(self.basis)

    # -- exact pairings ------------------------------------------------------

    def pair_z(self, V: ZDivisor, W: ZDivisor) -> int:
        w = W.coords
        total = 0
        for vi, row in zip(V.coords, self.intersection_matrix):
            if vi:
                total += vi * sum(map(mul, row, w))
        return total

    def pair_coords(self, v: Sequence, w: Sequence):
        """Bilinear pairing of two coefficient vectors (QuadExt or int entries)."""
        M = self.intersection_matrix
        total = None
        for i, vi in enumerate(v):
            for j, wj in enumerate(w):
                mij = M[i][j]
                if mij == 0:
                    continue
                term = vi * wj * mij
                total = term if total is None else total + term
        if total is None:
            return 0
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
            raise OracleUnavailable(f"surface {self.name!r} has no h0 oracle")
        return self.h0

    def require_very_ample(self) -> Callable[[ZDivisor], bool]:
        if self.very_ample is None:
            raise OracleUnavailable(f"surface {self.name!r} has no very_ample oracle")
        return self.very_ample

    def require_globally_generated(self) -> Callable[[ZDivisor], bool]:
        if self.globally_generated is None:
            raise OracleUnavailable(f"surface {self.name!r} has no globally_generated oracle")
        return self.globally_generated


def cohomology(S: SurfaceModel, D: ZDivisor) -> tuple[int, int, int]:
    """(h0, h1, h2) of an integral divisor.

    h0 comes from the surface oracle, h2 from Serre duality
    h2(D) = h0(K - D), chi from Riemann-Roch
    chi(D) = chi(O_X) + D.(D - K)/2, and h1 = h0 + h2 - chi.
    """
    h0f = S.require_h0()
    h0 = h0f(D)
    h2 = h0f(S.canonical_class - D)
    chi = chi_rr(S, D)
    h1 = h0 + h2 - chi
    if h1 < 0:
        raise InternalError(
            f"negative h1 = {h1} for {S.format_z(D)} on {S.name}; h0 oracle inconsistent"
        )
    return h0, h1, h2


def chi_rr(S: SurfaceModel, D: ZDivisor) -> int:
    """Euler characteristic by surface Riemann-Roch, exact."""
    num = S.pair_z(D, D - S.canonical_class)
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
    b >= a*e, and h0 counts the pushforward line-bundle sections.
    """
    if e < 0:
        raise InvalidInput(f"hirzebruch needs e >= 0, got {e}")

    def va(V: ZDivisor) -> bool:
        a, b = V.coords
        return a >= 1 and b >= a * e + 1

    def gg(V: ZDivisor) -> bool:
        a, b = V.coords
        return a >= 0 and b >= a * e

    def h0(V: ZDivisor) -> int:
        a, b = V.coords
        return _kernels.h0_hirzebruch(e, a, b)

    # pairing classes: f detects the C0-coefficient, C0 + e*f detects the
    # f-coefficient, C0 detects b - e*a
    cls_f = (0, 1)
    cls_c0 = (1, 0)
    cls_b = (1, e)
    suff = {
        "very_ample": ((cls_f, 1), (cls_c0, 1)),
        "globally_generated": ((cls_f, 0), (cls_c0, 0)),
        "h0_positive": ((cls_f, 0), (cls_b, 0)),
        "vanishing": ((cls_f, 0), (cls_c0, -1)),
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
        sufficient_conditions=suff,
    )


def projective_plane() -> SurfaceModel:
    """P^2 with basis the line class L; rank-1 sanity model."""

    def va(V: ZDivisor) -> bool:
        return V.coords[0] >= 1

    def gg(V: ZDivisor) -> bool:
        return V.coords[0] >= 0

    def h0(V: ZDivisor) -> int:
        return _kernels.h0_p2(V.coords[0])

    cls_l = (1,)
    suff = {
        "very_ample": ((cls_l, 1),),
        "globally_generated": ((cls_l, 0),),
        "h0_positive": ((cls_l, 0),),
        "vanishing": ((cls_l, -2),),  # h1 always 0; h2 = 0 once deg >= -2
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
        sufficient_conditions=suff,
    )


# -- loading -----------------------------------------------------------------


def resolve_surface(ident: str) -> SurfaceModel:
    """Resolve a builtin id ("hirzebruch:E", "p2") or a spec-file path."""
    if ident == "p2":
        return projective_plane()
    if ident.startswith("hirzebruch:"):
        try:
            e = int(ident.split(":", 1)[1])
        except ValueError:
            raise InvalidInput(f"bad hirzebruch id {ident!r}; expected hirzebruch:<e>") from None
        return hirzebruch(e)
    try:
        with open(ident, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"surface: cannot read {ident!r} ({exc})") from None
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"surface: {ident!r} is not valid JSON ({exc})") from None
    return surface_from_spec(spec)


def surface_from_spec(spec: Mapping) -> SurfaceModel:
    """Build a SurfaceModel from its JSON-shaped spec.

    Required fields: name, basis, matrix, mori_generators,
    effective_generators, canonical, chi, oracle.  The oracle is either a
    builtin reference ("hirzebruch:E", "p2") or a table object with an
    "h0_table" map from coordinate strings to counts (very_ample /
    globally_generated tables optional).
    """
    for fieldname in ("name", "basis", "matrix", "mori_generators",
                      "effective_generators", "canonical", "chi", "oracle"):
        if fieldname not in spec:
            raise InvalidInput(f"surface spec lacks field {fieldname!r}")
    basis = tuple(str(b) for b in spec["basis"])
    rho = len(basis)
    matrix = tuple(tuple(int(x) for x in row) for row in spec["matrix"])
    gens = []
    for g in spec["mori_generators"]:
        if isinstance(g, Mapping):
            gens.append(CurveClass(str(g["label"]), tuple(g["coords"]),
                                   int(g.get("multiplicity", 1))))
        else:
            gens.append(CurveClass("+".join(map(str, g)), tuple(g)))
    eff = tuple(ZDivisor(tuple(v)) for v in spec["effective_generators"])
    K = ZDivisor(tuple(spec["canonical"]))
    if len(K.coords) != rho:
        raise InvalidInput("surface spec field 'canonical' has wrong rank")

    oracle = spec["oracle"]
    va = gg = h0 = None
    suff = None
    if isinstance(oracle, str):
        ref = resolve_surface(oracle)
        if ref.rho != rho:
            raise InvalidInput(f"oracle {oracle!r} has rank {ref.rho}, spec has {rho}")
        va, gg, h0 = ref.very_ample, ref.globally_generated, ref.h0
        suff = ref.sufficient_conditions
    elif isinstance(oracle, Mapping):
        if "h0_table" in oracle:
            table = {tuple(int(x) for x in key.split(",")): int(v)
                     for key, v in oracle["h0_table"].items()}

            def h0(V: ZDivisor, _table=table) -> int:
                try:
                    return _table[V.coords]
                except KeyError:
                    raise OracleUnavailable(
                        f"h0 table has no entry for {V.coords}"
                    ) from None
        if "very_ample_table" in oracle:
            vat = {tuple(int(x) for x in key.split(",")) for key in oracle["very_ample_table"]}
            va = lambda V, _s=vat: V.coords in _s  # noqa: E731
        if "globally_generated_table" in oracle:
            ggt = {tuple(int(x) for x in key.split(",")) for key in oracle["globally_generated_table"]}
            gg = lambda V, _s=ggt: V.coords in _s  # noqa: E731
    else:
        raise InvalidInput("surface spec field 'oracle' must be a string or object")

    amp = None
    if "ample" in spec:
        amp = ZDivisor(tuple(spec["ample"]))
    return SurfaceModel(
        name=str(spec["name"]),
        basis=basis,
        intersection_matrix=matrix,
        mori_generators=tuple(gens),
        effective_generators=eff,
        canonical_class=K,
        chi_structure=int(spec["chi"]),
        very_ample=va,
        globally_generated=gg,
        h0=h0,
        ample_reference=amp,
        sufficient_conditions=suff,
        spec=dict(spec),
    )


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
    raise InvalidInput(f"cannot interpret {D!r} as a divisor on {S.name}")
