"""Bigness from the effective cone's facet normals, on any list of effective generators.

A class is big iff every facet normal of the effective cone is positive on it.  These
tests pin that on generator lists the built-ins do not have: a redundant generator, a
permuted list, many generators at rank 5 and a cone spanning less than the lattice.
"""

import dataclasses
import json
import re
import time
from fractions import Fraction
from itertools import permutations
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divpos.positivity as pos
from divpos.cli import main
from divpos.divisor import RDivisor, ZDivisor
from divpos.errors import InvalidInput
from divpos.exact_numbers import QuadExt
from divpos.surface import (MAX_GENERATOR_SUBSETS, CurveClass, SurfaceModel, effective_facets,
                            hirzebruch)

F2 = hirzebruch(2)
C0, F = ZDivisor((1, 0)), ZDivisor((0, 1))
TINY = "1/35184372088832"   # 2^-45


def assert_names_a_facet(S, D, res):
    """A not-big result names a facet normal that is >= 0 on every generator and <= 0 on D."""
    assert not res.big and res.certificate is None
    j = int(re.fullmatch(r"coordinate (\d+) on the effective cone is .* <= 0", res.note)[1])
    n = S._facets[j]
    assert all(sum(map(mul, n, E.coords)) >= 0 for E in S.effective_generators)
    coeffs = pos.rdivisor_on(S, D).coefficients(S.basis)
    assert sum((c * x for x, c in zip(n, coeffs)), QuadExt(0)).sign() <= 0


def assert_verified(S, D, res):
    assert res.big and res.note == ""
    pos.verify_big_certificate(S, pos.rdivisor_on(S, D), res.certificate)


def test_a_class_2_to_the_minus_45_from_the_boundary_is_big():
    """F_2 with the redundant generator C0 + f: C0 + 2^-45 f is big, as on hirzebruch(2)."""
    S = dataclasses.replace(F2, effective_generators=(C0, F, C0 + F))
    D = f"C0 + {TINY}*f"
    assert_verified(S, D, pos.is_big(S, D))
    assert pos.is_big(F2, D).big
    assert_names_a_facet(S, f"C0 - {TINY}*f", pos.is_big(S, f"C0 - {TINY}*f"))
    report = pos.build_report(S, D, 10)
    for cid in ("B1", "B5", "B6", "B7"):
        assert (report.verdicts[cid].holds, report.verdicts[cid].conclusive) == (True, True)


def test_a_certificate_skips_generators_that_are_not_independent():
    """With C0 and 2*C0 listed first, the certificate's lambda comes from C0 and f."""
    S = dataclasses.replace(F2, effective_generators=(C0, C0 + C0, F))
    res = pos.is_big(S, "C0 + f")
    assert_verified(S, "C0 + f", res)
    assert res.certificate["lambda"][1] == "0"


def test_check_with_a_redundant_generator_spec_agrees_with_the_builtin(tmp_path, capsys):
    """divpos check on a spec with F_2's lattice, generators C0, f and C0 + f and an
    h0_table copied from hirzebruch(2) gives C0 + 2^-45 f the builtin's B1."""
    table = {f"{a},{b}": F2.h0(ZDivisor((a, b)))
             for a in range(-20, 21) for b in range(-20, 41)}
    spec = {"name": "f2-redundant", "basis": ["C0", "f"], "matrix": [[-2, 1], [1, 0]],
            "mori_generators": [[1, 0], [0, 1]],
            "effective_generators": [[1, 0], [0, 1], [1, 1]], "canonical": [-2, -4],
            "chi": 1, "ample": [1, 3], "oracle": {"h0_table": table}}
    path = tmp_path / "f2-redundant.json"
    path.write_text(json.dumps(spec))
    b1 = {}
    for surface in (str(path), "hirzebruch:2"):
        code = main(["check", "--surface", surface, "--divisor", f"C0 + {TINY}*f",
                     "--m-max", "10", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        verdict = json.loads(out)["verdicts"]["B1"]
        b1[surface] = (verdict["holds"], verdict["conclusive"])
    assert b1[str(path)] == b1["hirzebruch:2"] == (True, True)


# -- presentation invariance: the generator list ------------------------------------


@st.composite
def near_boundary(draw):
    """Two coefficients at or near the walls a = 0, b = 0 of F_e's effective cone: 0,
    +-2^-k (k <= 200), small integers off by +-2^-k, and small values of one of Q(sqrt 2),
    Q(sqrt 3) and Q(sqrt 5)."""
    d = draw(st.sampled_from((2, 3, 5)))
    power = st.builds(lambda s, k: Fraction(s, 2**k),
                      st.sampled_from((1, -1)), st.integers(1, 200))
    small = st.integers(-3, 3)
    coefficient = st.one_of(
        st.just(Fraction(0)), power, st.builds(lambda n, x: n + x, small, power),
        st.builds(lambda a, b: QuadExt(a, b, d), small, st.integers(-2, 2).filter(bool)))
    return RDivisor({"C0": draw(coefficient), "f": draw(coefficient)})


@st.composite
def presented_surfaces(draw):
    """(builtin F_e, the same surface with a redundant generator and permuted generators)."""
    S = hirzebruch(draw(st.sampled_from((0, 2, 3))))
    extra = ZDivisor((draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    gens = draw(st.sampled_from(list(permutations(S.effective_generators + (extra,)))))
    return S, dataclasses.replace(S, effective_generators=gens)


@settings(max_examples=100, deadline=None)
@given(presented_surfaces(), near_boundary())
def test_bigness_verdicts_do_not_depend_on_the_generator_list(surfaces, D):
    """is_big and the (holds, conclusive) of B1, B3 and B5-B7 on F_0, F_2 and F_3 are
    the builtin's after a redundant generator is added and the list permuted."""
    S, T = surfaces
    if D.is_zero():
        return
    mine, theirs = pos.is_big(T, D), pos.is_big(S, D)
    assert mine.big == theirs.big
    if mine.big:
        assert_verified(T, D, mine)
    else:
        assert_names_a_facet(T, D, mine)
    got, want = pos.build_report(T, D, 12), pos.build_report(S, D, 12)
    for cid in ("B1", "B3", "B5", "B6", "B7"):
        assert (got.verdicts[cid].holds, got.verdicts[cid].conclusive) == \
            (want.verdicts[cid].holds, want.verdicts[cid].conclusive), cid


# -- cone shapes ------------------------------------------------------------------


def unit_lattice(rho, effective):
    """A rank-rho API surface with the unit matrix and unit Mori generators."""
    units = [tuple(int(i == j) for i in range(rho)) for j in range(rho)]
    return SurfaceModel(
        name=f"rank-{rho}", basis=tuple(f"e{j}" for j in range(rho)),
        intersection_matrix=tuple(units), canonical_class=ZDivisor((0,) * rho),
        mori_generators=tuple(CurveClass(f"e{j}", u) for j, u in enumerate(units)),
        effective_generators=tuple(map(ZDivisor, effective)), chi_structure=1,
        ample_reference=ZDivisor((1,) * rho))


def test_rank_5_with_fifteen_generators_decides_in_well_under_a_second():
    """The unit vectors and their pairwise sums span the positive orthant at rank 5: its
    five facets are the coordinates, and a boundary class is decided at once."""
    units = [tuple(int(i == j) for i in range(5)) for j in range(5)]
    S = unit_lattice(5, units + [tuple(map(sum, zip(u, v)))
                                 for i, u in enumerate(units) for v in units[i + 1:]])
    assert len(S.effective_generators) == 15 and S._facets == tuple(units)
    start = time.perf_counter()
    for coords in ((1, 1, 1, 1, 0), (1, 2, 3, 4, -1), (0, 0, 0, 0, 1)):
        assert_names_a_facet(S, ZDivisor(coords), pos.is_big(S, ZDivisor(coords)))
    for coords in ((1, 2, 3, 4, 5), (1, 1, 1, 1, 1)):
        assert_verified(S, ZDivisor(coords), pos.is_big(S, ZDivisor(coords)))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("effective", [
    ((1, 0), (2, 0)),                       # a ray at rank 2
    ((1, 0, 0), (0, 1, 0), (1, 1, 0)),      # a plane at rank 3
    ((1, 1, 0), (2, 2, 0)),                 # a ray at rank 3: no two generators independent
])
def test_a_cone_spanning_less_than_the_lattice_has_no_big_class(effective):
    S = unit_lattice(len(effective[0]), effective)
    for coords in ((1,) * S.rho, (3,) + (0,) * (S.rho - 1), tuple(range(1, S.rho + 1)),
                   (-1,) + (2,) * (S.rho - 1), (2,) * (S.rho - 1) + (-1,)):
        V = ZDivisor(coords)
        assert_names_a_facet(S, V, pos.is_big(S, V))
        assert not pos._is_big_class(S, V)


def test_facets_of_a_simplicial_cone_leave_out_one_generator_each():
    """With rho independent generators facet j leaves out generator j, and its normal is
    the primitive one: on F_e's (C0, f) the facets are the coordinates."""
    gens = ((1, 0, 0), (1, 2, 0), (0, 1, 3))
    facets = effective_facets(gens, 3)
    assert len(facets) == 3
    for j, n in enumerate(facets):
        values = [sum(map(mul, n, g)) for g in gens]
        assert values[j] > 0 and values[:j] + values[j + 1:] == [0, 0] and gcd(*n) == 1
    assert effective_facets(((1, 0), (0, 1)), 2) == ((1, 0), (0, 1)) == F2._facets
    assert effective_facets(((1,),), 1) == ((1,),)


def test_generators_past_the_subset_bound_are_refused():
    n = next(n for n in range(2, 200) if n * (n - 1) // 2 > MAX_GENERATOR_SUBSETS)
    with pytest.raises(InvalidInput, match="'effective_generators'"):
        dataclasses.replace(F2, effective_generators=tuple(ZDivisor((1, i)) for i in range(n)))
    dataclasses.replace(F2, effective_generators=tuple(ZDivisor((1, i)) for i in range(n - 1)))
