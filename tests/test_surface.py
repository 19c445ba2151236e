"""Built-in surface models: lattice data, oracles, cohomology."""

import dataclasses
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divpos.auditor import SplitMix64
from divpos.cli import main
from divpos.divisor import ZDivisor
from divpos.errors import InternalError, InvalidInput, OracleUnavailable
from divpos.surface import (
    CurveClass,
    cohomology,
    chi_rr,
    hirzebruch,
    projective_plane,
    resolve_surface,
    surface_from_spec,
    surface_to_spec,
)

F2 = hirzebruch(2)
P2 = projective_plane()


# -- independent section-count oracles -----------------------------------------


def h0_hirzebruch_bruteforce(e: int, a: int, b: int) -> int:
    """Count basis monomials of the pushforward bundle one degree at a time."""
    if a < 0:
        return 0
    total = 0
    for j in range(a + 1):
        deg = b - j * e
        total += sum(1 for _ in range(deg + 1)) if deg >= 0 else 0
    return total


def h0_p2_bruteforce(n: int) -> int:
    """Monomials x^i y^j z^k with i + j + k = n."""
    if n < 0:
        return 0
    return sum(1 for i in range(n + 1) for j in range(n + 1) if i + j <= n)


# -- lattice data -----------------------------------------------------------------


def test_hirzebruch_intersection_matrix():
    assert F2.intersection_matrix == ((-2, 1), (1, 0))
    c0, f = ZDivisor((1, 0)), ZDivisor((0, 1))
    assert F2.pair_z(c0, c0) == -2
    assert F2.pair_z(f, f) == 0
    assert F2.pair_z(c0, f) == 1


def test_hirzebruch_canonical_class():
    for e in range(0, 6):
        S = hirzebruch(e)
        assert S.canonical_class == ZDivisor((-2, -(e + 2)))
        assert S.chi_structure == 1


@pytest.mark.parametrize("e", range(2, 11))
def test_example_pairing_formula(e):
    """((3/2) C0 + (e+1) f).C0 = 1 - e/2, the published arithmetic."""
    S = hirzebruch(e)
    coeffs = (Fraction(3, 2), Fraction(e + 1))
    c0 = (1, 0)
    val = S.pair_coords(coeffs, c0)
    assert val == 1 - Fraction(e, 2)
    assert val <= 0


def test_signature_one_one():
    # Hodge index: determinant of the rank-2 form is negative
    for e in range(0, 8):
        M = hirzebruch(e).intersection_matrix
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        assert det < 0
    assert P2.intersection_matrix == ((1,),)


def test_rejects_negative_e():
    with pytest.raises(InvalidInput):
        hirzebruch(-1)


def test_mori_generators_pair_nonnegatively_with_nef_effectives():
    for S in (F2, P2, hirzebruch(0), hirzebruch(5)):
        for eff in S.effective_generators:
            nef = all(S.pair_z(eff, g.as_zdivisor()) >= 0 for g in S.mori_generators)
            if not nef:
                continue
            for g in S.mori_generators:
                assert S.pair_z(eff, g.as_zdivisor()) >= 0


# -- oracle examples ---------------------------------------------------------------


def test_very_ample_examples():
    assert F2.very_ample(ZDivisor((1, 3)))          # C0 + 3f, the integral part
    assert F2.pair_z(ZDivisor((1, 3)), ZDivisor((1, 0))) == 1
    assert not F2.very_ample(ZDivisor((1, 2)))      # boundary b = a*e
    assert hirzebruch(0).very_ample(ZDivisor((1, 1)))
    assert not P2.very_ample(ZDivisor((0,)))


def test_globally_generated_examples():
    assert F2.globally_generated(ZDivisor((0, 0)))
    assert F2.globally_generated(ZDivisor((1, 2)))
    assert not F2.globally_generated(ZDivisor((1, 1)))
    assert not F2.globally_generated(ZDivisor((-1, 5)))
    assert P2.globally_generated(ZDivisor((0,)))


def test_h0_examples():
    assert P2.h0(ZDivisor((2,))) == 6 == h0_p2_bruteforce(2)
    assert F2.h0(ZDivisor((1, 3))) == 6
    assert F2.h0(ZDivisor((0, 0))) == 1
    assert F2.h0(F2.canonical_class) == 0  # rationality
    assert P2.h0(P2.canonical_class) == 0


def test_k_dot_l_on_p2():
    assert P2.pair_z(P2.canonical_class, ZDivisor((1,))) == -3


@pytest.mark.parametrize("e", [0, 1, 2, 3])
def test_h0_against_bruteforce_grid(e):
    S = hirzebruch(e)
    for a in range(-4, 10):
        for b in range(-6, 14):
            assert S.h0(ZDivisor((a, b))) == h0_hirzebruch_bruteforce(e, a, b)


def test_va_implies_gg_implies_sections():
    for S, rng in ((F2, 9), (hirzebruch(0), 9), (hirzebruch(3), 14)):
        for a in range(-4, rng):
            for b in range(-4, rng):
                V = ZDivisor((a, b))
                if S.very_ample(V):
                    assert S.globally_generated(V)
                if S.globally_generated(V):
                    assert S.h0(V) > 0 or V.is_zero()
    for d in range(-3, 9):
        V = ZDivisor((d,))
        if P2.very_ample(V):
            assert P2.globally_generated(V)
        if P2.globally_generated(V):
            assert P2.h0(V) > 0 or V.is_zero()


def test_nef_matches_closed_form_on_random_lattice_points():
    """Cone-generator test vs the per-surface inequality, 10^4 samples."""
    rng = SplitMix64(20240601)
    for _ in range(10**4):
        e = rng.randint(0, 4)
        S = hirzebruch(e)
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        V = ZDivisor((a, b))
        by_generators = all(S.pair_z(V, g.as_zdivisor()) >= 0 for g in S.mori_generators)
        closed_form = a >= 0 and b >= a * e
        assert by_generators == closed_form, (e, a, b)


# -- cohomology ---------------------------------------------------------------------


def test_cohomology_examples():
    V = ZDivisor((1, 3))
    assert F2.pair_z(V, V) == 4
    assert F2.pair_z(V, F2.canonical_class) == -6
    assert chi_rr(F2, V) == 1 + (4 + 6) // 2 == 6
    assert cohomology(F2, V) == (6, 0, 0)
    assert cohomology(F2, ZDivisor((0, 0))) == (1, 0, 0)
    assert cohomology(P2, ZDivisor((-1,))) == (0, 0, 0)
    assert chi_rr(P2, ZDivisor((-1,))) == 0


def test_cohomology_euler_identity_grid():
    for S, mk in ((F2, lambda a, b: ZDivisor((a, b))),):
        for a in range(-8, 9):
            for b in range(-8, 9):
                V = mk(a, b)
                h0, h1, h2 = cohomology(S, V)
                assert h0 - h1 + h2 == chi_rr(S, V)
                assert min(h0, h1, h2) >= 0
    for d in range(-12, 13):
        V = ZDivisor((d,))
        h0, h1, h2 = cohomology(P2, V)
        assert h0 - h1 + h2 == chi_rr(P2, V)
        assert h1 == 0  # no middle cohomology for plane line bundles


def test_serre_duality_on_h2():
    for a in range(-5, 6):
        for b in range(-5, 6):
            V = ZDivisor((a, b))
            _, _, h2 = cohomology(F2, V)
            assert h2 == F2.h0(F2.canonical_class - V)


# -- spec files ------------------------------------------------------------------


def test_resolve_builtins():
    assert resolve_surface("hirzebruch:2").name == "hirzebruch:2"
    assert resolve_surface("p2").name == "p2"
    with pytest.raises(InvalidInput):
        resolve_surface("hirzebruch:x")
    with pytest.raises(InvalidInput):
        resolve_surface("/nonexistent/path.json")


def test_surface_spec_roundtrip(tmp_path):
    spec = surface_to_spec(F2)
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(spec))
    S = resolve_surface(str(path))
    assert S.basis == F2.basis
    assert S.intersection_matrix == F2.intersection_matrix
    assert S.h0(ZDivisor((1, 3))) == 6
    assert S.very_ample(ZDivisor((1, 3)))


def test_surface_spec_with_h0_table():
    spec = {
        "name": "toy",
        "basis": ["E"],
        "matrix": [[1]],
        "mori_generators": [{"label": "E", "coords": [1], "multiplicity": 1}],
        "effective_generators": [[1]],
        "canonical": [-3],
        "chi": 1,
        "oracle": {"h0_table": {"0": 1, "1": 3, "2": 6}},
    }
    S = surface_from_spec(spec)
    assert S.h0(ZDivisor((2,))) == 6
    with pytest.raises(OracleUnavailable):
        S.h0(ZDivisor((9,)))
    with pytest.raises(OracleUnavailable):
        S.require_very_ample()


def test_surface_spec_missing_field():
    with pytest.raises(InvalidInput):
        surface_from_spec({"name": "x"})


def test_inconsistent_h0_table_caught():
    spec = {
        "name": "broken",
        "basis": ["E"],
        "matrix": [[1]],
        "mori_generators": [{"label": "E", "coords": [1]}],
        "effective_generators": [[1]],
        "canonical": [-3],
        "chi": 1,
        # h0(0) should be 1 and h0(K-0)=h0(-3)=0; chi(0)=1 so h1 = 0 + 0 - 1 < 0 is impossible
        "oracle": {"h0_table": {"0": 0, "-3": 0}},
    }
    with pytest.raises(InvalidInput, match="'h0_table': entry '0'"):
        surface_from_spec(spec)


TOY = {
    "name": "toy",
    "basis": ["E"],
    "matrix": [[1]],
    "mori_generators": [{"label": "E", "coords": [1]}],
    "effective_generators": [[1]],
    "canonical": [-3],
    "chi": 1,
}


@pytest.mark.parametrize("table, key", [
    ({"-4": -1, "0": 1, "-3": 0}, "-4"),           # negative count
    ({"0": 1, "-3": 0, "1,0": 3}, "1,0"),          # wrong rank
    ({"1": 2, "-4": 0}, "1"),                      # h1(E) = 2 + 0 - 3 < 0
    ({"0": 1.5, "1": 3}, "0"),                     # counts are JSON integers:
    ({"0": 1, "1": 3.9}, "1"),                     # not truncated,
    ({"0": True}, "0"),                            # not bool,
    ({"0": 1, "-3": "x"}, "-3"),                   # not text
])
def test_h0_table_checked_at_load_names_the_key(table, key):
    with pytest.raises(InvalidInput, match=f"'h0_table': (entry|key) '{key}'"):
        surface_from_spec({**TOY, "oracle": {"h0_table": table}})


F2_C0_F = [{"label": "C0", "coords": [1, 0]}, {"label": "f", "coords": [0, 1]}]


@pytest.mark.parametrize("field, value, where", [
    ("chi", 1.9, "'chi'"),                                        # not truncated,
    ("chi", True, "'chi'"),                                       # not bool,
    ("chi", "1", "'chi'"),                                        # not text
    ("canonical", [-2.5, -4], "'canonical' entry 0"),
    ("canonical", [-2, -4, 0], "'canonical'"),                    # rank 3 on rank 2
    ("matrix", [[-2, 1], [1, 0.0]], "'matrix' entry 1 entry 1"),
    ("matrix", [[-2, 1]], "'matrix'"),
    ("matrix", [[-2, 1], [1]], "'matrix' entry 1"),
    ("effective_generators", [[1, 0], [0, True]], "'effective_generators' entry 1 entry 1"),
    ("effective_generators", [[1, 0], [1]], "'effective_generators' entry 1"),
    ("effective_generators", "C0", "'effective_generators'"),
    ("mori_generators", [{"label": "C0", "coords": [1.2, 0]}, F2_C0_F[1]],
     "'mori_generators' entry 0 'coords' entry 0"),
    ("mori_generators", [{**F2_C0_F[0], "multiplicity": 1.5}, F2_C0_F[1]],
     "'mori_generators' entry 0 'multiplicity'"),
    ("mori_generators", [F2_C0_F[0], {"label": "f", "coords": [0, 1, 0]}],
     "'mori_generators' entry 1 'coords'"),
    ("mori_generators", [[1, 0], [0.5, 1]], "'mori_generators' entry 1 entry 0"),
    ("mori_generators", [[1, 0], 5], "'mori_generators' entry 1"),
    ("ample", [1], "'ample'"),                                    # not zipped short
    ("ample", [1, 2.5], "'ample' entry 1"),
    # the shapes of the other fields, and of the spec itself (field None)
    ("basis", 5, "'basis'"),
    ("basis", "C0", "'basis'"),                                   # not split into labels
    ("basis", ["C0", 1], "'basis'"),
    ("oracle", {"h0_table": []}, "'h0_table'"),
    ("oracle", {"very_ample_table": 5}, "'very_ample_table'"),
    ("oracle", {"globally_generated_table": {"0,0": 1}}, "'globally_generated_table'"),
    (None, 7, None),
])
def test_spec_integer_fields_checked_at_load_name_the_field(field, value, where, tmp_path,
                                                            capsys):
    spec = {**surface_to_spec(F2), "oracle": "hirzebruch:2", field: value} if field else value
    message = f"surface spec field {where} is " if field else f"surface spec is {value!r}"
    with pytest.raises(InvalidInput, match=re.escape(message)):
        surface_from_spec(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["check", "--surface", str(path), "--divisor", "C0 + 3*f"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    (5, "field 'mori_generators' is 5, expected a list"),
    ([F2_C0_F[0], {"coords": [0, 1]}], "field 'mori_generators' entry 1 lacks 'label'"),
    ([{"label": "C0"}, F2_C0_F[1]], "field 'mori_generators' entry 0 lacks 'coords'"),
])
def test_malformed_mori_generators_exit_3_naming_the_field_and_entry(value, message, tmp_path,
                                                                     capsys):
    spec = {**surface_to_spec(F2), "oracle": "hirzebruch:2", "mori_generators": value}
    with pytest.raises(InvalidInput, match=re.escape(message)):
        surface_from_spec(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["check", "--surface", str(path), "--divisor", "C0 + 3*f"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fieldname", ["h0_table", "very_ample_table",
                                       "globally_generated_table"])
@pytest.mark.parametrize("key", ["x", "1,,2"])
def test_malformed_table_key_names_the_field_and_the_key(fieldname, key):
    table = {key: 1} if fieldname == "h0_table" else [key]
    with pytest.raises(InvalidInput, match=f"'{fieldname}': key '{key}'"):
        surface_from_spec({**TOY, "oracle": {fieldname: table}})


@pytest.mark.parametrize("oracle", ["toy.json", "hirzebruch:x", "hirzebruch:-1", "P2", ""])
def test_string_oracle_must_be_a_builtin_id(oracle):
    with pytest.raises(InvalidInput, match="field 'oracle'"):
        surface_from_spec({**TOY, "oracle": oracle})


def test_consistent_h0_table_with_dual_entries_loads():
    # P^2 counts: h0(dL) = (d+1)(d+2)/2 for d >= 0; h1 = 0 on every class
    table = {str(d): (d + 1) * (d + 2) // 2 if d >= 0 else 0 for d in range(-8, 6)}
    S = surface_from_spec({**TOY, "oracle": {"h0_table": table}})
    assert cohomology(S, ZDivisor((2,))) == (6, 0, 0)


def test_hand_built_model_with_inconsistent_h0_still_raises_in_cohomology():
    S = dataclasses.replace(F2, h0=lambda V: 0)   # h0(O) = 0 contradicts chi(O) = 1
    with pytest.raises(InternalError, match="negative h1"):
        cohomology(S, ZDivisor((0, 0)))


@pytest.mark.parametrize("field, value", [
    ("matrix", [[-3, 1], [1, 0]]),
    ("canonical", [-2, -5]),
    ("chi", 2),
    ("mori_generators", [{"label": "C0", "coords": [1, 0]}, {"label": "f", "coords": [1, 1]}]),
    ("effective_generators", [[1, 0], [1, 1]]),
])
def test_borrowed_oracle_must_match_the_spec(field, value):
    spec = {**surface_to_spec(F2), field: value}
    with pytest.raises(InvalidInput, match=f"'oracle': 'hirzebruch:2' has a different '{field}'"):
        surface_from_spec(spec)


def test_borrowed_oracle_ignores_generator_order_and_labels():
    spec = surface_to_spec(F2)
    spec["mori_generators"] = [[0, 1], [1, 0]]
    spec["effective_generators"] = [[0, 1], [1, 0]]
    assert surface_from_spec(spec).mori_generators[0].coords == (0, 1)


def test_readme_example_spec_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Data files", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    S = surface_from_spec(json.loads(block))
    assert S.name == "my-ruled-surface" and S.h0(ZDivisor((1, 3))) == 6


@pytest.mark.parametrize("call", [cohomology, chi_rr])
def test_wrong_rank_class_is_refused(call):
    with pytest.raises(InvalidInput, match="rank 2"):
        call(F2, ZDivisor((1, 2, 3)))
    with pytest.raises(InvalidInput, match="rank 2"):
        call(F2, ZDivisor((1,)))


def test_asymmetric_matrix_rejected():
    with pytest.raises(InvalidInput):
        surface_from_spec({
            "name": "bad",
            "basis": ["A", "B"],
            "matrix": [[0, 1], [2, 0]],
            "mori_generators": [{"label": "A", "coords": [1, 0]}],
            "effective_generators": [[1, 0]],
            "canonical": [0, 0],
            "chi": 1,
            "oracle": {"h0_table": {}},
        })


def test_curveclass_validation():
    with pytest.raises(InvalidInput):
        CurveClass("z", (0, 0))
    with pytest.raises(InvalidInput):
        CurveClass("m", (1, 0), multiplicity=0)


def test_wrong_rank_generator_rejected():
    from divpos.surface import SurfaceModel

    with pytest.raises(InvalidInput):
        SurfaceModel(
            name="bad",
            basis=("A", "B"),
            intersection_matrix=((0, 1), (1, 0)),
            mori_generators=(CurveClass("short", (1,)),),
            effective_generators=(ZDivisor((1, 0)),),
            canonical_class=ZDivisor((0, 0)),
            chi_structure=1,
        )


@pytest.mark.parametrize("e", [0, 1, 3, 5])
def test_euler_identity_other_invariants(e):
    S = hirzebruch(e)
    for a in range(-6, 7):
        for b in range(-8, 9):
            V = ZDivisor((a, b))
            h0, h1, h2 = cohomology(S, V)
            assert h0 - h1 + h2 == chi_rr(S, V)
            assert h1 >= 0


# -- spec fuzzing -----------------------------------------------------------------------

SPEC_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3, allow_nan=False)
    | st.sampled_from(["p2", "hirzebruch:2", "hirzebruch:-1", "0", "1,0", "x", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(
        ["label", "coords", "multiplicity", "h0_table", "very_ample_table",
         "globally_generated_table", "0", "1", "-3", "1,0"]), inner, max_size=3),
    max_leaves=8)
VALID_SPECS = [surface_to_spec(F2), surface_to_spec(P2),
               {**TOY, "oracle": {"h0_table": {"0": 1, "1": 3, "-3": 0}}}]


@st.composite
def spec_shapes(draw):
    """Any JSON value, or a valid spec with some fields dropped or replaced by any JSON."""
    if draw(st.booleans()):
        return draw(SPEC_JSON)
    spec = dict(draw(st.sampled_from(VALID_SPECS)))
    for key in draw(st.lists(st.sampled_from(sorted(spec) + ["ample"]), max_size=3)):
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = draw(SPEC_JSON)
    return spec


@settings(max_examples=300, deadline=None)
@given(spec_shapes())
def test_surface_spec_of_any_json_shape_loads_or_raises_invalid_input(spec):
    try:
        S = surface_from_spec(spec)
    except InvalidInput:
        return
    assert surface_from_spec(surface_to_spec(S)).basis == S.basis
