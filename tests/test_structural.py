"""Structural identities the audit semantics lean on.

These are the load-bearing facts behind the one-sided classification
rules: periodicity of integral parts of rational divisors, failure
recurrence of tail predicates on the nef boundary, and bigness on
supernumerary effective generators.
"""

import ast
import inspect
import textwrap
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divpos.auditor as auditor
import divpos.cli as cli
import divpos.positivity as pos
from divpos.divisor import (MultiplesColumn, RDivisor, ZDivisor, integral_part,
                            integrality_denominator)
from divpos.errors import InternalError
from divpos.exact_numbers import QuadExt
from divpos.surface import (SurfaceModel, CurveClass, hirzebruch, projective_plane,
                            surface_from_spec, surface_to_spec)

F2 = hirzebruch(2)
coef = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(coef, coef, st.integers(min_value=0, max_value=300))
@settings(max_examples=80)
def test_integral_part_periodicity(a, b, m):
    """[(m+k)D] = [mD] + kD exactly, k the integrality denominator."""
    D = RDivisor({"C0": a, "f": b})
    if D.is_zero():
        return
    k = integrality_denominator(D, F2.basis)
    kD = integral_part(D.scaled(k), F2.basis)
    lhs = integral_part(D.scaled(m + k), F2.basis)
    rhs = integral_part(D.scaled(m), F2.basis) + kD
    assert lhs == rhs


@given(coef, coef)
@settings(max_examples=120, deadline=None)
def test_va_tail_longer_than_period_forces_ample(a, b):
    """The window rule: a very-ample tail across a full period certifies
    cone positivity for rational divisors."""
    D = RDivisor({"C0": a, "f": b})
    if D.is_zero():
        return
    k = integrality_denominator(D, F2.basis)
    scan = pos.very_ample_multiples(F2, D, 200)
    ample = pos.is_ample_cone(F2, D)[0]
    if scan.all_from is not None and 200 - scan.all_from >= k:
        assert ample
    if ample:
        # and the tail must in fact appear within the derived onset
        bound = pos.onset_bound(F2, D, "very_ample")
        assert bound is not None
        if bound <= 200:
            assert scan.all_from is not None and scan.all_from <= bound


def test_zero_pairing_irrational_tail_broken_by_weyl():
    """D.C0 = 0 with sqrt(2) coefficients: [mD] rides the nef boundary and
    very-ampleness fails whenever the fractional part dips below 1/2."""
    D = RDivisor({"C0": QuadExt(0, 1, 2), "f": QuadExt(0, 2, 2)})
    assert pos.intersect(F2, D, "C0") == QuadExt(0)
    mults = pos.Evaluation(F2, D, 200).multiples
    fails = [m for m in range(1, 201) if not F2.very_ample(mults[m])]
    # failures recur with small gaps, so no tail can span the audit window
    assert fails and max(b - a for a, b in zip(fails, fails[1:])) <= 10
    scan = pos.very_ample_multiples(F2, D, 200)
    assert scan.all_from is None or 200 - scan.all_from < 50


def test_nakai_cone_agreement_p2():
    from divpos.surface import projective_plane

    P2 = projective_plane()
    for d in range(-10, 11):
        V = ZDivisor((d,))
        assert pos.nakai_test(P2, V)[0] == pos.is_ample_cone(P2, V)[0]


# -- supernumerary effective generators (a certificate from rho of them) ----------


def surface_with_redundant_generator() -> SurfaceModel:
    return SurfaceModel(
        name="f2-redundant",
        basis=("C0", "f"),
        intersection_matrix=((-2, 1), (1, 0)),
        mori_generators=(CurveClass("C0", (1, 0)), CurveClass("f", (0, 1))),
        effective_generators=(ZDivisor((1, 0)), ZDivisor((0, 1)), ZDivisor((1, 1))),
        canonical_class=ZDivisor((-2, -4)),
        chi_structure=1,
    )


def test_caratheodory_interior_point_is_big():
    S = surface_with_redundant_generator()
    res = pos.is_big(S, RDivisor({"C0": 2, "f": 3}))
    assert res.big
    eps = Fraction(res.certificate["epsilon"])
    assert eps > 0
    pos.verify_big_certificate(S, pos.rdivisor_on(S, RDivisor({"C0": 2, "f": 3})),
                               res.certificate)


def test_redundant_generator_certificate_is_verified(monkeypatch):
    """The certificate of a surface with more generators than its rank is verified once,
    as its exact values, and its lambda, one per generator, is non-zero on at most rank
    of them; the strings it emits verify too."""
    S = surface_with_redundant_generator()
    verified = []
    real = pos.verify_big_certificate

    def recording(S, D, cert):
        verified.append(cert)
        return real(S, D, cert)

    monkeypatch.setattr(pos, "verify_big_certificate", recording)
    res = pos.is_big(S, RDivisor({"C0": 2, "f": 3}))
    assert res.note == ""
    assert len(verified) == 1 and verified[0] is res.exact and len(res.certificate["lambda"]) == 3
    assert sum(x != "0" for x in res.certificate["lambda"]) <= S.rho
    real(S, pos.rdivisor_on(S, RDivisor({"C0": 2, "f": 3})), res.certificate)


@pytest.mark.parametrize("D, cert", [
    # C0 is not big: a zero reference class is not ample
    ("C0", {"epsilon": "1", "lambda": ["1", "0"], "ample_ref": [0, 0]}),
    # a rank-3 reference on a rank-2 surface, with one lambda for two generators
    ("C0", {"epsilon": "1", "lambda": ["1"], "ample_ref": [0, 0, 5]}),
    # one lambda for two generators, the rest of the certificate sound
    ("C0 + 3*f", {"epsilon": "1", "lambda": ["0"], "ample_ref": [1, 3]}),
    # a bool is not an integer coordinate
    ("C0 + 3*f", {"epsilon": "1", "lambda": ["0", "0"], "ample_ref": [True, 3]}),
])
def test_forged_big_certificates_are_refused(D, cert):
    with pytest.raises(InternalError, match="big certificate"):
        pos.verify_big_certificate(F2, pos.rdivisor_on(F2, D), cert)


def test_caratheodory_boundary_not_big():
    S = surface_with_redundant_generator()
    assert not pos.is_big(S, RDivisor({"f": 1})).big
    assert not pos.is_big(S, RDivisor({"C0": Fraction(1, 2)})).big


def test_caratheodory_agrees_with_unit_basis_test():
    S = surface_with_redundant_generator()
    for a in range(-3, 4):
        for b in range(-3, 4):
            V = ZDivisor((a, b))
            assert pos.is_big(S, V).big == pos.is_big(F2, V).big, (a, b)


# -- report-level scaling invariance (full verdict set) ----------------------------


@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(2), Fraction(5, 7)])
def test_report_cone_verdicts_scale_invariant(q):
    for text in ("C0 + 3*f", "3/2*C0 + 3*f", "-C0 + f", "2*C0 + 2*f"):
        from divpos.divisor import parse_divisor

        D = parse_divisor(text)
        r1 = pos.build_report(F2, D, m_max=40)
        r2 = pos.build_report(F2, D.scaled(q), m_max=40)
        for cid in ("QVI", "QVII", "QVIII", "QIX", "QIII", "QIV", "QV", "B1"):
            assert (r1.verdicts[cid].holds == r2.verdicts[cid].holds), (text, cid)
        assert r1.ground_truth == r2.ground_truth


# -- per-report work counts ----------------------------------------------------------


@pytest.mark.parametrize("S, D", [
    (F2, "2*C0 + 5*f"), (F2, "3/2*C0 + 3*f"), (F2, "-C0 + f"), (F2, "sqrt(2)*C0 + f"),
    (hirzebruch(0), "(1+sqrt(3))*C0 - 1/2*f"), (projective_plane(), "2/3*L"),
])
def test_each_report_computes_the_per_divisor_constants_once(S, D, monkeypatch):
    """One [mD] column, and at most one pairing of D per generator."""
    multiples, pairings = [], []
    real_multiples, real_pair = pos.integral_part_multiples, SurfaceModel.pair_coords

    def count_multiples(*args):
        multiples.append(args)
        return real_multiples(*args)

    def count_pair(self, v, w):
        pairings.append((tuple(v), tuple(w)))
        return real_pair(self, v, w)

    monkeypatch.setattr(pos, "integral_part_multiples", count_multiples)
    monkeypatch.setattr(SurfaceModel, "pair_coords", count_pair)
    pos.build_report(S, D, 30)
    assert len(multiples) == 1
    coeffs = pos.rdivisor_on(S, D).coefficients(S.basis)
    allowed = Counter(g.coords for g in S.mori_generators)
    seen = Counter(w for v, w in pairings if v == coeffs and all(type(x) is int for x in w))
    assert seen and all(n <= allowed[w] for w, n in seen.items()), (seen, allowed)


# -- one table per predicate -----------------------------------------------------------


def test_regions_are_the_only_predicate_table():
    """No SurfaceModel field or derived attribute but regions is keyed by scan predicates,
    and positivity names no second table."""
    kinds = {"very_ample", "globally_generated", "h0_positive", "vanishing", "big"}
    borrowed = surface_from_spec({**surface_to_spec(F2), "name": "f2-spec"})
    for S in [hirzebruch(e) for e in range(4)] + [projective_plane(), borrowed]:
        tables = [name for name, value in vars(S).items()
                  if isinstance(value, Mapping) and kinds & set(value)]
        assert tables == ["regions"], (S.name, tables)
    tree = ast.parse(Path(pos.__file__).read_text())
    names = {getattr(n, "attr", None) or getattr(n, "id", None) or getattr(n, "value", None)
             for n in ast.walk(tree) if isinstance(n, (ast.Attribute, ast.Name, ast.Constant))}
    assert not names & {"sufficient_conditions", "_table_parts", "_slopes"}


# -- one per-divisor path --------------------------------------------------------------


def test_only_evaluation_normalises_a_divisor():
    """isinstance(..., Evaluation) only in _evaluation, and once for chi_growth's default."""
    tree = ast.parse(Path(pos.__file__).read_text())
    sites = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            sites += [fn.name for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                      and "Evaluation" in ast.unparse(node.args[1])]
    assert "_evaluation" in sites
    outside = [name for name in sites if name != "_evaluation"]
    assert outside in ([], ["chi_growth"]), outside


def _build_report_tree() -> ast.FunctionDef:
    tree = ast.parse(Path(pos.__file__).read_text())
    return next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "build_report")


def test_build_report_reads_oracles_only_through_one_table():
    """No S.very_ample / S.globally_generated / S.h0 in build_report: _ORACLE_OF decides."""
    fn = _build_report_tree()
    reads = [ast.unparse(n) for n in ast.walk(fn) if isinstance(n, ast.Attribute)
             and n.attr in ("very_ample", "globally_generated", "h0")]
    assert reads == []
    assert any(isinstance(n, ast.Name) and n.id == "_ORACLE_OF" for n in ast.walk(fn))
    assert {oracle for oracle, _ in pos._ORACLE_OF.values()} == {
        "very_ample", "globally_generated", "h0"}


def test_build_report_runs_each_per_twist_scan_through_the_one_helper():
    """QI, QII and B4 hand their scans to twist_scan, the one place a scan runs per twist."""
    fn = _build_report_tree()
    scans = {"vanishing_test", "glob_gen_twist_test", "_h0_tail"}
    direct = [ast.unparse(n) for n in ast.walk(fn) if isinstance(n, ast.Call)
              and getattr(n.func, "id", None) in scans]
    assert direct == []
    handed = [n.args[1].id for n in ast.walk(fn) if isinstance(n, ast.Call)
              and getattr(n.func, "id", None) == "twist_scan"]
    assert sorted(handed) == sorted(scans)
    named = [n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id in scans]
    assert sorted(named) == sorted(scans)


# -- one audit loop --------------------------------------------------------------------


def test_only_run_audit_resolves_samples_and_evaluates():
    """In auditor, run_audit alone resolves, seeds, samples and evaluates; the suites
    judge the evaluation handed to them, and audit_ampleness builds only the flip_gg one."""
    guarded = {"resolve_surface", "SplitMix64", "sample_divisor", "pos.Evaluation"}
    calls = Counter()
    for top in ast.parse(Path(auditor.__file__).read_text()).body:
        where = getattr(top, "name", "<module>")
        calls.update((where, ast.unparse(node.func)) for node in ast.walk(top)
                     if isinstance(node, ast.Call) and ast.unparse(node.func) in guarded)
    assert calls == Counter({("run_audit", name): 1 for name in guarded}
                            | {("audit_ampleness", "pos.Evaluation"): 1})


# -- one scan hand-off -----------------------------------------------------------------


def _called(node: ast.AST) -> set[str]:
    """The names of the functions and methods called anywhere under node."""
    return {getattr(n.func, "attr", None) or getattr(n.func, "id", None)
            for n in ast.walk(node) if isinstance(n, ast.Call)}


def test_the_evaluation_alone_decides_where_a_scan_starts():
    """Only Evaluation calls region_tail or region_first, and every onset= or first=
    handed to a scan is ev.tail_start or ev.first_member (or the largest of them), so
    build_report has no scan-start closure of its own.  auditor derives no bound: it
    names none of _region_spans, onset_bound and effective_facets (it reads ev.onset).
    One walk serves rational and irrational D alike: only region_tail and region_first
    call the interval helper _region_spans, the residue-class helpers and _exact are
    gone from the package, and neither tail_start nor first_member asks whether D is
    rational."""
    region_callers, span_callers, handoffs = set(), set(), []
    for path in sorted(Path(pos.__file__).parent.glob("*.py")):
        text = path.read_text()
        gone = ("_period_forms", "_region_runs", "_sure_runs", "_exact")
        assert [name for name in gone if name in text] == [], path.name
        tree = ast.parse(text)
        for top in tree.body:
            if _called(top) & {"region_tail", "region_first"}:
                region_callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
            if "_region_spans" in _called(top):
                span_callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
        handoffs += [kw for n in ast.walk(tree) if isinstance(n, ast.Call)
                     for kw in n.keywords if kw.arg in ("onset", "first")]
    assert region_callers == {"positivity.Evaluation"}
    assert span_callers == {"positivity.region_tail", "positivity.region_first"}
    for method in (pos.Evaluation.tail_start, pos.Evaluation.first_member):
        tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
        assert not {"_exact", "is_rational"} & {getattr(n, "attr", None) for n in ast.walk(tree)}
    # five in build_report, three in the nef and bigness suites, two in the bigness
    # suite's kodaira_check and claim_boh_check
    assert len(handoffs) == 10
    for kw in handoffs:
        called = _called(kw.value)
        assert called <= {"tail_start", "first_member", "_max_bound"} \
            and called & {"tail_start", "first_member"}, ast.unparse(kw)
    tree = ast.parse(Path(auditor.__file__).read_text())
    names = {getattr(n, "attr", None) or getattr(n, "id", None) for n in ast.walk(tree)}
    assert not names & {"_region_spans", "onset_bound", "effective_facets"}


# -- one bigness test ------------------------------------------------------------------


def test_bigness_is_decided_by_the_facet_normals_alone():
    """The epsilon ladder, the square solve of the generator coordinates and the
    unit-basis shortcut are gone from the package; in positivity only _big_result and
    _is_big_class read the facet normals S._facets, is_big reads the evaluation's
    ``big``, which _big_result computes, and only SurfaceModel sets the normals."""
    package = Path(pos.__file__).parent
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        gone = ("ladder", "_is_big_caratheodory", "_effective_coordinates", "_unit_effective")
        assert [name for name in gone if name in text] == [], path.name
    tree = ast.parse(Path(pos.__file__).read_text())
    readers = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)
               and "_facets" in {getattr(n, "attr", None) for n in ast.walk(top)}}
    assert readers == {"_big_result", "_is_big_class"}
    big_sources = [(top.name, n.name) for top in tree.body if isinstance(top, ast.ClassDef)
                   for n in top.body if isinstance(n, ast.FunctionDef) and n.name == "big"]
    assert big_sources == [("Evaluation", "big")]
    assert "_big_result" in _called(ast.parse(textwrap.dedent(
        inspect.getsource(pos.Evaluation.big.func))))
    is_big = ast.parse(textwrap.dedent(inspect.getsource(pos.is_big)))
    assert _called(is_big) == {"_evaluation"}
    assert "big" in {getattr(n, "attr", None) for n in ast.walk(is_big)}
    setters = [ast.unparse(n) for path in sorted(package.rglob("*.py"))
               for n in ast.walk(ast.parse(path.read_text()))
               if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "__setattr__"
               and any(isinstance(a, ast.Constant) and a.value == "_facets" for a in n.args)]
    assert len(setters) == 1 and "effective_facets" in setters[0]


# -- one ampleness criterion table -----------------------------------------------------


def test_the_ampleness_judge_reads_one_criterion_table():
    """auditor names an R-series id only inside _AMPLENESS_CRITERIA (the judge reads
    every other id as its base through pos._ALIASES), and every id of that table is a
    verdict of a report."""
    r_ids = {cid for cid in pos._ALIASES if cid.startswith("R")}
    tree = ast.parse(Path(auditor.__file__).read_text())
    inside = {id(n) for top in tree.body if isinstance(top, ast.Assign)
              and [ast.unparse(t) for t in top.targets] == ["_AMPLENESS_CRITERIA"]
              for n in ast.walk(top)}
    outside = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
               and n.value in r_ids and id(n) not in inside]
    assert outside == []
    report = pos.build_report(F2, "1/2*C0 + 3/2*f", 20)
    for ids in auditor._AMPLENESS_CRITERIA.values():
        assert set(ids) <= set(report.verdicts), set(ids) - set(report.verdicts)


# -- one store for the rows of [mD] ----------------------------------------------------


def test_the_rows_of_md_have_one_store():
    """No row block or walk detection is left in the package, MultiplesColumn keeps its
    rows in one attribute, positivity names no second row store or cache, Evaluation
    keeps its values without __slots__, and a row read twice is the one object the
    column keeps."""
    package = Path(pos.__file__).parent
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        assert [name for name in ("ROW_BLOCK", "WALK", "_blocks") if name in text] == [], \
            path.name
    assert MultiplesColumn.__slots__ == ("coefficients", "m_max", "_rows")
    text = (package / "positivity.py").read_text()
    assert [name for name in ("_Rows", "_blocks", "_built", ".coords(") if name in text] == []
    assert "__slots__" not in vars(pos.Evaluation)
    ev = pos.Evaluation(F2, "3/2*C0 + 3*f", 200)
    for m in (0, 63, 64, 200, -1):
        assert ev.multiples[m] is ev.multiples[m]


# -- one writer of the v1 JSON ---------------------------------------------------------


def test_the_v1_json_has_one_writer():
    """No json.dumps or json.dump in the package takes an indent: the indented v1 JSON is
    laid out by cli._dumps alone, and cli._emit reaches json only through it."""
    package = Path(pos.__file__).parent
    indented = [f"{path.name}:{n.lineno}" for path in sorted(package.rglob("*.py"))
                for n in ast.walk(ast.parse(path.read_text()))
                if isinstance(n, ast.Call) and ast.unparse(n.func) in ("json.dumps", "json.dump")
                and any(kw.arg == "indent" for kw in n.keywords)]
    assert indented == []
    called = _called(ast.parse(textwrap.dedent(inspect.getsource(cli._emit))))
    assert "_dumps" in called and not called & {"dumps", "dump", "JSONEncoder", "encode"}
