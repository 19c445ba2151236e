"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every expected value is exact; the only tolerances are the stated
runtime budgets, asserted with perf_counter.
"""

import time
from fractions import Fraction
from math import isqrt

from divpos import auditor
import divpos.positivity as pos
from divpos.divisor import (
    RDivisor,
    ZDivisor,
    enumerate_Tm,
    integral_part,
    lemma_dr_decompose,
    parse_divisor,
)
from divpos.exact_numbers import QuadExt, weyl_find
from divpos.surface import chi_rr, cohomology, hirzebruch, projective_plane

F2 = hirzebruch(2)
P2 = projective_plane()


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def timed(budget):
    class T:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            assert self.elapsed < budget, f"runtime {self.elapsed:.2f}s over budget {budget}s"

    return T()


def test_acceptance_1_counterexample_replication():
    with timed(1.0) as t:
        result = auditor.replicate_example_es_nna([2, 3, 4])
    pairings = [row["pairing_with_C0"] for row in result["cases"]]
    ok = (result["ok"]
          and pairings == ["0", "-1/2", "-1"]
          and all(r["very_ample_integral_part"] for r in result["cases"])
          and not any(r["ample"] for r in result["cases"]))
    report(1, ok, f"e in {{2,3,4}}: pairings {pairings}, runtime {t.elapsed:.2f}s")


def test_acceptance_2_equivalence_audit_rational():
    cfg = auditor.AuditConfig(
        seed=42,
        surfaces=("hirzebruch:2", "p2"),
        n_divisors=200,
        profile=auditor.rational_profile(30, 12),
        m_max=200,
        delta=Fraction(1, 1000),
    )
    assert [t.coords for t in pos.default_twists(F2)] == [(0, 0), (-1, 0), (0, -1), (-1, -1)]
    with timed(60.0) as t:
        out = auditor.run_audit(cfg, ["ampleness"])[0]
    ok = out.discrepancies == [] and out.checked == 400
    report(2, ok, f"{out.checked} divisors, {len(out.discrepancies)} discrepancies, "
                  f"{len(out.inconclusives)} inconclusive, runtime {t.elapsed:.1f}s")


def test_acceptance_3_equivalence_audit_quadratic():
    cfg = auditor.AuditConfig(
        seed=42,
        surfaces=("hirzebruch:2", "p2"),
        n_divisors=100,
        profile=auditor.quadratic_profile(2, 10),
        m_max=200,
    )
    with timed(60.0) as t:
        out = auditor.run_audit(cfg, ["ampleness"])[0]
    ok = out.discrepancies == []
    report(3, ok, f"100 sqrt(2)-divisors per surface, "
                  f"{len(out.discrepancies)} discrepancies, runtime {t.elapsed:.1f}s")


def test_acceptance_4_nef_from_multiples():
    cfg = auditor.AuditConfig(
        seed=42,
        surfaces=("hirzebruch:2", "p2"),
        n_divisors=200,
        profile=auditor.rational_profile(30, 12),
        m_max=200,
    )
    with timed(60.0) as t:
        out = auditor.run_audit(cfg, ["nef_from_multiples"])[0]
    ok = out.discrepancies == []
    report(4, ok, f"very-ample tails imply nef and (rank-2) ample on the sample; "
                  f"{len(out.discrepancies)} violations, runtime {t.elapsed:.1f}s")


def test_acceptance_5_riemann_roch_consistency():
    def h0_f2_brute(a, b):
        if a < 0:
            return 0
        return sum(max(0, b - 2 * j + 1) for j in range(a + 1))

    def h0_p2_brute(n):
        return sum(1 for i in range(max(n, 0) + 1) for j in range(max(n, 0) + 1)
                   if i + j <= n) if n >= 0 else 0

    cases = 0
    with timed(5.0) as t:
        for a in range(-20, 21):
            for b in range(-20, 21):
                V = ZDivisor((a, b))
                h0, h1, h2 = cohomology(F2, V)
                K = F2.canonical_class
                assert h0 == h0_f2_brute(a, b)
                assert h2 == h0_f2_brute(K.coords[0] - a, K.coords[1] - b)
                chi = 1 + (F2.pair_z(V, V) - F2.pair_z(V, K)) // 2
                assert h0 - h1 + h2 == chi == chi_rr(F2, V)
                assert h1 >= 0
                cases += 1
        for d in range(-20, 21):
            V = ZDivisor((d,))
            h0, h1, h2 = cohomology(P2, V)
            assert h0 == h0_p2_brute(d)
            assert h2 == h0_p2_brute(-3 - d)
            chi = 1 + (P2.pair_z(V, V) - P2.pair_z(V, P2.canonical_class)) // 2
            assert h0 - h1 + h2 == chi
            cases += 1
    report(5, cases == 41 * 41 + 41,
           f"h0 - h1 + h2 = 1 + (D.D - D.K)/2 on {cases} cases, runtime {t.elapsed:.1f}s")


def test_acceptance_6_big_growth_closed_form():
    D = parse_divisor("C0 + 3*f")
    for m in range(1, 101):
        V = integral_part(D.scaled(m), F2.basis)
        assert F2.h0(V) == (m + 1) * (2 * m + 1), m
    h0_100 = F2.h0(ZDivisor((100, 300)))
    ratio = Fraction(h0_100, 100 * 100)
    lo, hi = Fraction(2), Fraction(2) + Fraction(4, 100)
    ok = lo <= ratio <= hi and h0_100 == 101 * 201
    d_squared = pos.self_intersection(F2, D)
    report(6, ok and d_squared == QuadExt(4),
           f"h0(m(C0+3f)) = (m+1)(2m+1) for m <= 100; h0/m^2 = {ratio} in "
           f"[{lo}, {hi}] around D.D/2 = 2")


def test_acceptance_7_bigness_equivalences():
    total_disc = 0
    details = []
    with timed(60.0) as t:
        for profile in (auditor.rational_profile(30, 12), auditor.quadratic_profile(2, 10)):
            cfg = auditor.AuditConfig(
                seed=42, surfaces=("hirzebruch:2", "p2"), n_divisors=100,
                profile=profile, m_max=200)
            out = auditor.run_audit(cfg, ["bigness"])[0]
            total_disc += len(out.discrepancies)
            spots = out.replications.get("bqr_spot_checks", [])
            kind = list(profile)[0]
            if kind == "rational":
                assert {s["s"] for s in spots} == {"1/3", "sqrt(2)", "2"}
                assert all(s["big"] for s in spots)
            details.append(f"{kind}: {len(out.discrepancies)} disc, {len(spots)} spot checks")
    report(7, total_disc == 0, "; ".join(details) + f", runtime {t.elapsed:.1f}s")


def test_acceptance_8_decomposition_identities():
    basis = F2.basis
    rng = auditor.SplitMix64(42)
    checked = 0
    for _ in range(50):
        D = auditor.sample_divisor(F2, auditor.rational_profile(30, 12), rng)
        for m in range(1, 1001):
            k, tt, i = lemma_dr_decompose(D, m, basis)  # verifies [mD] = t*kD + [iD]
            assert m == tt * k + i and 0 <= i < k
        checked += 1

    worked = RDivisor({"A": Fraction(1, 2), "B": Fraction(1, 2)},
                      expansions={"A": (1, 1), "B": (1, 2)})
    enum = enumerate_Tm(worked, 12, basis)
    tm_ok = set(enum.values) == {ZDivisor((0, 0)), ZDivisor((1, 1))} and enum.contains_all()

    quad = RDivisor({"A": QuadExt(0, 1, 2), "B": QuadExt(0, Fraction(1, 3), 2)},
                    expansions={"A": (1, 2), "B": (2, -1)})
    quad_ok = enumerate_Tm(quad, 100, basis).contains_all()

    report(8, checked == 50 and tm_ok and quad_ok,
           f"lemma identity on {checked} divisors x m <= 1000; "
           f"T_m set {{0, C0+f}} reproduced; supersets contain all T_m")


def test_acceptance_9_weyl_search():
    k = weyl_find(QuadExt(0, 1, 2), Fraction(1, 10), 1)
    # verify by exact floor: frac(5*sqrt(2)) = 5*sqrt(2) - 7 < 1/10 since 5000 < 5041
    floor5 = isqrt(5 * 5 * 2)
    ok1 = k == 5 and floor5 == 7 and 100 * 2 * 25 < (10 * 7 + 1) ** 2
    k2 = weyl_find(QuadExt(0, 1, 2), Fraction(1, 100), 1, k_max=10**4)
    frac_ok = (QuadExt(0, 1, 2) * k2).frac() < QuadExt(Fraction(1, 100))
    ok2 = k2 <= 10**4 and frac_ok
    report(9, ok1 and ok2,
           f"weyl_find(sqrt(2), 1/10) = {k}; epsilon = 1/100 terminates at k = {k2} <= 10^4")
