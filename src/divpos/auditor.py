"""Seeded audit suites tying every criterion to the ground-truth oracles.

Each suite samples divisors deterministically, evaluates the full
criterion battery, and classifies every (divisor, criterion) pair as
agreement, discrepancy, or inconclusive.  The classification follows the
one-sided nature of the bounded searches:

* exact criteria (cones, Nakai, Seshadri, ratio, neighborhood) must
  match the cone oracle outright;
* catalog-quantified criteria (vanishing / global generation over the
  line-bundle twist catalog) are necessary-condition proxies: a witness
  against a non-ample ground truth only shows the catalog is too small
  and is logged inconclusive, while a missing witness counts against the
  implementation exactly when a per-divisor effective onset bound proves
  one had to appear inside the scanned range;
* tail criteria get their verdict from the cone decision and the scans
  cross-check it, with windows wide enough to contain an integral
  multiple of the divisor (rational case) before a contradiction counts.

Identical configs produce byte-identical serialized outcomes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import divpos.positivity as pos
from divpos.divisor import (
    RDivisor,
    ZDivisor,
    format_divisor,
    integral_part,
    integrality_denominator,
)
from divpos.errors import ConfigError, InvalidInput
from divpos.exact_numbers import QuadExt, format_quadext, weyl_find
from divpos.surface import SurfaceModel, resolve_surface

MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic PRNG; stable across Python versions by construction."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class AuditConfig:
    seed: int
    surfaces: tuple[str, ...]
    n_divisors: int
    profile: dict
    m_max: int = 200
    twists: Optional[tuple[tuple[int, ...], ...]] = None
    delta: Optional[Fraction] = None
    fault: Optional[str] = None

    def __post_init__(self):
        if self.n_divisors < 1:
            raise ConfigError("n_divisors must be >= 1")
        if self.m_max < 10:
            raise ConfigError("m_max must be >= 10")
        if not self.surfaces:
            raise ConfigError("surfaces must name at least one surface")
        kind = _profile_kind(self.profile)
        body = self.profile[kind]
        if kind == "rational":
            if int(body.get("max_numerator", 0)) < 1:
                raise ConfigError("profile.rational.max_numerator must be >= 1")
            if int(body.get("max_denominator", 0)) < 1:
                raise ConfigError("profile.rational.max_denominator must be >= 1")
        else:
            if int(body.get("d", 0)) < 2:
                raise ConfigError("profile.quadratic.d must be >= 2")
            if int(body.get("height", 0)) < 1:
                raise ConfigError("profile.quadratic.height must be >= 1")
        if self.fault not in (None, "flip_cone", "flip_ratio", "flip_gg"):
            raise ConfigError(f"unknown fault {self.fault!r}")

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "surfaces": list(self.surfaces),
            "n_divisors": self.n_divisors,
            "profile": self.profile,
            "m_max": self.m_max,
            "twists": [list(t) for t in self.twists] if self.twists else None,
            "delta": str(self.delta) if self.delta is not None else None,
            "fault": self.fault,
        }


def _profile_kind(profile: dict) -> str:
    kinds = [k for k in ("rational", "quadratic") if k in profile]
    if len(kinds) != 1:
        raise ConfigError("profile must contain exactly one of 'rational' or 'quadratic'")
    return kinds[0]


def config_from_dict(data: dict) -> AuditConfig:
    for fieldname in ("seed", "surfaces", "n_divisors", "profile"):
        if fieldname not in data:
            raise ConfigError(f"config lacks field {fieldname!r}")
    delta = data.get("delta")
    return AuditConfig(
        seed=int(data["seed"]),
        surfaces=tuple(str(s) for s in data["surfaces"]),
        n_divisors=int(data["n_divisors"]),
        profile=dict(data["profile"]),
        m_max=int(data.get("m_max", 200)),
        twists=tuple(tuple(int(x) for x in t) for t in data["twists"]) if data.get("twists") else None,
        delta=Fraction(delta) if delta is not None else None,
        fault=data.get("fault"),
    )


def rational_profile(max_numerator: int = 30, max_denominator: int = 12) -> dict:
    return {"rational": {"max_numerator": max_numerator, "max_denominator": max_denominator}}


def quadratic_profile(d: int = 2, height: int = 10, max_denominator: int = 4) -> dict:
    return {"quadratic": {"d": d, "height": height, "max_denominator": max_denominator}}


# ---------------------------------------------------------------------------
# sampling


def sample_divisor(S: SurfaceModel, profile: dict, rng: SplitMix64) -> RDivisor:
    """One nonzero divisor with coefficients drawn uniformly over the height box."""
    kind = _profile_kind(profile)
    body = profile[kind]
    while True:
        terms = {}
        for lbl in S.basis:
            if kind == "rational":
                num = rng.randint(-body["max_numerator"], body["max_numerator"])
                den = rng.randint(1, body["max_denominator"])
                coef = QuadExt(Fraction(num, den))
            else:
                h = body["height"]
                q = body.get("max_denominator", 4)
                a = Fraction(rng.randint(-h, h), rng.randint(1, q))
                b = Fraction(rng.randint(-h, h), rng.randint(1, q))
                coef = QuadExt(a, b, body["d"])
            terms[lbl] = coef
        D = RDivisor(terms)
        if not D.is_zero():
            return D


def safe_delta(S: SurfaceModel, profile: dict) -> Fraction:
    """A radius below which the neighborhood test agrees with the cone oracle.

    Any nonzero generator pairing of a profile divisor has magnitude at
    least 1/(Q*(X + Y*ceil(sqrt(d)))) for the worst-case cleared form
    (X + Y*sqrt(d))/Q, so perturbing by delta*basis keeps every strict
    sign as long as delta times the largest basis pairing stays under
    that floor.  Returned with a factor-two margin.
    """
    kind = _profile_kind(profile)
    body = profile[kind]
    rho = S.rho
    W = max(
        sum(abs(S.intersection_matrix[i][j]) for i in range(rho)) for j in range(rho)
    )
    if kind == "rational":
        qmax = body["max_denominator"]
        # pairing denominator divides the lcm of rho coefficient denominators
        Q = 1
        for w in sorted(range(1, qmax + 1), reverse=True)[:rho]:
            Q = lcm(Q, w)
        floor_pairing = Fraction(1, Q)
    else:
        from math import isqrt

        d = body["d"]
        h = body["height"]
        qmax = body.get("max_denominator", 4)
        Q = 1
        for w in sorted(range(1, qmax + 1), reverse=True)[: 2 * rho]:
            Q = lcm(Q, w)
        scale = rho * W * h  # numerator scale before clearing denominators
        X = Q * scale
        Y = Q * scale
        # |X' + Y'*sqrt(d)| >= 1 / (X + Y*sqrt(d)) for integer X', Y' in range
        floor_pairing = Fraction(1, Q * (X + Y * (isqrt(d) + 1)))
    return floor_pairing / (2 * W)


# ---------------------------------------------------------------------------
# per-divisor bounds used by the classification rules


def _min_effective_coordinate(S: SurfaceModel, D: RDivisor) -> Optional[QuadExt]:
    lam = pos._effective_coordinates(S, D.coefficients(S.basis))
    if lam is None:
        return None
    return min(lam)


def growth_bound(S: SurfaceModel, D: RDivisor) -> Optional[int]:
    """m_max above which a big divisor must pass the doubling growth test.

    The section count of [mD] is within a bounded offset of the count at
    the exact multiple, and the doubling ratio reaches 3 once the halfway
    point sees at least ~8 lattice steps along the shallowest effective
    direction; 16/lambda_min is a conservative onset.
    """
    lam = _min_effective_coordinate(S, D)
    if lam is None or lam.sign() <= 0:
        return None
    return 2 * pos.ceil_quotient(16, lam)


def boh_bound(S: SurfaceModel, D: RDivisor) -> Optional[int]:
    """m from which every [mD] lies in the cone interior, for big D."""
    lam = _min_effective_coordinate(S, D)
    if lam is None or lam.sign() <= 0:
        return None
    return pos.ceil_quotient(1, lam) + 1


def kodaira_bound(S: SurfaceModel, D: RDivisor, F: ZDivisor) -> Optional[int]:
    lam = _min_effective_coordinate(S, D)
    if lam is None or lam.sign() <= 0:
        return None
    need = max(F.coords) + 1
    return pos.ceil_quotient(need, lam) + 1


# ---------------------------------------------------------------------------
# outcome


@dataclass
class AuditOutcome:
    suite: str
    config: AuditConfig
    discrepancies: list[dict] = field(default_factory=list)
    inconclusives: list[dict] = field(default_factory=list)
    replications: dict = field(default_factory=dict)
    reports: list[pos.PositivityReport] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_json_dict(self) -> dict:
        return {
            "schema_version": "v1",
            "suite": self.suite,
            "config": self.config.to_json_dict(),
            "checked": self.checked,
            "n_discrepancies": len(self.discrepancies),
            "discrepancies": self.discrepancies,
            "n_inconclusive": len(self.inconclusives),
            "inconclusives": self.inconclusives,
            "replications": self.replications,
            "reports": [r.to_json_dict() for r in self.reports],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _entry(S: SurfaceModel, D: RDivisor, criterion: str, detail: str,
           ground) -> dict:
    return {
        "surface": S.name,
        "divisor": format_divisor(D),
        "criterion": criterion,
        "ground": ground,
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# ampleness audit


def _fault_surface(S: SurfaceModel, fault: Optional[str]) -> SurfaceModel:
    if fault != "flip_gg":
        return S
    import dataclasses

    gg = S.require_globally_generated()
    return dataclasses.replace(S, globally_generated=lambda V: not gg(V))


def _classify_ampleness(S: SurfaceModel, D: RDivisor, report: pos.PositivityReport,
                        config: AuditConfig, out: AuditOutcome) -> None:
    kind = _profile_kind(config.profile)
    ground = report.ground_truth
    rational = D.is_rational()
    k = integrality_denominator(D, S.basis) if rational else None

    delta_used = report.delta
    delta_safe = safe_delta(S, config.profile)

    if kind == "rational":
        criteria = ["QI", "QII", "QIII", "QIV", "QV", "QVI", "QVII", "QVIII", "QIX", "QX"]
    else:
        criteria = ["Ri", "Rii", "Riii", "Riv", "Rv", "Rvi", "QI", "QIII", "QIV", "QV"]
        # QI/QIII/QIV/QV enter as the one-directional properties (a)-(d)

    exact_ids = {"QVI", "QVII", "QVIII", "QIX", "QX", "Rii", "Riii", "Riv", "Rv", "Rvi"}
    proxy_ids = {"QI", "QII", "Ri"}
    one_directional = set()
    if kind == "quadratic":
        one_directional = {"QI", "QIII", "QIV", "QV"}

    for cid in criteria:
        v = report.verdicts[cid]
        if cid in exact_ids:
            if v.holds == ground:
                continue
            if cid in ("QX", "Rvi") and delta_used > delta_safe:
                out.inconclusives.append(_entry(
                    S, D, cid, f"delta {delta_used} above safe radius {delta_safe}", ground))
                continue
            out.discrepancies.append(_entry(
                S, D, cid, f"exact criterion returned {v.holds}, cone oracle says {ground}",
                ground))
            continue

        if cid in proxy_ids:
            if v.holds is True:
                if ground:
                    continue
                if cid in one_directional:
                    continue  # property only claimed for ample divisors
                out.inconclusives.append(_entry(
                    S, D, cid, "witness found; twist catalog cannot refute non-ampleness",
                    ground))
                continue
            if v.holds is False:  # conclusive absence below a valid onset bound
                if ground:
                    out.discrepancies.append(_entry(
                        S, D, cid,
                        f"no witness though onset bound {v.witness.get('onset_bound')} <= m_max",
                        ground))
                continue
            # inconclusive scan
            if ground:
                out.inconclusives.append(_entry(
                    S, D, cid, f"no witness up to m_max={config.m_max}; no effective bound",
                    ground))
            continue

        # tail criteria QIII / QIV / QV: verdict comes from the cone decision;
        # the scans cross-check it
        if cid in one_directional and not ground:
            continue
        if v.conclusive and v.holds != ground:
            out.discrepancies.append(_entry(
                S, D, cid, f"tail decision {v.holds} contradicts cone oracle {ground}", ground))
            continue
        wit = v.witness
        if cid == "QIII":
            all_from = wit.get("all_from")
            bound = pos.onset_bound(S, D, "very_ample")
            if ground and all_from is None and bound is not None and bound <= config.m_max:
                out.discrepancies.append(_entry(
                    S, D, cid, f"very-ample tail missing though onset bound {bound} applies",
                    ground))
            if (not ground) and all_from is not None and k is not None \
                    and config.m_max - all_from >= k:
                out.discrepancies.append(_entry(
                    S, D, cid,
                    f"very-ample tail from {all_from} covers a full period k={k} "
                    "yet the divisor is not ample", ground))
        elif cid == "QIV":
            m4 = wit.get("scan_m4")
            b1 = pos.onset_bound(S, D, "very_ample")
            b2 = pos.onset_bound(S, D, "h0_positive")
            bound = max(b1, b2) if (b1 is not None and b2 is not None) else None
            if ground and m4 is None and bound is not None and bound <= config.m_max:
                out.discrepancies.append(_entry(
                    S, D, cid, f"section-vanishing tail missing though bound {bound} applies",
                    ground))
            if (not ground) and m4 is not None and k is not None \
                    and config.m_max - m4 >= k:
                out.discrepancies.append(_entry(
                    S, D, cid, "section-vanishing tail covers a full period yet not ample",
                    ground))


def _reverify_report(S: SurfaceModel, D: RDivisor, report: pos.PositivityReport,
                     out: AuditOutcome) -> None:
    """Recompute the positive witnesses; soundness gate for the outcome."""
    v = report.verdicts["QVII"]
    eps = pos.seshadri_bound(S, D)
    if format_quadext(eps) != v.witness["epsilon"]:
        out.discrepancies.append(_entry(S, D, "QVII", "epsilon failed re-verification",
                                        report.ground_truth))
    v = report.verdicts["QVIII"]
    H = ZDivisor(tuple(v.witness["reference"]))
    eps2 = pos.ratio_bound(S, D, H)
    if format_quadext(eps2) != v.witness["epsilon"]:
        out.discrepancies.append(_entry(S, D, "QVIII", "epsilon failed re-verification",
                                        report.ground_truth))
    b1 = report.verdicts["B1"]
    if b1.holds and b1.witness.get("certificate"):
        try:
            pos.verify_big_certificate(S, D, b1.witness["certificate"])
        except Exception as exc:
            out.discrepancies.append(_entry(S, D, "B1", f"certificate invalid: {exc}",
                                            report.ground_truth))
    p1 = report.verdicts["P1"]
    if p1.holds and S.very_ample is not None:
        m = p1.witness["witness_m"]
        if not S.very_ample(integral_part(D.scaled(m), S.basis)):
            out.discrepancies.append(_entry(S, D, "P1", "witness_m failed re-verification",
                                            report.ground_truth))


def audit_ampleness(config: AuditConfig, keep_reports: bool = True) -> AuditOutcome:
    out = AuditOutcome(suite="ampleness", config=config)
    delta_cfg = config.delta
    for ident in config.surfaces:
        S0 = resolve_surface(ident)
        S = _fault_surface(S0, config.fault)
        delta = delta_cfg if delta_cfg is not None else min(
            Fraction(1, 1000), safe_delta(S0, config.profile))
        twists = ([ZDivisor(t) for t in config.twists]
                  if config.twists else pos.default_twists(S0))
        rng = SplitMix64(config.seed)
        for _ in range(config.n_divisors):
            D = sample_divisor(S0, config.profile, rng)
            report = pos.build_report(S, D, m_max=config.m_max, delta=delta, twists=twists)
            if config.fault == "flip_cone":
                report = _flip_ground(report)
            elif config.fault == "flip_ratio":
                report = _flip_verdict(report, "QVIII")
            _classify_ampleness(S0, D, report, config, out)
            _reverify_report(S0, D, report, out)
            out.checked += 1
            if keep_reports:
                out.reports.append(report)
    return out


def _flip_ground(report: pos.PositivityReport) -> pos.PositivityReport:
    import dataclasses

    return dataclasses.replace(report, ground_truth=not report.ground_truth)


def _flip_verdict(report: pos.PositivityReport, cid: str) -> pos.PositivityReport:
    import dataclasses

    v = report.verdicts[cid]
    flipped = pos.CriterionResult(v.criterion, not v.holds, v.conclusive, v.witness,
                                  v.note, v.same_as)
    verdicts = dict(report.verdicts)
    verdicts[cid] = flipped
    return dataclasses.replace(report, verdicts=verdicts)


# ---------------------------------------------------------------------------
# nef-from-multiples audit


def audit_nef_from_multiples(config: AuditConfig, keep_reports: bool = False) -> AuditOutcome:
    """Tail of very-ample integral parts forces nef (and ample on rank-2 cones)."""
    out = AuditOutcome(suite="nef_from_multiples", config=config)
    for ident in config.surfaces:
        S = resolve_surface(ident)
        rng = SplitMix64(config.seed)
        weyl_checks = []
        for _ in range(config.n_divisors):
            D = sample_divisor(S, config.profile, rng)
            out.checked += 1
            scan = pos.very_ample_multiples(S, D, config.m_max)
            window = (integrality_denominator(D, S.basis) if D.is_rational() else 50)
            if scan.all_from is None or config.m_max - scan.all_from < window:
                continue
            nef_ok, bad = pos.is_nef(S, D)
            if not nef_ok:
                out.discrepancies.append(_entry(
                    S, D, "claim_3nef",
                    f"very-ample tail from {scan.all_from} but D.{bad} < 0", None))
            amp_ok, bad2 = pos.is_ample_cone(S, D)
            if not amp_ok:
                out.discrepancies.append(_entry(
                    S, D, "remark_surface",
                    f"very-ample tail from {scan.all_from} but not ample (fails {bad2})",
                    None))
        # Weyl sub-check: fractional parts of irrational coefficients get
        # arbitrarily small against any negative component pairing
        rng2 = SplitMix64(config.seed)
        for _ in range(min(config.n_divisors, 10)):
            D = sample_divisor(S, config.profile, rng2)
            for j, lbl in enumerate(S.basis):
                coef = D.coefficient(lbl)
                if coef.is_rational:
                    continue
                ej = ZDivisor(tuple(1 if i == j else 0 for i in range(S.rho)))
                for g in S.mori_generators:
                    pairing = S.pair_z(ej, g.as_zdivisor())
                    if pairing >= 0:
                        continue
                    mag = -pairing
                    if mag < 2:
                        k_found = 1  # frac < 1 always; the inequality is automatic
                    else:
                        k_found = weyl_find(coef, Fraction(1, mag), 1, k_max=10**5)
                        check = (coef * k_found).frac() * mag
                        if not (check < QuadExt(1)):
                            out.discrepancies.append(_entry(
                                S, D, "weyl_principle",
                                f"frac({k_found}*{format_quadext(coef)})*{mag} >= 1", None))
                            continue
                    weyl_checks.append({
                        "surface": S.name,
                        "coefficient": format_quadext(coef),
                        "pairing": pairing,
                        "k": k_found,
                    })
        out.replications.setdefault("weyl_checks", []).extend(weyl_checks)
    return out


# ---------------------------------------------------------------------------
# bigness audit


def audit_bigness(config: AuditConfig, keep_reports: bool = False) -> AuditOutcome:
    out = AuditOutcome(suite="bigness", config=config)
    for ident in config.surfaces:
        S = resolve_surface(ident)
        catalog = pos.default_effective_catalog(S)
        rng = SplitMix64(config.seed)
        big_rational_samples: list[RDivisor] = []
        for _ in range(config.n_divisors):
            D = sample_divisor(S, config.profile, rng)
            out.checked += 1
            ground = pos.is_big(S, D).big
            if config.fault == "flip_cone":
                ground = not ground
            ev = pos.Evaluation(S, D, config.m_max)

            growth = pos.big_growth_check(S, ev)
            if growth.passed != ground:
                gb = growth_bound(S, D)
                if ground and (gb is None or gb > config.m_max):
                    out.inconclusives.append(_entry(
                        S, D, "lem_b1_growth",
                        f"growth onset bound {gb} beyond m_max={config.m_max}", ground))
                else:
                    out.discrepancies.append(_entry(
                        S, D, "lem_b1_growth",
                        f"growth test {growth.passed} vs bigness {ground}", ground))

            m0 = pos.claim_boh_check(S, ev, require_big=False)
            if ground and m0 is None:
                bb = boh_bound(S, D)
                if bb is None or bb > config.m_max:
                    out.inconclusives.append(_entry(
                        S, D, "claim_boh", f"interior onset bound {bb} beyond m_max", ground))
                else:
                    out.discrepancies.append(_entry(
                        S, D, "claim_boh", "big but no tail of big integral parts", ground))
            if (not ground) and m0 is not None:
                out.discrepancies.append(_entry(
                    S, D, "claim_boh", f"not big yet [mD] big for all m >= {m0}", ground))

            fb = pos.first_big_multiple(S, ev)
            if ground and fb is None:
                bb = boh_bound(S, D)
                if bb is None or bb > config.m_max:
                    out.inconclusives.append(_entry(
                        S, D, "boh_some_multiple", f"onset bound {bb} beyond m_max", ground))
                else:
                    out.discrepancies.append(_entry(
                        S, D, "boh_some_multiple", "big but no big integral multiple", ground))
            if (not ground) and fb is not None:
                out.discrepancies.append(_entry(
                    S, D, "boh_some_multiple", f"[{fb}D] big though D is not", ground))

            kodaira_all = True
            kodaira_inconclusive = False
            for F in catalog:
                mF = pos.kodaira_check(S, ev, F, require_big=False)
                if mF is None:
                    kodaira_all = False
                    kb = kodaira_bound(S, D, F)
                    if ground and (kb is None or kb > config.m_max):
                        kodaira_inconclusive = True
            if ground and not kodaira_all:
                if kodaira_inconclusive:
                    out.inconclusives.append(_entry(
                        S, D, "kodaira", "kodaira onset beyond m_max for some F", ground))
                else:
                    out.discrepancies.append(_entry(
                        S, D, "kodaira", "big but twisted-down sections missing", ground))
            if (not ground) and kodaira_all:
                out.discrepancies.append(_entry(
                    S, D, "kodaira", "sections survive every F though D is not big", ground))

            if ground and D.is_rational() and len(big_rational_samples) < 3 \
                    and config.fault is None:
                big_rational_samples.append(D)

        # big + s * effective stays big, including irrational s
        sqrt_d = 2
        spot = []
        for B in big_rational_samples:
            for F in catalog:
                N = RDivisor({lbl: c for lbl, c in zip(S.basis, F.coords)})
                for s in (QuadExt(Fraction(1, 3)), QuadExt(0, 1, sqrt_d), QuadExt(2)):
                    cand = B + N.scaled(s)
                    res = pos.is_big(S, cand)
                    spot.append({
                        "surface": S.name,
                        "base": format_divisor(B),
                        "effective": S.format_z(F),
                        "s": format_quadext(s),
                        "big": res.big,
                    })
                    if not res.big:
                        out.discrepancies.append(_entry(
                            S, cand, "re_bqr",
                            f"B + sN not big for s={format_quadext(s)}", True))
        out.replications.setdefault("bqr_spot_checks", []).extend(spot)
    return out


# ---------------------------------------------------------------------------
# named replication of the ruled-surface counterexample


def replicate_example_es_nna(e_list: Sequence[int]) -> dict:
    """For each e: [D] very ample, D.C0 = 1 - e/2 <= 0, D not ample,
    with D = (3/2) C0 + (e+1) f on the ruled surface of invariant e.
    """
    from divpos.surface import hirzebruch

    rows = []
    all_ok = True
    for e in e_list:
        if e < 2:
            raise InvalidInput(f"the counterexample needs e >= 2, got {e}")
        S = hirzebruch(e)
        D = RDivisor({"C0": Fraction(3, 2), "f": e + 1})
        intD = integral_part(D, S.basis)
        va = S.require_very_ample()(intD)
        pairing = pos.intersect(S, D, "C0")
        expected = QuadExt(1 - Fraction(e, 2))
        ample, _ = pos.is_ample_cone(S, D)
        ok = va and pairing == expected and pairing.sign() <= 0 and not ample
        all_ok = all_ok and ok
        rows.append({
            "e": e,
            "divisor": format_divisor(D),
            "integral_part": list(intD.coords),
            "very_ample_integral_part": va,
            "pairing_with_C0": format_quadext(pairing),
            "expected_pairing": format_quadext(expected),
            "ample": ample,
            "ok": ok,
        })
    return {"example": "ruled-surface counterexample", "ok": all_ok, "cases": rows}
