"""Seeded audit suites tying every criterion to the ground-truth oracles.

``run_audit`` samples divisors deterministically and evaluates each once;
every suite reads that one evaluation, runs its criteria, and classifies
every (divisor, criterion) pair as agreement, discrepancy, or
inconclusive.  The classification follows the one-sided nature of the
bounded searches:

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

import dataclasses
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, Optional, Sequence

import divpos.positivity as pos
from divpos.divisor import (
    RDivisor,
    ZDivisor,
    format_divisor,
    integral_part,
    integrality_denominator,
)
from divpos.errors import ConfigError, InvalidInput
from divpos.exact_numbers import QuadExt, _as_fraction, format_quadext, sqrt_of, weyl_find
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
        for name in ("seed", "n_divisors", "m_max"):
            _require_int(name, getattr(self, name))
        if not isinstance(self.surfaces, (list, tuple)) or \
                not all(isinstance(s, str) for s in self.surfaces):
            raise ConfigError(f"surfaces must be a list of strings, got {self.surfaces!r:.60}")
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        if self.n_divisors < 1:
            raise ConfigError("n_divisors must be >= 1")
        if not 10 <= self.m_max <= pos.M_MAX_LIMIT:
            raise ConfigError(f"m_max must be in [10, {pos.M_MAX_LIMIT}], got {self.m_max}")
        if not self.surfaces:
            raise ConfigError("surfaces must name at least one surface")
        if not isinstance(self.profile, dict):
            raise ConfigError(f"profile must be an object, got {self.profile!r:.60}")
        kind = _profile_kind(self.profile)
        body = self.profile[kind]
        if not isinstance(body, dict):
            raise ConfigError(f"profile.{kind} must be an object, got {body!r:.60}")
        for key, least, required in PROFILE_FIELDS[kind]:
            if key not in body and not required:
                continue
            value = body.get(key, 0)
            _require_int(f"profile.{kind}.{key}", value)
            if value < least:
                raise ConfigError(f"profile.{kind}.{key} must be >= {least}")
        # check_digits' worst case on a sampled divisor, whatever the rank: the numerator
        # (or height times sqrt(d)) times the lcm of every allowed denominator
        q, w = 1, body.get("max_denominator", 4)
        while w and not pos.too_long(q):
            q, w = lcm(q, w), w - 1
        num = "max_numerator" if kind == "rational" else "height"
        top = body[num] * (isqrt(body["d"]) if kind == "quadratic" else 1) * q
        for key, n in (("max_denominator", q), (num, top)):
            if pos.too_long(n):
                raise ConfigError(f"profile.{kind}.{key}: a sampled divisor's prime coefficients "
                                  f"over their common denominator could have more than "
                                  f"{pos.DIVISOR_DIGITS} digits")
        if self.delta is not None and self.delta <= 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.fault not in (None, "flip_cone", "flip_ratio", "flip_gg"):
            raise ConfigError(f"unknown fault {self.fault!r:.60}")

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


def _require_int(name: str, value) -> None:
    """Refuse anything but an integer (a JSON number with a fraction, a string or a bool)."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r:.60}")


# per profile kind: each integer field, its least value and whether it is
# required (sample_divisor defaults the quadratic max_denominator to 4)
PROFILE_FIELDS = {
    "rational": (("max_numerator", 1, True), ("max_denominator", 1, True)),
    "quadratic": (("d", 2, True), ("height", 1, True), ("max_denominator", 1, False)),
}


def _profile_kind(profile: dict) -> str:
    kinds = [k for k in ("rational", "quadratic") if k in profile]
    if len(kinds) != 1:
        raise ConfigError("profile must contain exactly one of 'rational' or 'quadratic'")
    return kinds[0]


def config_from_dict(data: dict) -> AuditConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be an object, got {data!r:.60}")
    for fieldname in ("seed", "surfaces", "n_divisors", "profile"):
        if fieldname not in data:
            raise ConfigError(f"config lacks field {fieldname!r}")
    return AuditConfig(
        seed=data["seed"],
        surfaces=data["surfaces"],
        n_divisors=data["n_divisors"],
        profile=data["profile"],
        m_max=data.get("m_max", 200),
        twists=_config_twists(data.get("twists")),
        delta=_config_delta(data.get("delta")),
        fault=data.get("fault"),
    )


def _config_twists(twists) -> Optional[tuple[tuple[int, ...], ...]]:
    """A config's twists: a list of lists of integers; None or [] for the default catalog."""
    if twists is None:
        return None
    if not isinstance(twists, list) or not all(
            isinstance(t, list) and all(type(x) is int for x in t) for t in twists):
        raise ConfigError(f"twists must be a list of lists of integers, got {twists!r:.60}")
    return tuple(map(tuple, twists)) or None


def _config_delta(delta) -> Optional[Fraction]:
    """A config's delta: a string or an integer giving an exact rational."""
    if delta is None:
        return None
    if type(delta) is int or isinstance(delta, str):
        try:
            return _as_fraction(delta)
        except InvalidInput as exc:
            raise ConfigError(f"delta: {exc}") from None
    raise ConfigError(f"delta must be a string or an integer giving an exact rational, "
                      f"got {delta!r:.60}")


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
    root = sqrt_of(body["d"]) if kind == "quadratic" else None  # one square-free split per call
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
                coef = a + b * root
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
# the audit loop

SUITES = ("ampleness", "nef_from_multiples", "bigness")


@dataclass
class SurfaceAudit:
    """What the suites read of one surface, derived once per surface by run_audit."""

    surface: SurfaceModel
    safe_delta: Fraction           # safe_delta(surface, profile), read by the QX judge
    delta: Fraction                # the ampleness reports' neighborhood radius
    twists: list[ZDivisor]         # the ampleness reports' twist catalog
    catalog: list[ZDivisor]        # the bigness suite's effective catalog
    keep_reports: bool
    weyl_divisors: list[RDivisor] = field(default_factory=list)  # nef: the first ten
    big_rational: list[RDivisor] = field(default_factory=list)   # bigness: up to three


def run_audit(config: AuditConfig, suites: Sequence[str] = SUITES,
              keep_reports: bool = False) -> list[AuditOutcome]:
    """One outcome per named suite, in the order named, over config's sampled divisors.

    Each surface is resolved once and its safe radius, delta, twists,
    effective catalog and sampler are made once; each divisor is sampled
    once and its one Evaluation is handed to every suite.  After the divisors come the
    per-surface checks: nef's Weyl sub-check and bigness's B + sN spot checks.
    """
    if not set(suites) <= set(SUITES) or len(set(suites)) < len(suites):
        raise ConfigError(f"suites must be distinct names from {list(SUITES)}, "
                          f"got {list(suites)!r:.60}")
    outcomes = [AuditOutcome(suite=name, config=config) for name in suites]
    for ident in config.surfaces:
        S = resolve_surface(ident)
        safe = safe_delta(S, config.profile)
        site = SurfaceAudit(
            S, safe, config.delta if config.delta is not None else min(Fraction(1, 1000), safe),
            [ZDivisor(t) for t in config.twists] if config.twists else pos.default_twists(S),
            pos.default_effective_catalog(S), keep_reports)
        rng = SplitMix64(config.seed)
        for _ in range(config.n_divisors):
            ev = pos.Evaluation(S, sample_divisor(S, config.profile, rng), config.m_max)
            for name, out in zip(suites, outcomes):
                # looked up per call, so a suite is found under whatever binds its name now
                globals()["audit_" + name](site, ev, out)
                out.checked += 1
        for name, out in zip(suites, outcomes):
            if name == "nef_from_multiples":
                _weyl_checks(S, site.weyl_divisors, out)
            elif name == "bigness":
                _bqr_spot_checks(S, site.catalog, site.big_rational, out)
    return outcomes


# ---------------------------------------------------------------------------
# ampleness audit


# The criteria the ampleness audit judges, per profile, in the order of its entries.
# Each id is judged by its base, pos._ALIASES.get(id, id): QVI..QX are exact, QI and
# QII proxies, QIII..QV tails.  In the quadratic profile an id that is its own base
# (QI, QIII, QIV, QV) is one of the one-directional properties (a)-(d).
_AMPLENESS_CRITERIA = {
    "rational": ("QI", "QII", "QIII", "QIV", "QV", "QVI", "QVII", "QVIII", "QIX", "QX"),
    "quadratic": ("Ri", "Rii", "Riii", "Riv", "Rv", "Rvi", "QI", "QIII", "QIV", "QV"),
}


def _classify_ampleness(site: SurfaceAudit, ev: pos.Evaluation, report: pos.PositivityReport,
                        out: AuditOutcome) -> None:
    """Classify each verdict of D's report; bounds are read from D's evaluation ev."""
    S, D, m_max = site.surface, ev.divisor, out.config.m_max
    kind = _profile_kind(out.config.profile)
    ground = report.ground_truth
    k = integrality_denominator(D, S.basis) if D.is_rational() else None

    def flag(entries: list, cid: str, detail: str) -> None:
        entries.append(_entry(S, D, cid, detail, ground))

    for cid in _AMPLENESS_CRITERIA[kind]:
        v, base = report.verdicts[cid], pos._ALIASES.get(cid, cid)
        one_directional = kind == "quadratic" and cid == base  # claimed for ample D only
        if base in ("QI", "QII"):
            if v.holds is True and not ground and not one_directional:
                flag(out.inconclusives, cid,
                     "witness found; twist catalog cannot refute non-ampleness")
            elif v.holds is False and ground:  # conclusive absence below a valid onset bound
                flag(out.discrepancies, cid,
                     f"no witness though onset bound {v.witness.get('onset_bound')} <= m_max")
            elif v.holds is None and ground:
                flag(out.inconclusives, cid,
                     f"no witness up to m_max={m_max}; no effective bound")
        elif base in ("QIII", "QIV", "QV"):
            # the verdict comes from the cone decision; the scans cross-check it
            if one_directional and not ground:
                continue
            if v.conclusive and v.holds != ground:
                flag(out.discrepancies, cid,
                     f"tail decision {v.holds} contradicts cone oracle {ground}")
            elif base == "QIII":
                all_from, bound = v.witness.get("all_from"), ev.onset("very_ample")
                if ground and all_from is None and bound is not None and bound <= m_max:
                    flag(out.discrepancies, cid,
                         f"very-ample tail missing though onset bound {bound} applies")
                if not ground and all_from is not None and k is not None \
                        and m_max - all_from >= k:
                    flag(out.discrepancies, cid, f"very-ample tail from {all_from} covers "
                         f"a full period k={k} yet the divisor is not ample")
            elif base == "QIV":
                m4 = v.witness.get("scan_m4")
                bound = pos._max_bound([ev.onset("very_ample"), ev.onset("h0_positive")])
                if ground and m4 is None and bound is not None and bound <= m_max:
                    flag(out.discrepancies, cid,
                         f"section-vanishing tail missing though bound {bound} applies")
                if not ground and m4 is not None and k is not None and m_max - m4 >= k:
                    flag(out.discrepancies, cid,
                         "section-vanishing tail covers a full period yet not ample")
        elif v.holds != ground:  # exact
            if base == "QX" and report.delta > site.safe_delta:
                flag(out.inconclusives, cid,
                     f"delta {report.delta} above safe radius {site.safe_delta}")
            else:
                flag(out.discrepancies, cid,
                     f"exact criterion returned {v.holds}, cone oracle says {ground}")


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


def audit_ampleness(site: SurfaceAudit, ev: pos.Evaluation, out: AuditOutcome) -> None:
    """Judge one divisor's report against the cone oracle and re-verify its witnesses."""
    S, D, fault = site.surface, ev.divisor, out.config.fault
    if fault == "flip_gg":   # the report is built on the changed surface
        gg = S.require_globally_generated()
        ev = pos.Evaluation(dataclasses.replace(S, globally_generated=lambda V: not gg(V)),
                            D, ev.m_max)
    report = pos.build_report(ev.surface, ev, delta=site.delta, twists=site.twists)
    if fault == "flip_cone":
        report = dataclasses.replace(report, ground_truth=not report.ground_truth)
    elif fault == "flip_ratio":
        v = report.verdicts["QVIII"]
        report = dataclasses.replace(report, verdicts={
            **report.verdicts, "QVIII": dataclasses.replace(v, holds=not v.holds)})
    _classify_ampleness(site, ev, report, out)
    _reverify_report(S, D, report, out)
    if site.keep_reports:
        out.reports.append(report)


# ---------------------------------------------------------------------------
# nef-from-multiples audit


def audit_nef_from_multiples(site: SurfaceAudit, ev: pos.Evaluation, out: AuditOutcome) -> None:
    """Tail of very-ample integral parts forces nef (and ample on rank-2 cones)."""
    S, D = site.surface, ev.divisor
    if len(site.weyl_divisors) < 10:
        site.weyl_divisors.append(D)
    scan = pos.very_ample_multiples(S, ev, onset=ev.tail_start("very_ample"),
                                    first=ev.first_member("very_ample"))
    window = (integrality_denominator(D, S.basis) if D.is_rational() else 50)
    if scan.all_from is None or out.config.m_max - scan.all_from < window:
        return
    nef_ok, bad = pos.is_nef(S, ev)
    if not nef_ok:
        out.discrepancies.append(_entry(
            S, D, "claim_3nef",
            f"very-ample tail from {scan.all_from} but D.{bad} < 0", None))
    amp_ok, bad2 = pos.is_ample_cone(S, ev)
    if not amp_ok:
        out.discrepancies.append(_entry(
            S, D, "remark_surface",
            f"very-ample tail from {scan.all_from} but not ample (fails {bad2})",
            None))


WEYL_K_MAX = 10**5   # the most k the Weyl sub-check tries per coefficient and pairing


def _weyl_checks(S: SurfaceModel, divisors: list[RDivisor], out: AuditOutcome) -> None:
    """Weyl sub-check on a surface's first ten divisors.

    Fractional parts of irrational coefficients get arbitrarily small
    against any negative component pairing.  A pair with no k up to
    WEYL_K_MAX is logged inconclusive, naming the coefficient and the pairing.
    """
    weyl_checks = []
    for D in divisors:
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
                    try:
                        k_found = weyl_find(coef, Fraction(1, mag), 1, k_max=WEYL_K_MAX)
                    except InvalidInput:   # no k within the cap
                        out.inconclusives.append(_entry(
                            S, D, "weyl_principle", f"no k <= {WEYL_K_MAX} with frac(k*("
                            f"{format_quadext(coef)}))*{mag} < 1; pairing {pairing}", None))
                        continue
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


# ---------------------------------------------------------------------------
# bigness audit


def _judge_one_sided(out: AuditOutcome, S: SurfaceModel, D: RDivisor, ground: bool,
                     m_max: int, check: str, holds: bool, bound: Callable[[], Optional[int]],
                     unproved: str, missed: str, spurious: str) -> None:
    """The rule of the one-sided bigness checks.

    Agreement with the ground truth records nothing.  A check that misses
    a big D is inconclusive unless its onset bound, called only then, is
    at most m_max; the unproved detail formats that bound.  Every other
    disagreement is a discrepancy, detailed as missed or spurious.
    """
    if holds == ground:
        return
    if ground:
        onset = bound()
        if onset is None or onset > m_max:
            out.inconclusives.append(_entry(S, D, check, unproved.format(onset), ground))
            return
    out.discrepancies.append(_entry(S, D, check, missed if ground else spurious, ground))


def audit_bigness(site: SurfaceAudit, ev: pos.Evaluation, out: AuditOutcome) -> None:
    """Judge the one-sided bigness checks of one divisor against the effective-cone oracle."""
    S, D, m_max = site.surface, ev.divisor, out.config.m_max
    ground = pos.is_big(S, ev).big
    if out.config.fault == "flip_cone":
        ground = not ground

    # a bound is asked for only when ground says D is big.  For a big D the slopes
    # on the first pieces of the big and h0_positive regions are D's positive
    # coordinates, so onset_bound is sound; for one that is not (flip_cone) each
    # bound is None.  The growth bound is observed, not proved: the tests
    # brute-force B2 from 32 times the big onset on the built-ins
    def growth_onset() -> Optional[int]:
        onset = ev.onset("big")
        return None if onset is None else 32 * onset

    growth = pos.big_growth_check(S, ev)
    detail = f"growth test {growth.passed} vs bigness {ground}"
    _judge_one_sided(out, S, D, ground, m_max, "lem_b1_growth", growth.passed, growth_onset,
                     f"growth onset bound {{}} beyond m_max={m_max}", detail, detail)

    m0 = pos.claim_boh_check(S, ev)
    _judge_one_sided(out, S, D, ground, m_max, "claim_boh", m0 is not None,
                     lambda: ev.onset("big"), "interior onset bound {} beyond m_max",
                     "big but no tail of big integral parts",
                     f"not big yet [mD] big for all m >= {m0}")

    fb = pos.first_big_multiple(S, ev, first=ev.first_member("big"))
    _judge_one_sided(out, S, D, ground, m_max, "boh_some_multiple", fb is not None,
                     lambda: ev.onset("big"), "onset bound {} beyond m_max",
                     "big but no big integral multiple", f"[{fb}D] big though D is not")

    missing = [F for F in site.catalog
               if pos.kodaira_check(S, ev, F) is None]
    _judge_one_sided(out, S, D, ground, m_max, "kodaira", not missing,
                     lambda: pos._max_bound(ev.onset("h0_positive", -F) for F in missing),
                     "kodaira onset beyond m_max for some F",
                     "big but twisted-down sections missing",
                     "sections survive every F though D is not big")

    if ground and D.is_rational() and len(site.big_rational) < 3 \
            and out.config.fault is None:
        site.big_rational.append(D)


def _bqr_spot_checks(S: SurfaceModel, catalog: list[ZDivisor], big_rational: list[RDivisor],
                     out: AuditOutcome) -> None:
    """Big + s * effective stays big, including irrational s, on up to three big rational B."""
    spot = out.replications.setdefault("bqr_spot_checks", [])
    if not big_rational:
        return
    scales = [(s, format_quadext(s))
              for s in (QuadExt(Fraction(1, 3)), QuadExt(0, 1, 2), QuadExt(2))]
    effective = [(RDivisor(dict(zip(S.basis, F.coords))), S.format_z(F)) for F in catalog]
    for B in big_rational:
        base = format_divisor(B)
        for N, n_text in effective:
            for s, s_text in scales:
                cand = B + N.scaled(s)
                res = pos.is_big(S, cand)
                spot.append({
                    "surface": S.name,
                    "base": base,
                    "effective": n_text,
                    "s": s_text,
                    "big": res.big,
                })
                if not res.big:
                    out.discrepancies.append(_entry(
                        S, cand, "re_bqr", f"B + sN not big for s={s_text}", True))


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
            raise InvalidInput(f"the counterexample needs e >= 2, got {e!s:.60}")
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
