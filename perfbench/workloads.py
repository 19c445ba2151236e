"""Workload inputs, the independent reference classifier and the output checks.

Each workload owns a fixed pool of operations.  An operation is one
``divpos`` command line; its stdout is checked and its digest compared
with the committed golden digest of that pool item.  The run seed picks
the order in which the pool is consumed, so the same seed gives the same
inputs.  A run goes through the pool in whole passes, so every run
times the same mix of inputs and a seed changes only their order.

Nothing here uses ``QuadExt``: the reference decides signs of
``(p + q*sqrt(d)) / r`` with plain integer arithmetic.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

AUDIT_SURFACES = ("hirzebruch:2", "p2")
AUDIT_N_DIVISORS = 1
AUDIT_M_MAX = 200
AUDIT_SUITES = ["ampleness", "nef_from_multiples", "bigness"]
RATIONAL_PROFILE = "rational:30/12"
QUADRATIC_PROFILES = ("quadratic:2:10", "quadratic:1000003:10")

CHECK_SURFACES = ("hirzebruch:0", "hirzebruch:1", "hirzebruch:2", "hirzebruch:3", "p2")
CHECK_M_MAX = 2000
CHECK_RADICANDS = (2, 3, 5)

# Operations per pass over a workload's pool: the latency percentiles are
# taken over the pool's inputs, and p90 needs ten of them beyond it.
POOL_OPS = 100


@dataclass(frozen=True)
class Op:
    """One command line of a workload and what its output must satisfy."""

    key: str                      # golden-table key of the pool item
    argv: tuple[str, ...]
    divisors: int                 # divisors decided when the op succeeds
    check: Callable[[dict], Optional[str]]   # parsed JSON -> error text or None


# -- integer reference -------------------------------------------------------

# A coefficient is (p, q, r) meaning (p + q*sqrt(d)) / r with r > 0; the
# radicand d is shared by the whole divisor (0 for rational divisors).


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def sign_coef(c: tuple[int, int, int], d: int) -> int:
    """Exact sign of (p + q*sqrt(d)) / r for a non-square d (or d = 0)."""
    p, q, _ = c
    if q == 0 or d == 0:
        return _sgn(p)
    sp, sq = _sgn(p), _sgn(q)
    if sp == 0 or sp == sq:
        return sq if sp == 0 else sp
    lhs, rhs = p * p, q * q * d
    return sp if lhs > rhs else sq


def add_coef(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    return (x[0] * y[2] + y[0] * x[2], x[1] * y[2] + y[1] * x[2], x[2] * y[2])


def scale_coef(x: tuple[int, int, int], n: int) -> tuple[int, int, int]:
    return (n * x[0], n * x[1], x[2])


def reference_verdict(surface: str, coeffs: tuple, d: int) -> tuple[bool, bool]:
    """(ample, big) of a divisor by the closed-form cone descriptions.

    On F_e, a*C0 + b*f is ample iff a > 0 and b > e*a, and big iff
    a > 0 and b > 0.  On P^2, c*L is ample iff big iff c > 0.
    """
    if surface == "p2":
        (c,) = coeffs
        pos = sign_coef(c, d) > 0
        return pos, pos
    e = int(surface.split(":", 1)[1])
    a, b = coeffs
    a_pos = sign_coef(a, d) > 0
    ample = a_pos and sign_coef(add_coef(b, scale_coef(a, -e)), d) > 0
    big = a_pos and sign_coef(b, d) > 0
    return ample, big


def format_coef(c: tuple[int, int, int], d: int) -> str:
    p, q, r = c
    if q == 0:
        return f"{p}/{r}"
    return f"{p}/{r}{'+' if q > 0 else '-'}{abs(q)}/{r}*sqrt({d})"


def format_divisor_text(labels: tuple[str, ...], coeffs: tuple, d: int) -> str:
    return " + ".join(f"({format_coef(c, d)})*{lbl}" for lbl, c in zip(labels, coeffs))


# -- output checks -----------------------------------------------------------


def check_report(data: dict, surface: str, ample: bool, big: bool) -> Optional[str]:
    """Reference verdicts, round trip through report_from_json_dict, v1 fields."""
    from divpos.positivity import report_from_json_dict

    if data.get("schema_version") != "v1" or data.get("surface") != surface:
        return "wrong schema_version or surface"
    if data.get("m_max") != CHECK_M_MAX:
        return f"m_max {data.get('m_max')} != {CHECK_M_MAX}"
    if data["ground_truth"] is not ample:
        return f"ground_truth {data['ground_truth']} but reference says ample={ample}"
    if data["verdicts"]["B1"]["holds"] is not big:
        return f"B1 {data['verdicts']['B1']['holds']} but reference says big={big}"
    if report_from_json_dict(data).to_json_dict() != data:
        return "report does not round-trip through report_from_json_dict"
    return None


def check_audit(data: dict, profile: str, audit_seed: int) -> Optional[str]:
    """No discrepancies, the requested checked count, all three suites."""
    if data.get("schema_version") != "v1":
        return "wrong schema_version"
    outcomes = data["outcomes"]
    if [o["suite"] for o in outcomes] != AUDIT_SUITES:
        return f"suites {[o['suite'] for o in outcomes]}"
    want = AUDIT_N_DIVISORS * len(AUDIT_SURFACES)
    for o in outcomes:
        if o["n_discrepancies"] != 0:
            return f"suite {o['suite']}: {o['n_discrepancies']} discrepancies"
        if o["checked"] != want:
            return f"suite {o['suite']}: checked {o['checked']} != {want}"
        if o["config"]["seed"] != audit_seed:
            return f"suite {o['suite']}: seed {o['config']['seed']} != {audit_seed}"
    if profile.startswith("quadratic:"):
        d = int(profile.split(":")[1])
        if outcomes[0]["config"]["profile"]["quadratic"]["d"] != d:
            return "wrong quadratic profile"
    return None


def decided(data: dict, workload: str) -> tuple[int, int]:
    """(conclusive, total) verdicts of one op's output, for decided_frac.

    A check counts its non-alias verdicts; an audit counts checked
    divisors and subtracts the inconclusive entries.
    """
    if workload == "check-deep":
        own = [v for v in data["verdicts"].values() if not v.get("same_as")]
        return sum(1 for v in own if v["conclusive"]), len(own)
    checked = sum(o["checked"] for o in data["outcomes"])
    inconclusive = sum(o["n_inconclusive"] for o in data["outcomes"])
    return checked - inconclusive, checked


def digest(text: str) -> str:
    """Golden digest of one op's stdout: the first 16 hex digits of sha256."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- pools -------------------------------------------------------------------


def _audit_op(profile: str, audit_seed: int) -> Op:
    argv = ("audit", "--suite", "all", "--format", "json",
            *(x for s in AUDIT_SURFACES for x in ("--surface", s)),
            "--profile", profile, "--m-max", str(AUDIT_M_MAX),
            "--seed", str(audit_seed), "--n-divisors", str(AUDIT_N_DIVISORS))
    return Op(
        key=f"{profile}/{audit_seed}",
        argv=argv,
        divisors=len(AUDIT_SUITES) * len(AUDIT_SURFACES) * AUDIT_N_DIVISORS,
        check=lambda data: check_audit(data, profile, audit_seed),
    )


def _random_coef(rng: random.Random, d: int, positive: bool = False) -> tuple[int, int, int]:
    while True:
        c = (rng.randint(-12, 12), rng.randint(-6, 6) if d else 0, rng.randint(1, 4))
        s = sign_coef(c, d)
        if s > 0 or (s != 0 and not positive):
            return c


def check_divisor(k: int) -> tuple[str, tuple, int]:
    """Pool item k of check-deep: (surface, coefficients, radicand).

    F_e divisors are ample, arbitrary, on the nef boundary b = e*a, or
    the paper's family (3/2)C0 + (e+1)f; half of them are rational and
    half lie in Q(sqrt(d)) for d in {2, 3, 5}.
    """
    rng = random.Random(f"check-deep/{k}")
    surface = rng.choice(CHECK_SURFACES)
    d = rng.choice(CHECK_RADICANDS) if rng.random() < 0.5 else 0
    if surface == "p2":
        return surface, (_random_coef(rng, d),), d
    e = int(surface.split(":", 1)[1])
    kind = rng.choices(("ample", "any", "boundary", "paper"), (7, 7, 3, 3))[0]
    if kind == "paper":
        return surface, ((3, 0, 2), (e + 1, 0, 1)), 0
    if kind == "any":
        return surface, (_random_coef(rng, d), _random_coef(rng, d)), d
    a = _random_coef(rng, d, positive=True)
    b = scale_coef(a, e)
    if kind == "ample":
        b = add_coef(b, _random_coef(rng, d, positive=True))
    return surface, (a, b), d


def _check_op(k: int) -> Op:
    surface, coeffs, d = check_divisor(k)
    labels = ("L",) if surface == "p2" else ("C0", "f")
    text = format_divisor_text(labels, coeffs, d)
    ample, big = reference_verdict(surface, coeffs, d)
    argv = ("check", "--format", "json", "--m-max", str(CHECK_M_MAX),
            "--surface", surface, f"--divisor={text}")
    return Op(key=str(k), argv=argv, divisors=1,
              check=lambda data: check_report(data, surface, ample, big))


def pool(workload: str) -> list[list[Op]]:
    """The workload's pool as groups of ops that always run together, in order."""
    if workload == "audit-rational":
        return [[_audit_op(RATIONAL_PROFILE, s)] for s in range(POOL_OPS)]
    if workload == "audit-quadratic":
        # each audit seed runs once per radicand, so the mix stays 1:1
        return [[_audit_op(p, s) for p in QUADRATIC_PROFILES] for s in range(POOL_OPS // 2)]
    if workload == "check-deep":
        return [[_check_op(k)] for k in range(POOL_OPS)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("audit-rational", "audit-quadratic", "check-deep")


def stream(workload: str, seed: int) -> tuple[list[Op], list[Op]]:
    """(warm-up ops, one pass over the pool) for a run seed.

    The seed shuffles the pool; the pass runs it in that order and the
    last two groups of it also warm the process up.
    """
    groups = pool(workload)
    random.Random(seed).shuffle(groups)
    warm = [op for g in groups[-2:] for op in g]
    return warm, [op for g in groups for op in g]
