"""Command-line entry point.

Subcommands: check (full criterion report for one divisor), audit
(seeded suites), counterexample (the ruled-surface replication),
semigroup (N(X, D) up to m_max), growth (chi and h0 tables).

Exit codes: 0 success / no discrepancies, 2 audit discrepancies or a
failed replication, 3 parse or config errors (the diagnostic names the
offending field).  DIVPOS_M_MAX overrides the default search bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable

from divpos import auditor
from divpos import positivity as pos
from divpos.divisor import divisor_from_spec, format_divisor, parse_divisor
from divpos.errors import DivposError, InvalidInput
from divpos.exact_numbers import _as_fraction
from divpos.surface import load_json, resolve_surface


def _default_m_max() -> int:
    raw = os.environ.get("DIVPOS_M_MAX")
    if raw is None:
        return 200
    try:
        v = int(raw)
    except ValueError:
        raise DivposError(f"DIVPOS_M_MAX: not an integer: {raw!r:.60}") from None
    if not 10 <= v <= pos.M_MAX_LIMIT:
        raise DivposError(f"DIVPOS_M_MAX: must be in [10, {pos.M_MAX_LIMIT}], got {v}")
    return v


def _delta(text: str) -> Fraction:
    """--delta as a positive exact rational, its digits bounded as a coefficient's are."""
    try:
        value = _as_fraction(text)
    except InvalidInput as exc:
        raise DivposError(f"--delta: {exc}") from None
    if value <= 0:
        raise DivposError(f"--delta: must be positive, got {value}")
    return value


def _profile(text: str) -> dict:
    """rational:<num>/<den> or quadratic:<d>[:<height>] as an audit profile."""
    kind, _, body = text.partition(":")
    try:
        if kind == "rational":
            num, den = body.split("/")
            return auditor.rational_profile(int(num), int(den))
        if kind == "quadratic":
            d, *height = body.split(":")
            if len(height) <= 1:
                return auditor.quadratic_profile(int(d), int(height[0]) if height else 10)
    except ValueError:
        pass
    raise DivposError(
        f"--profile: expected rational:<num>/<den> or quadratic:<d>[:<height>], got {text!r:.60}")


def _load_divisor(arg: str):
    if arg.startswith("@"):
        return divisor_from_spec(load_json(arg[1:], "--divisor"))
    return parse_divisor(arg)


def _evaluation(args, S) -> pos.Evaluation:
    """--divisor on S up to --m-max, refused past the digit bound of an input divisor."""
    return pos.check_digits(pos.Evaluation(S, _load_divisor(args.divisor), args.m_max),
                            "--divisor")


_LITERALS = {True: "true", False: "false", None: "null"}


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, built in one list.

    CPython's C encoder runs only without indent, so _lay_out's recursion over
    dicts (keys sorted), lists and tuples, subclasses included, lays the
    indented shape out itself.  str, int, bool and None leaves are written
    inline; any other leaf or key goes through json.dumps, so a float formats as
    json's and an unsupported type raises json's TypeError.
    """
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    parts: list[str] = []
    _lay_out(obj, "\n", parts.append)
    return "".join(parts)


def _lay_out(o, nl: str, put) -> None:
    """Put the pieces of container o; nl is the newline and indent of its closing bracket.

    A module-level function, not a closure: a nested function that calls itself is a
    reference cycle, which would keep every output's pieces alive until a full
    garbage collection.
    """
    if not o:
        put("{}" if isinstance(o, dict) else "[]")
        return
    inner = nl + "  "
    comma = "," + inner
    sep = ("{" if isinstance(o, dict) else "[") + inner
    # The dict and list loops each write a scalar inline: a call per leaf costs
    # about a tenth more, one loop over (key, value) pairs for both a few percent.
    if isinstance(o, dict):
        for k, v in sorted(o.items()):
            put(sep + (encode_basestring_ascii(k) if type(k) is str
                       else json.dumps({k: None})[1:-7]) + ": ")
            sep = comma
            t = type(v)
            if t is str:
                put(encode_basestring_ascii(v))
            elif t is int:
                put(int.__repr__(v))
            elif t is bool or v is None:
                put(_LITERALS[v])
            elif isinstance(v, (dict, list, tuple)):
                _lay_out(v, inner, put)
            else:
                put(json.dumps(v))
        put(nl + "}")
    elif all(type(v) is int for v in o):   # a semigroup's members: one join, no loop
        put(sep + comma.join(map(int.__repr__, o)) + nl + "]")
    else:
        for v in o:
            put(sep)
            sep = comma
            t = type(v)
            if t is str:
                put(encode_basestring_ascii(v))
            elif t is int:
                put(int.__repr__(v))
            elif t is bool or v is None:
                put(_LITERALS[v])
            elif isinstance(v, (dict, list, tuple)):
                _lay_out(v, inner, put)
            else:
                put(json.dumps(v))
        put(nl + "]")


def _emit(args, payload: dict, human: Callable[[], list[str]]) -> None:
    """Write payload as JSON, or the lines human() makes, called for --format human only."""
    text = _dumps(payload) if args.format == "json" else "\n".join(human())
    if not args.output:
        print(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DivposError(f"--output: cannot write {args.output!r:.60} ({exc.strerror})") from None


def cmd_check(args) -> int:
    S = resolve_surface(args.surface)
    report = pos.build_report(S, _evaluation(args, S), delta=_delta(args.delta))

    def human() -> list[str]:
        lines = [
            f"surface: {S.name}",
            f"divisor: {format_divisor(report.divisor)}",
            f"ground truth (cone criterion): {'ample' if report.ground_truth else 'not ample'}",
            "",
            f"{'criterion':<10} {'holds':<13} witness / note",
        ]
        for cid, v in sorted(report.verdicts.items()):
            if v.same_as:
                continue  # aliases add no information to the table
            holds = {True: "yes", False: "no", None: "inconclusive"}[v.holds]
            if not v.conclusive and v.holds is not None:
                holds += "*"
            wit = ", ".join(f"{k}={vv}" for k, vv in list(v.witness.items())[:3])
            lines.append(f"{cid:<10} {holds:<13} {wit}"[:120])
        lines.append("")
        lines.append("(*: witness up to m_max only; aliases P2..P11/Ri..Rvi mirror QI..QX)")
        return lines

    _emit(args, report.to_json_dict(), human)
    return 0


def _config_from_args(args) -> auditor.AuditConfig:
    if args.config:
        return auditor.config_from_dict(load_json(args.config, "--config"))
    return auditor.AuditConfig(
        seed=args.seed,
        surfaces=tuple(args.surface),
        n_divisors=args.n_divisors,
        profile=_profile(args.profile),
        m_max=args.m_max,
        delta=_delta(args.delta) if args.delta else None,
        fault=args.fault,
    )


def cmd_audit(args) -> int:
    suites = auditor.SUITES if args.suite == "all" else [
        {"nef": "nef_from_multiples"}.get(args.suite, args.suite)]
    outcomes = auditor.run_audit(_config_from_args(args), suites,
                                 keep_reports=args.format == "json" and args.full_reports)
    payload = {
        "schema_version": "v1",
        "outcomes": [o.to_json_dict() for o in outcomes],
    }

    def human() -> list[str]:
        lines = []
        for o in outcomes:
            lines.append(
                f"suite {o.suite}: checked {o.checked}, "
                f"{len(o.discrepancies)} discrepancies, {len(o.inconclusives)} inconclusive"
            )
            for dsc in o.discrepancies[:20]:
                lines.append(f"  ! {dsc['surface']} {dsc['divisor']} "
                             f"[{dsc['criterion']}] {dsc['detail']}")
        return lines

    _emit(args, payload, human)
    return 2 if any(o.discrepancies for o in outcomes) else 0


def cmd_counterexample(args) -> int:
    try:
        e_list = [int(x) for x in args.e_list.split(",")]
    except ValueError:
        raise DivposError(
            f"--e-list: expected comma-separated integers, got {args.e_list!r:.60}") from None
    result = auditor.replicate_example_es_nna(e_list)

    def human() -> list[str]:
        lines = [f"ruled-surface counterexample, e in {e_list}"]
        for row in result["cases"]:
            lines.append(
                f"  e={row['e']}: D = {row['divisor']}; [D] very ample: "
                f"{row['very_ample_integral_part']}; D.C0 = {row['pairing_with_C0']}; "
                f"ample: {row['ample']}  -> {'ok' if row['ok'] else 'FAILED'}"
            )
        lines.append("all cases ok" if result["ok"] else "REPLICATION FAILED")
        return lines

    _emit(args, result, human)
    return 0 if result["ok"] else 2


def cmd_semigroup(args) -> int:
    S = resolve_surface(args.surface)
    ev = _evaluation(args, S)
    members = pos.semigroup(S, ev)
    payload = {
        "schema_version": "v1",
        "surface": S.name,
        "divisor": format_divisor(ev.divisor),
        "m_max": args.m_max,
        "semigroup": members,
    }
    _emit(args, payload, lambda: [
        f"N(X, D) of {payload['divisor']} on {S.name} up to {args.m_max}:",
        f"  {', '.join(map(str, members)) if members else '(empty)'}",
    ])
    return 0


def cmd_growth(args) -> int:
    S = resolve_surface(args.surface)
    ev = _evaluation(args, S)
    h0_counts = ev.h0_counts   # first, so that one iteration builds the rows chi_growth reads
    rows, estimate = pos.chi_growth(S, ev, range(1, args.m_max + 1))
    table = [{"m": m, "chi": chi, "h0": h0_counts[m]} for m, chi in rows]
    growth = pos.big_growth_check(S, ev) if args.m_max >= pos.GROWTH_MIN_M_MAX else None
    payload = {
        "schema_version": "v1",
        "surface": S.name,
        "divisor": format_divisor(ev.divisor),
        "rows": table,
        "chi_leading_estimate": str(estimate) if estimate is not None else None,
        "h0_leading_estimate": str(growth.leading) if growth else None,
        "growth_pass": growth.passed if growth else None,
    }

    def human() -> list[str]:
        lines = [f"growth of {payload['divisor']} on {S.name}",
                 f"{'m':>5} {'chi([mD])':>12} {'h0([mD])':>12}"]
        for row in table:
            lines.append(f"{row['m']:>5} {row['chi']:>12} {row['h0']:>12}")
        lines.append(f"chi leading estimate 2*chi/m^2: {payload['chi_leading_estimate']}")
        if growth:
            lines.append(f"h0 leading estimate h0/m^2: {growth.leading} "
                         f"(quadratic growth: {'pass' if growth.passed else 'fail'})")
        return lines

    _emit(args, payload, human)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The divpos parser, built on first use; parse_args fills a fresh namespace each call."""
    parser = argparse.ArgumentParser(
        prog="divpos",
        description="Exact ampleness/bigness checks for divisors on surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, divisor=True):
        p.add_argument("--surface", required=True,
                       help="builtin id (hirzebruch:2, p2) or surface spec path")
        if divisor:
            p.add_argument("--divisor", required=True,
                           help='inline divisor like "3/2*C0 + 3*f", or @path to a JSON spec')
        p.add_argument("--m-max", type=int, default=None, dest="m_max")
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--output", default=None, help="write the report to a file")

    p = sub.add_parser("check", help="full criterion report for one divisor")
    common(p)
    p.add_argument("--delta", default="1/1000", help="neighborhood radius (exact rational)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("audit", help="run the seeded audit suites")
    p.add_argument("--config", default=None, help="JSON config file (overrides flags)")
    p.add_argument("--suite", choices=("ampleness", "nef", "bigness", "all"),
                   default="all")
    p.add_argument("--surface", action="append", default=None,
                   help="repeatable; defaults to hirzebruch:2 and p2")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-divisors", type=int, default=200, dest="n_divisors")
    p.add_argument("--profile", default="rational:30/12",
                   help="rational:<num>/<den> or quadratic:<d>[:<height>]")
    p.add_argument("--m-max", type=int, default=None, dest="m_max")
    p.add_argument("--delta", default=None)
    p.add_argument("--fault", choices=("flip_cone", "flip_ratio", "flip_gg"),
                   default=None, help="inject a known fault (auditor self-test)")
    p.add_argument("--full-reports", action="store_true", dest="full_reports")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("counterexample", help="replicate the ruled-surface example")
    p.add_argument("--e-list", default="2,3,4", dest="e_list")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("semigroup", help="N(X, D) up to m_max")
    common(p)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("growth", help="chi and h0 growth tables")
    common(p)
    p.set_defaults(func=cmd_growth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "m_max"):
            if args.m_max is None:
                if not getattr(args, "config", None):   # a config file sets its own m_max
                    args.m_max = _default_m_max()
            elif not 1 <= args.m_max <= pos.M_MAX_LIMIT:
                raise DivposError(f"--m-max: must be in [1, {pos.M_MAX_LIMIT}], got {args.m_max}")
        if getattr(args, "surface", None) is None and args.command == "audit":
            args.surface = ["hirzebruch:2", "p2"]
        return args.func(args)
    except (DivposError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
