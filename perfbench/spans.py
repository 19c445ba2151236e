"""In-memory spans around the calls into each divpos layer.

The tracer replaces a function by a wrapper in every divpos module that
binds it (``positivity`` imports ``cohomology`` by name, ``exact_numbers``
calls ``_kernels.sign_quad`` through the module), records one span per
call and restores the originals on ``uninstall``.  Nothing in divpos
itself is edited.  The kernel backends (``divpos._kernels._pure`` and the
compiled ``_core``) are left alone: a kernel span counts the calls from
the rest of divpos, not the kernels' calls to each other, so its count
means the same under either backend and the per-step calls inside a
floor scan add no tracing cost (``floor_multiples.cells`` counts those
steps instead).

A span records its name, start, end, parent span and op id.  Per name
the tracer keeps calls, self time (duration minus the time covered by
child spans) and the calls that ended in an exception.  Time outside
every top-level span is kept as the unattributed remainder, so the self
times of all spans plus that remainder add up to the traced wall time.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

SPAN_LOG_CAP = 50_000  # spans kept with full detail; the aggregates count all of them
KERNEL_BACKENDS = "divpos._kernels."  # modules whose internal calls are not traced

AUDITS = frozenset({"audit-rational", "audit-quadratic"})
QUADRATIC = frozenset({"audit-quadratic", "check-deep"})
CHECKS = frozenset({"check-deep"})
ALL = AUDITS | CHECKS


@dataclass(frozen=True)
class SpanDecl:
    """A span over one or more divpos callables and where it must fire.

    ``targets`` are "module:attribute" paths; an attribute may name a
    method ("QuadExt.__init__").  ``cells`` maps the call's arguments to
    a work count (the length of a floor scan).
    """

    layer: str
    name: str
    targets: tuple[str, ...]
    fires_on: frozenset
    cells: Optional[Callable[[tuple], int]] = None


def _decl(layer, name, fires_on, *targets, cells=None):
    return SpanDecl(layer, name, tuple(targets), fires_on, cells)


EN, KE, DI, SU, PO, AU, CL = (
    "divpos.exact_numbers", "divpos._kernels", "divpos.divisor", "divpos.surface",
    "divpos.positivity", "divpos.auditor", "divpos.cli")

SPANS: tuple[SpanDecl, ...] = (
    _decl("exact_numbers", "QuadExt", ALL, f"{EN}:QuadExt.__init__"),
    _decl("exact_numbers", "squarefree_decompose", ALL, f"{EN}:squarefree_decompose"),
    _decl("exact_numbers", "weyl_find", frozenset({"audit-quadratic"}), f"{EN}:weyl_find"),
    _decl("_kernels", "floor_multiples", ALL,
          f"{KE}:floor_multiples_rat", f"{KE}:floor_multiples_quad",
          cells=lambda args: args[-1] + 1),
    _decl("_kernels", "sign_quad", QUADRATIC, f"{KE}:sign_quad"),
    _decl("_kernels", "floor_quad", QUADRATIC, f"{KE}:floor_quad"),
    _decl("_kernels", "h0", ALL, f"{KE}:h0_hirzebruch", f"{KE}:h0_p2"),
    _decl("divisor", "integral_part_multiples", ALL, f"{DI}:integral_part_multiples"),
    _decl("divisor", "parse_divisor", CHECKS, f"{DI}:parse_divisor"),
    # the very_ample / globally_generated / h0 closures of the built-in
    # models; the tracer wraps them on every model the factories return
    _decl("surface", "oracle", ALL, f"{SU}:hirzebruch", f"{SU}:projective_plane"),
    _decl("surface", "cohomology", ALL, f"{SU}:cohomology"),
    _decl("surface", "chi_rr", ALL, f"{SU}:chi_rr"),
    _decl("surface", "pair_z", ALL, f"{SU}:SurfaceModel.pair_z"),
    _decl("surface", "pair_coords", ALL, f"{SU}:SurfaceModel.pair_coords"),
    _decl("surface", "resolve_surface", ALL, f"{SU}:resolve_surface"),
    # m-linear scans over [mD]
    _decl("positivity", "vanishing_test", ALL, f"{PO}:vanishing_test"),
    _decl("positivity", "glob_gen_twist_test", ALL, f"{PO}:glob_gen_twist_test"),
    _decl("positivity", "section_vanishing_scan", ALL, f"{PO}:section_vanishing_scan"),
    _decl("positivity", "very_ample_multiples", ALL, f"{PO}:very_ample_multiples"),
    _decl("positivity", "big_growth_check", ALL, f"{PO}:big_growth_check"),
    _decl("positivity", "first_big_multiple", ALL, f"{PO}:first_big_multiple"),
    _decl("positivity", "claim_boh_check", AUDITS, f"{PO}:claim_boh_check"),
    _decl("positivity", "kodaira_check", AUDITS, f"{PO}:kodaira_check"),
    # constant work per divisor
    _decl("positivity", "generator_pairings", ALL, f"{PO}:generator_pairings"),
    _decl("positivity", "onset_bound", ALL, f"{PO}:onset_bound"),
    _decl("positivity", "definitive_negative", ALL, f"{PO}:definitive_negative"),
    _decl("positivity", "ratio_bound", ALL, f"{PO}:ratio_bound"),
    _decl("positivity", "seshadri_bound", ALL, f"{PO}:seshadri_bound"),
    _decl("positivity", "neighborhood_test", ALL, f"{PO}:neighborhood_test"),
    _decl("positivity", "is_big", ALL, f"{PO}:is_big"),
    _decl("positivity", "verify_big_certificate", ALL, f"{PO}:verify_big_certificate"),
    _decl("positivity", "build_report", ALL, f"{PO}:build_report"),
    _decl("positivity", "PositivityReport.to_json_dict", CHECKS,
          f"{PO}:PositivityReport.to_json_dict"),
    _decl("auditor", "audit_ampleness", AUDITS, f"{AU}:audit_ampleness"),
    _decl("auditor", "audit_bigness", AUDITS, f"{AU}:audit_bigness"),
    _decl("auditor", "audit_nef_from_multiples", AUDITS, f"{AU}:audit_nef_from_multiples"),
    _decl("auditor", "_reverify_report", AUDITS, f"{AU}:_reverify_report"),
    _decl("cli", "main", ALL, f"{CL}:main"),
)

# spans whose calls are also reported per decided divisor
PER_DIVISOR = ("generator_pairings", "integral_part_multiples")

ORACLE_FIELDS = ("very_ample", "globally_generated", "h0")


class Stat:
    __slots__ = ("calls", "self_s", "errors", "cells")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.cells = 0


class Tracer:
    """Span recorder for one single-threaded process.

    ``clock`` is injectable so tests can drive time by hand.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        self.log: list[tuple] = []      # (id, name index, start, end, parent id, op)
        self.n_spans = 0
        self.op = -1
        self.unattributed_s = 0.0
        self.wall_s = 0.0
        self._stack: list[list] = []    # [child time, span id] per open span
        self._t_start = self._last_end = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def start(self) -> None:
        """Open the traced window; time from here on is attributed."""
        self._t_start = self._last_end = self.clock()

    def stop(self) -> None:
        """Close the traced window, counting the trailing gap."""
        end = self.clock()
        self.unattributed_s += end - self._last_end
        self._last_end = end
        self.wall_s = end - self._t_start

    def wrap(self, name: str, fn: Callable, cells: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span called name."""
        stat = self._stat(name)
        name_idx = self.names.index(name)
        stack = self._stack
        log = self.log
        clock = self.clock
        tracer = self

        def span(*args, **kwargs):
            span_id = tracer.n_spans
            tracer.n_spans = span_id + 1
            parent = stack[-1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            if parent is None:
                tracer.unattributed_s += t0 - tracer._last_end
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if not ok:
                    stat.errors += 1
                if cells is not None:
                    stat.cells += cells(args)
                if parent is None:
                    tracer._last_end = t1
                else:
                    parent[0] += dur
                if span_id < SPAN_LOG_CAP:
                    log.append((span_id, name_idx, t0, t1,
                                parent[1] if parent is not None else None, tracer.op))

        return span

    def _stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
            self.names.append(name)
        return self.stats[name]

    # -- patching divpos ---------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original: object, wrapped: object) -> int:
        """Rebind original to wrapped in every loaded divpos module; count them."""
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "divpos" or mod_name.startswith("divpos.")) \
                    or mod_name.startswith(KERNEL_BACKENDS):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)
                    n += 1
        return n

    def _oracle_factory(self, factory: Callable) -> Callable:
        tracer = self

        def traced_factory(*args, **kwargs):
            model = factory(*args, **kwargs)
            fields = {f: tracer.wrap("oracle", getattr(model, f))
                      for f in ORACLE_FIELDS if getattr(model, f) is not None}
            return dataclasses.replace(model, **fields)

        return traced_factory

    def install(self, decls=SPANS) -> None:
        """Wrap every declared target; raises LookupError if one is missing."""
        for decl in decls:
            for target in decl.targets:
                mod_name, path = target.split(":")
                owner = sys.modules.get(mod_name)
                if owner is None:
                    raise LookupError(f"span {decl.name}: module {mod_name} is not loaded")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr, None)
                if original is None:
                    raise LookupError(f"span {decl.name}: {target} does not exist")
                if decl.name == "oracle":
                    wrapped = self._oracle_factory(original)
                else:
                    wrapped = self.wrap(decl.name, original, decl.cells)
                if outer:
                    self._set(owner, attr, wrapped)
                elif self._patch_everywhere(original, wrapped) == 0:
                    raise LookupError(f"span {decl.name}: no module binds {target}")
            self._stat(decl.name)   # reported even when it never fires

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def attributed_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())
