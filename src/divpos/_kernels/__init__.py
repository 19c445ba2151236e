"""The exact integer kernels behind floors, signs and section counts.

divpos calls each kernel through this package (``_kernels.floor_quad``),
never through ``_pure`` directly.  A tracer (``perfbench/spans.py``) can
then wrap the package attributes alone, timing the calls from the rest of
divpos without the kernels' per-step calls to each other.  ``BACKEND``
names the only implementation; the benchmark's environment stamp reads it.
"""

from divpos._kernels._pure import (
    floor_multiples_quad,
    floor_multiples_rat,
    floor_quad,
    h0_hirzebruch,
    h0_p2,
    sign_quad,
    weyl_search,
)

BACKEND = "pure"

__all__ = [
    "BACKEND",
    "floor_multiples_quad",
    "floor_multiples_rat",
    "floor_quad",
    "h0_hirzebruch",
    "h0_p2",
    "sign_quad",
    "weyl_search",
]
