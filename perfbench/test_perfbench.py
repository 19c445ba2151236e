"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import reference_verdict  # noqa: E402

# -- reference classifier ------------------------------------------------------


def rat(p, r=1):
    return (p, 0, r)


@pytest.mark.parametrize("e", [2, 3, 4])
def test_reference_counterexample_is_big_not_ample(e):
    # D = (3/2)C0 + (e+1)f: D.C0 = 1 - e/2 <= 0, so not ample, yet big
    assert reference_verdict(f"hirzebruch:{e}", (rat(3, 2), rat(e + 1)), 0) == (False, True)


@pytest.mark.parametrize("surface, coeffs, d, want", [
    ("hirzebruch:0", (rat(3, 2), rat(1)), 0, (True, True)),     # paper family at e = 0
    ("hirzebruch:1", (rat(3, 2), rat(2)), 0, (True, True)),     # and at e = 1
    ("hirzebruch:2", (rat(1), rat(2)), 0, (False, True)),       # boundary b = e*a
    ("hirzebruch:2", (rat(1), rat(5, 2)), 0, (True, True)),
    ("hirzebruch:3", (rat(-1), rat(9)), 0, (False, False)),
    ("hirzebruch:0", (rat(2), rat(0)), 0, (False, False)),
    # a = -1 + sqrt(2) > 0, b = 2a on F_2: boundary
    ("hirzebruch:2", ((-1, 1, 1), (-2, 2, 1)), 2, (False, True)),
    # a = 1 - sqrt(2) < 0
    ("hirzebruch:1", ((1, -1, 1), (5, 0, 1)), 2, (False, False)),
    # a = (3 - sqrt(5))/2 > 0, b = 1 > a on F_1
    ("hirzebruch:1", ((3, -1, 2), (1, 0, 1)), 5, (True, True)),
    ("p2", (rat(1, 3),), 0, (True, True)),
    ("p2", (rat(-1, 3),), 0, (False, False)),
    ("p2", ((-2, 1, 1),), 3, (False, False)),                   # -2 + sqrt(3) < 0
    ("p2", ((-1, 1, 1),), 3, (True, True)),                     # -1 + sqrt(3) > 0
])
def test_reference_hand_cases(surface, coeffs, d, want):
    assert reference_verdict(surface, coeffs, d) == want


def test_reference_agrees_with_divpos_on_the_check_pool():
    from divpos import is_ample_cone, is_big, parse_divisor, resolve_surface

    for k in range(workloads.POOL_OPS):
        surface, coeffs, d = workloads.check_divisor(k)
        labels = ("L",) if surface == "p2" else ("C0", "f")
        S = resolve_surface(surface)
        D = parse_divisor(workloads.format_divisor_text(labels, coeffs, d))
        want = (is_ample_cone(S, D)[0], is_big(S, D).big)
        assert reference_verdict(surface, coeffs, d) == want, (k, surface, coeffs, d)


def test_stream_is_seeded_and_is_one_pass_over_the_pool():
    warm, ops = workloads.stream("check-deep", 5)
    again = workloads.stream("check-deep", 5)[1]
    other = workloads.stream("check-deep", 6)[1]
    assert [op.key for op in ops] == [op.key for op in again]
    assert [op.key for op in ops] != [op.key for op in other]
    keys = [op.key for op in ops]
    assert len(keys) == len(set(keys)) == workloads.POOL_OPS
    assert set(keys) == {op.key for op in other}
    assert {op.key for op in warm} <= set(keys)


def test_quadratic_audit_stream_alternates_radicands():
    _, ops = workloads.stream("audit-quadratic", 3)
    profiles = [op.key.split("/")[0] for op in ops[:20]]
    assert profiles == list(workloads.QUADRATIC_PROFILES) * 10


# -- percentile rule -------------------------------------------------------------


def test_percentile_nearest_rank():
    samples = [float(x) for x in range(100, 0, -1)]
    assert run.percentile(samples, 0.5) == 50.0
    assert run.percentile(samples, 0.9) == 90.0


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        run.percentile([1.0] * 99, 0.9)
    with pytest.raises(ValueError):
        run.percentile([1.0] * 19, 0.5)
    assert run.percentile([1.0] * 20, 0.5) == 1.0


def test_slowest_per_input_takes_each_inputs_worst_call():
    # two passes over three inputs, in op order
    assert run.slowest_per_input([1.0, 5.0, 2.0, 3.0, 4.0, 1.5], 3) == [3.0, 5.0, 2.0]
    with pytest.raises(ValueError):
        run.slowest_per_input([1.0, 2.0, 3.0, 4.0], 3)


# -- self time -------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def leaf():
        clock.now += 2

    leaf_s = tr.wrap("leaf", leaf)

    def outer():
        clock.now += 1
        leaf_s()
        clock.now += 3
        leaf_s()

    outer_s = tr.wrap("outer", outer)
    tr.start()
    clock.now += 5
    outer_s()
    clock.now += 1
    tr.stop()
    assert tr.stats["outer"].calls == 1 and tr.stats["outer"].self_s == 4
    assert tr.stats["leaf"].calls == 2 and tr.stats["leaf"].self_s == 4
    assert tr.unattributed_s == 6 and tr.wall_s == 14
    assert tr.attributed_s() + tr.unattributed_s == tr.wall_s
    parents = {span_id: parent for span_id, _, _, _, parent, _ in tr.log}
    assert parents == {0: None, 1: 0, 2: 0}


def test_self_time_of_recursive_spans():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def rec(n):
        clock.now += 1
        if n:
            rec_s(n - 1)
        clock.now += 1

    rec_s = tr.wrap("rec", rec)
    tr.start()
    rec_s(3)
    tr.stop()
    # four nested calls of 2 s own work each; the outer duration is 8 s
    assert tr.stats["rec"].calls == 4
    assert tr.stats["rec"].self_s == 8 == tr.wall_s
    assert tr.unattributed_s == 0


def test_errors_are_counted_and_reraised():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def boom():
        clock.now += 1
        raise KeyError("x")

    boom_s = tr.wrap("boom", boom)
    outer_s = tr.wrap("outer", lambda: boom_s())
    tr.start()
    with pytest.raises(KeyError):
        outer_s()
    tr.stop()
    assert tr.stats["boom"].errors == 1 and tr.stats["outer"].errors == 1
    assert tr.stats["boom"].self_s == 1 and tr.stats["outer"].self_s == 0
    assert tr._stack == []


def test_install_wraps_every_binding_and_uninstall_restores():
    import divpos.positivity as pos
    import divpos.surface as surface

    original = surface.cohomology
    assert pos.cohomology is original
    tr = spans.Tracer()
    tr.install([d for d in spans.SPANS if d.name in ("cohomology", "oracle")])
    try:
        assert pos.cohomology is surface.cohomology is not original
        S = surface.resolve_surface("hirzebruch:1")
        tr.start()
        pos.vanishing_test(S, "C0 + 2*f", S.zdivisor((0, 0)), m_max=5)
        tr.stop()
    finally:
        tr.uninstall()
    assert pos.cohomology is original and surface.cohomology is original
    assert tr.stats["cohomology"].calls == 6
    assert tr.stats["oracle"].calls == 12   # h0(D) and h0(K - D) per cohomology call
