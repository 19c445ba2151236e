"""Command-line interface: outputs, formats, exit codes."""

import enum
import gc
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divpos.positivity as pos
from divpos.cli import _dumps, build_parser, main
from divpos.errors import InvalidInput
from divpos.surface import SURFACE_DIGITS, hirzebruch, projective_plane, surface_to_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# -- check -----------------------------------------------------------------------


def test_check_counterexample(capsys):
    code, data, _ = run_json(
        capsys, "check", "--surface", "hirzebruch:2",
        "--divisor", "3/2*C0 + 3*f", "--m-max", "60")
    assert code == 0
    assert data["ground_truth"] is False
    assert data["verdicts"]["P1"]["holds"] is True
    assert data["verdicts"]["P1"]["witness"]["witness_m"] == 1
    assert data["schema_version"] == "v1"


def test_check_json_roundtrips(capsys):
    from divpos.positivity import report_from_json_dict

    code, data, _ = run_json(
        capsys, "check", "--surface", "hirzebruch:2",
        "--divisor", "C0 + 3*f", "--m-max", "40")
    assert code == 0
    again = report_from_json_dict(data).to_json_dict()
    assert again == data


def test_check_human_contains_verdicts(capsys):
    code, out, _ = run(capsys, "check", "--surface", "p2",
                       "--divisor", "L", "--m-max", "30")
    assert code == 0
    assert "ground truth" in out and "ample" in out
    assert "QIX" in out


def test_human_and_json_verdicts_agree(capsys):
    code, data, _ = run_json(capsys, "check", "--surface", "hirzebruch:2",
                             "--divisor", "2*C0 + 5*f", "--m-max", "30")
    code2, human, _ = run(capsys, "check", "--surface", "hirzebruch:2",
                          "--divisor", "2*C0 + 5*f", "--m-max", "30")
    assert code == code2 == 0
    for cid, v in data["verdicts"].items():
        if v.get("same_as"):
            continue
        word = {True: "yes", False: "no", None: "inconclusive"}[v["holds"]]
        assert any(line.startswith(cid) and word in line
                   for line in human.splitlines()), cid


def test_check_bad_divisor_exits_3(capsys):
    code, out, err = run(capsys, "check", "--surface", "hirzebruch:2",
                         "--divisor", "3//2*C0")
    assert code == 3
    assert "error" in err


def test_check_zero_divisor_matches_its_difference_form(capsys):
    zero = run(capsys, "check", "--surface", "p2", "--divisor", "0")
    difference = run(capsys, "check", "--surface", "p2", "--divisor", "L - L")
    assert zero[0] == 0
    assert zero == difference


def test_check_bad_surface_names_field(capsys):
    code, _, err = run(capsys, "check", "--surface", "hirzebruch:nope",
                       "--divisor", "C0")
    assert code == 3
    assert "hirzebruch" in err


def test_spec_borrowing_a_mismatched_oracle_exits_3(tmp_path, capsys):
    # the F_3 lattice with the F_2 oracles: loaded, it decided P1, QIII and QIX wrongly
    spec = {"name": "f3-with-f2-oracle", "basis": ["C0", "f"], "matrix": [[-3, 1], [1, 0]],
            "mori_generators": [[1, 0], [0, 1]], "effective_generators": [[1, 0], [0, 1]],
            "canonical": [-2, -5], "chi": 1, "oracle": "hirzebruch:2"}
    path = tmp_path / "f3.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "check", "--surface", str(path), "--divisor", "C0 + 3*f")
    assert code == 3
    assert "'oracle'" in err and "'matrix'" in err


def test_spec_naming_itself_as_oracle_exits_3(tmp_path, capsys):
    path = tmp_path / "loop.json"
    spec = {"name": "loop", "basis": ["L"], "matrix": [[1]],
            "mori_generators": [[1]], "effective_generators": [[1]],
            "canonical": [-3], "chi": 1, "oracle": str(path)}
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "check", "--surface", str(path), "--divisor", "L")
    assert code == 3
    assert "'oracle'" in err and "builtin" in err


def test_radicand_beyond_bound_exits_3(capsys):
    code, _, err = run(capsys, "check", "--surface", "hirzebruch:2",
                       "--divisor", "sqrt(1000000000039)*C0 + 3*f")
    assert code == 3
    assert "radicand 1000000000039" in err and str(10**12) in err
    code, _, err = run(capsys, "check", "--surface", "hirzebruch:2",
                       "--divisor", f"sqrt({'7' * 5000})*C0 + 3*f")
    assert code == 3
    assert "radicand 7777" in err and "5000 digits" in err and str(10**12) in err


def test_long_rational_literal_exits_3_naming_the_bound(capsys):
    code, out, err = run(capsys, "check", "--surface", "p2", "--divisor", "7" * 5000 + "*L")
    assert code == 3 and out == ""
    assert len(err) < 200 and "5000-digit" in err and "14000 bits" in err


def test_radicand_below_bound_is_decided(capsys):
    code, data, _ = run_json(capsys, "check", "--surface", "hirzebruch:2",
                             "--divisor", "sqrt(999999999989)*C0 + 3*f", "--m-max", "200")
    assert code == 0
    assert data["ground_truth"] is False   # ample on F_2 needs 3 > 2*sqrt(999999999989)


# -- semigroup / growth --------------------------------------------------------------


def test_semigroup_empty_example(capsys):
    code, data, _ = run_json(capsys, "semigroup", "--surface", "hirzebruch:2",
                             "--divisor", "C0 - 1/2*f", "--m-max", "10")
    assert code == 0
    assert data["semigroup"] == [0]


def test_growth_table(capsys):
    code, data, _ = run_json(capsys, "growth", "--surface", "hirzebruch:2",
                             "--divisor", "C0 + 3*f", "--m-max", "5")
    assert code == 0
    assert [row["chi"] for row in data["rows"]] == [6, 15, 28, 45, 66]
    assert [row["h0"] for row in data["rows"]] == [6, 15, 28, 45, 66]


# -- counterexample --------------------------------------------------------------------


def test_counterexample_command(capsys):
    code, data, _ = run_json(capsys, "counterexample", "--e-list", "2,3,4")
    assert code == 0
    assert data["ok"] is True
    assert [c["pairing_with_C0"] for c in data["cases"]] == ["0", "-1/2", "-1"]


# -- audit ------------------------------------------------------------------------------


def test_audit_clean_exit_0(capsys):
    code, out, _ = run(capsys, "audit", "--suite", "ampleness",
                       "--surface", "hirzebruch:2", "--n-divisors", "15",
                       "--m-max", "80")
    assert code == 0
    assert "0 discrepancies" in out


def test_audit_fault_exit_2(capsys):
    code, out, _ = run(capsys, "audit", "--suite", "ampleness",
                       "--surface", "hirzebruch:2", "--n-divisors", "15",
                       "--m-max", "80", "--fault", "flip_cone")
    assert code == 2


def test_audit_config_file(tmp_path, capsys):
    cfg = {
        "seed": 7,
        "surfaces": ["p2"],
        "n_divisors": 10,
        "profile": {"rational": {"max_numerator": 8, "max_denominator": 3}},
        "m_max": 60,
    }
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "audit", "--suite", "ampleness", "--config", str(path))
    assert code == 0


def test_audit_bad_config_exit_3(tmp_path, capsys):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({"seed": 1, "surfaces": [], "n_divisors": 5,
                                "profile": {"rational": {"max_numerator": 3,
                                                         "max_denominator": 2}}}))
    code, _, err = run(capsys, "audit", "--config", str(path))
    assert code == 3
    assert "surfaces" in err


GOOD_CONFIG = {"seed": 1, "surfaces": ["p2"], "n_divisors": 2, "m_max": 20,
               "profile": {"rational": {"max_numerator": 3, "max_denominator": 2}}}


@pytest.mark.parametrize("change, field", [
    ({"n_divisors": "x"}, "n_divisors"),
    ({"n_divisors": 2.7}, "n_divisors"),
    ({"seed": 1.9}, "seed"),
    ({"surfaces": "p2"}, "surfaces"),
    ({"profile": {"rational": {"max_numerator": 3.0, "max_denominator": 2}}},
     "profile.rational.max_numerator"),
    ({"profile": {"quadratic": {"d": 2.5, "height": 3}}}, "profile.quadratic.d"),
    ({"twists": [[-1.5]]}, "twists"),
    ({"twists": [[0], "x"]}, "twists"),
    ({"twists": 5}, "twists"),
    ({"delta": 0.1}, "delta"),
    ({"delta": "abc"}, "delta"),
    ({"delta": [1, 2]}, "delta"),
])
def test_audit_malformed_config_names_the_field(tmp_path, capsys, change, field):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({**GOOD_CONFIG, **change}))
    code, _, err = run(capsys, "audit", "--suite", "ampleness", "--config", str(path))
    assert code == 3
    assert field in err


@pytest.mark.parametrize("argv, flag", [
    (["audit", "--profile", "rational:x/2"], "--profile"),
    (["audit", "--profile", "quadratic:2:y"], "--profile"),
    (["audit", "--profile", "rational:3"], "--profile"),
    (["audit", "--profile", "quadratic:2:10:3"], "--profile"),
    (["audit", "--delta", "abc"], "--delta"),
    (["check", "--surface", "p2", "--divisor", "L", "--delta", "abc"], "--delta"),
    (["check", "--surface", "p2", "--divisor", "L", "--delta", "1/0"], "--delta"),
    (["counterexample", "--e-list", "2,x"], "--e-list"),
])
def test_malformed_flag_value_names_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert flag in err


@pytest.mark.parametrize("command", [["check", "--surface", "p2", "--divisor", "L"],
                                     ["audit", "--suite", "bigness", "--n-divisors", "1"]])
@pytest.mark.parametrize("delta", ["0", "0/7", pytest.param("7" * 5000, id="5000-sevens"),
                                   pytest.param("a" * 5000, id="5000-letters")])
def test_delta_flag_must_be_a_short_positive_rational(capsys, command, delta):
    """Refused before any suite runs (the bigness suite reads no delta), naming --delta."""
    code, out, err = run(capsys, *command, "--delta", delta)
    assert code == 3 and out == ""
    assert err.startswith("error: --delta: ") and len(err) < 200


@pytest.mark.parametrize("delta", ["0", 0, "-1/3", pytest.param("7" * 5000, id="5000-sevens")])
def test_audit_config_delta_must_be_a_short_positive_rational(tmp_path, capsys, delta):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({**GOOD_CONFIG, "delta": delta}))
    code, out, err = run(capsys, "audit", "--suite", "bigness", "--config", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: delta") and len(err) < 200


def test_audit_config_with_twists_and_delta_runs(tmp_path, capsys):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({**GOOD_CONFIG, "twists": [[0], [-1]], "delta": "1/1000"}))
    code, data, _ = run_json(capsys, "audit", "--suite", "ampleness", "--config", str(path))
    assert code == 0
    assert data["outcomes"][0]["config"]["twists"] == [[0], [-1]]
    assert data["outcomes"][0]["config"]["delta"] == "1/1000"


def test_audit_wellformed_config_runs(tmp_path, capsys):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(GOOD_CONFIG))
    assert run(capsys, "audit", "--suite", "ampleness", "--config", str(path))[0] == 0


# -- environment and files -----------------------------------------------------------------


def test_env_default_m_max(capsys, monkeypatch):
    monkeypatch.setenv("DIVPOS_M_MAX", "25")
    code, data, _ = run_json(capsys, "semigroup", "--surface", "p2", "--divisor", "L")
    assert code == 0
    assert data["m_max"] == 25


def test_env_bad_m_max(capsys, monkeypatch):
    monkeypatch.setenv("DIVPOS_M_MAX", "three")
    code, _, err = run(capsys, "semigroup", "--surface", "p2", "--divisor", "L")
    assert code == 3
    assert "DIVPOS_M_MAX" in err


def test_env_m_max_is_read_only_where_it_supplies_the_value(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DIVPOS_M_MAX", "3")
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(GOOD_CONFIG))
    code, data, err = run_json(capsys, "audit", "--suite", "nef", "--config", str(path))
    assert code == 0, err
    assert data["outcomes"][0]["config"]["m_max"] == GOOD_CONFIG["m_max"]
    code, _, err = run(capsys, "audit", "--suite", "nef", "--surface", "p2", "--n-divisors", "1")
    assert code == 3 and "DIVPOS_M_MAX" in err


@pytest.mark.parametrize("command", ["check", "growth", "semigroup"])
@pytest.mark.parametrize("m_max", ["0", "-1"])
def test_nonpositive_m_max_names_flag(capsys, command, m_max):
    code, out, err = run(capsys, command, "--surface", "hirzebruch:2",
                         "--divisor", "C0 + 3*f", "--m-max", m_max)
    assert code == 3
    assert out == ""
    assert "--m-max" in err


@pytest.mark.parametrize("m_max", [pos.M_MAX_LIMIT, pos.M_MAX_LIMIT + 1])
def test_m_max_above_the_cap_is_refused_naming_its_source(capsys, monkeypatch, tmp_path, m_max):
    """--m-max, DIVPOS_M_MAX, a config's m_max and Evaluation take m_max up to M_MAX_LIMIT.

    Validation only: a malformed divisor or fault stops each run once m_max has passed.
    """
    over = m_max > pos.M_MAX_LIMIT
    bad_divisor = ("check", "--surface", "p2", "--divisor", "L +")
    code, _, err = run(capsys, *bad_divisor, "--m-max", str(m_max))
    assert code == 3 and ("--m-max" in err) == over, err
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({**GOOD_CONFIG, "m_max": m_max, "fault": "unknown"}))
    code, _, err = run(capsys, "audit", "--config", str(path))
    assert code == 3 and ("m_max" in err) == over and ("fault" in err) != over, err
    monkeypatch.setenv("DIVPOS_M_MAX", str(m_max))
    code, _, err = run(capsys, *bad_divisor)
    assert code == 3 and ("DIVPOS_M_MAX" in err) == over, err
    if over:
        with pytest.raises(InvalidInput, match="m_max"):
            pos.Evaluation(projective_plane(), "L", m_max)
    else:
        assert pos.Evaluation(projective_plane(), "L", m_max).m_max == m_max


@pytest.mark.parametrize("m_max", ["1", "2", "3"])
def test_check_below_growth_floor_leaves_b2_inconclusive(capsys, m_max):
    code, data, err = run_json(capsys, "check", "--surface", "hirzebruch:2",
                               "--divisor", "C0 + 3*f", "--m-max", m_max)
    assert code == 0, err
    b2 = data["verdicts"]["B2"]
    assert b2["conclusive"] is False and b2["holds"] is None
    assert "m_max >= 4" in b2["note"]
    assert data["verdicts"]["QIX"]["holds"] is True


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", "--surface", "p2", "--divisor", "2*L",
                     "--m-max", "20", "--format", "json", "--output", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["ground_truth"] is True


@pytest.mark.parametrize("spec, field", [
    ({"terms": 5}, "'terms'"),
    (7, "divisor spec must be an object"),
    ({"terms": {"L": "1"}, "expansions": 3}, "'expansions'"),
    ({"terms": {"L": "1"}, "expansions": {"X": [1.5]}}, "'expansions'"),
    ({"terms": {"L": "1"}, "expansions": {"X": [True]}}, "'expansions'"),
    ({"terms": {"L": True}}, "'terms'"),
    ({"terms": {"L": 0.5}}, "'terms'"),
])
def test_malformed_divisor_spec_file_names_the_field(tmp_path, capsys, spec, field):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "check", "--surface", "p2", "--divisor", f"@{path}",
                         "--m-max", "10")
    assert code == 3 and out == ""
    assert field in err


def test_audit_config_that_is_not_an_object_exits_3(tmp_path, capsys):
    path = tmp_path / "audit.json"
    path.write_text("7")
    code, out, err = run(capsys, "audit", "--config", str(path))
    assert code == 3 and out == ""
    assert "config must be an object" in err


HUGE = list(range(3000))


@pytest.mark.parametrize("where, value, field", [
    pytest.param("divisor", "x" * 5000 + "*L", "coefficient", id="divisor-coefficient"),
    pytest.param("divisor", "1/2*L " + "+" * 3000, "divisor", id="divisor-signs"),
    pytest.param("divisor", "L" * 5000, "labels", id="divisor-label"),
    pytest.param("spec", {"chi": HUGE}, "'chi'", id="spec-chi"),
    pytest.param("spec", {"matrix": HUGE}, "'matrix'", id="spec-matrix"),
    pytest.param("spec", {"basis": HUGE}, "'basis'", id="spec-basis"),
    pytest.param("spec", {"oracle": {"h0_table": HUGE}}, "'h0_table'", id="spec-h0_table"),
    # a table oracle, so that no builtin's generator list is compared first
    pytest.param("spec", {"effective_generators": [[1, i] for i in HUGE], "oracle": {}},
                 "'effective_generators'", id="spec-effective_generators"),
    pytest.param("spec", HUGE, "surface spec", id="spec-list"),
    pytest.param("config", {"twists": ["a"] * 3000}, "twists", id="config-twists"),
    pytest.param("config", {"surfaces": [1] * 3000}, "surfaces", id="config-surfaces"),
    pytest.param("config", {"seed": "9" * 5000}, "seed", id="config-seed"),
    pytest.param("config", {"profile": {"rational": HUGE}}, "profile.rational",
                 id="config-profile"),
    pytest.param("config", {"fault": "f" * 10000}, "fault", id="config-fault"),
])
def test_oversized_input_is_refused_with_a_short_message_naming_the_field(
        tmp_path, capsys, where, value, field):
    """An inline divisor, a surface spec field or an audit config field far too long to
    echo is refused with exit 3 and a message of under 300 bytes that names the field."""
    path = tmp_path / "input.json"
    if where == "divisor":
        argv = ["check", "--surface", "p2", "--divisor", value]
    elif where == "spec":
        spec = {**surface_to_spec(hirzebruch(2)), "name": "f2-spec"}
        path.write_text(json.dumps({**spec, **value} if isinstance(value, dict) else value))
        argv = ["check", "--surface", str(path), "--divisor", "C0"]
    else:
        path.write_text(json.dumps({**GOOD_CONFIG, **value}))
        argv = ["audit", "--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert len(err.encode()) < 300 and field in err, err[:300]


LONG_NAME = "p" * 300   # one path component past every file system's 255-byte limit
BAD_CONTENTS = {"malformed": b"{'L': 1}", "not-utf8": b"\xff\xfe",
                "nested-too-deep": b"[" * 100_000}
FILE_ARGVS = {
    "--divisor": ("check", "--surface", "p2", "--divisor", "@{path}"),
    "--config": ("audit", "--config", "{path}"),
    "surface": ("check", "--surface", "{path}", "--divisor", "L"),
    "--output": ("check", "--surface", "p2", "--divisor", "L", "--output", "{path}"),
}


@pytest.mark.parametrize("field, case", [
    (field, case) for field in FILE_ARGVS
    for case in ("long-path", "missing-directory", *(BAD_CONTENTS if field != "--output" else ()))
])
def test_every_file_error_exits_3_naming_the_field(tmp_path, capsys, field, case):
    """A JSON input that cannot be read or parsed, and an --output that cannot be written,
    exit 3 with a message of under 300 bytes naming the field and quoting at most 60
    characters of the path."""
    if case == "long-path":
        path = tmp_path / LONG_NAME
    elif case == "missing-directory":
        path = tmp_path / "missing" / "x.json"
    else:
        path = tmp_path / "input.json"
        path.write_bytes(BAD_CONTENTS[case])
    code, out, err = run(capsys, *(a.format(path=path) for a in FILE_ARGVS[field]))
    assert code == 3 and out == "", err[:300]
    assert len(err.encode()) < 300 and err.startswith(f"error: {field}:"), err[:300]
    assert "p" * 61 not in err and "Traceback" not in err, err[:300]


NINES ="9" * pos.DIVISOR_DIGITS   # the largest integer within the digit bound of an input divisor


@pytest.mark.parametrize("m_max", ["10", str(pos.M_MAX_LIMIT)])
@pytest.mark.parametrize("argv", [
    ("check", "--surface", "p2", "--divisor", "{n}*L"),
    ("check", "--surface", "hirzebruch:2", "--divisor", "{n}*C0 + {n}*f"),
    ("check", "--surface", "hirzebruch:2", "--divisor", "@{spec}"),
    ("audit", "--profile", "rational:{n}/1", "--n-divisors", "2", "--suite", "ampleness"),
    pytest.param(("audit", "--surface", "hirzebruch:" + "9" * SURFACE_DIGITS, "--profile",
                  "rational:{n}/1", "--n-divisors", "2", "--suite", "ampleness"),
                 id="audit-widest-hirzebruch"),
    pytest.param(("check", "--surface", "hirzebruch:" + "9" * SURFACE_DIGITS, "--divisor",
                  "{n}*C0 + {n}*f"), id="check-widest-hirzebruch"),
])
def test_input_divisors_print_at_the_digit_bound_and_exit_3_one_digit_past(
        tmp_path, capsys, argv, m_max):
    """Every value of a report prints at the bound, at m_max 10 and at the cap; a digit
    more is refused naming the field and the bound, not by the interpreter's digit limit."""
    spec = tmp_path / "d.json"
    for n, code in ((NINES, 0), (NINES + "9", 3)):
        # 1/3 of the general component A = n*C0 + 3*f is (n/3)*C0 + f, n/3 an integer
        spec.write_text(json.dumps({"terms": {"A": "1/3"}, "expansions": {"A": [int(n), 3]}}))
        got, out, err = run(capsys, *(a.format(n=n, spec=spec) for a in argv),
                            "--m-max", m_max, "--format", "json")
        assert got == code and "set_int_max_str_digits" not in err, err[:300]
        if code:
            field = "profile.rational" if argv[0] == "audit" else "--divisor"
            assert out == "" and field in err and str(pos.DIVISOR_DIGITS) in err, err[:300]
        else:
            json.loads(out)


@pytest.mark.parametrize("argv", [
    ("check", "--surface", "p2", "--divisor", "@{spec}"),
    ("growth", "--surface", "hirzebruch:2", "--divisor", "{n}*C0 + {n}*f"),
    ("semigroup", "--surface", "hirzebruch:2", "--divisor", "-{n}*C0 + {n}*f"),
    ("audit", "--profile", "rational:{n}/1", "--n-divisors", "2"),
    ("audit", "--profile", "quadratic:2:{n}", "--n-divisors", "2", "--full-reports"),
])
def test_every_command_prints_an_input_divisor_at_the_digit_bound(tmp_path, capsys, argv):
    """At m_max 10, growth, semigroup and every audit suite print divisors at the bound;
    a spec expanding to 4,200 digits and a quadratic profile past it exit 3 naming the field."""
    spec = tmp_path / "d.json"
    spec.write_text(json.dumps({"terms": {"A": "1/3"}, "expansions": {"A": [int("7" * 4200)]}}))
    # a quadratic profile's coefficient (a + b*sqrt(2)) over q1*q2 has the height times q1*q2
    n = NINES[:-2] if "quadratic:2:{n}" in argv else NINES
    got, out, err = run(capsys, *(a.format(n=n, spec=spec) for a in argv),
                        "--m-max", "10", "--format", "json")
    assert "set_int_max_str_digits" not in err
    if "@{spec}" in argv:
        assert got == 3 and "--divisor" in err and str(pos.DIVISOR_DIGITS) in err, err[:300]
    else:
        assert got in (0, 2) and json.loads(out), err[:300]
    if "quadratic:2:{n}" in argv:
        got, out, err = run(capsys, "audit", "--profile", "quadratic:2:" + NINES + "9",
                            "--n-divisors", "2", "--m-max", "10")
        assert got == 3 and "profile.quadratic" in err and str(pos.DIVISOR_DIGITS) in err


@pytest.mark.parametrize("surface, field", [
    pytest.param("hirzebruch:1" + "0" * SURFACE_DIGITS, "hirzebruch", id="e-one-digit-past"),
    pytest.param("hirzebruch:" + "9" * 400, "hirzebruch", id="e-400-digits"),
    pytest.param({"matrix": [[-2, 1], [1, 10**SURFACE_DIGITS]]}, "'matrix' entry 1 entry 1",
                 id="spec-matrix"),
    pytest.param({"chi": -10**SURFACE_DIGITS}, "'chi'", id="spec-chi"),
    pytest.param({"mori_generators": [{"label": "C0", "coords": [1, 0],
                                       "multiplicity": 10**SURFACE_DIGITS}, [0, 1]]},
                 "'multiplicity'", id="spec-multiplicity"),
])
def test_a_surface_integer_past_its_digit_bound_exits_3_naming_the_field(
        tmp_path, capsys, surface, field):
    """A surface's integers are bounded too, so a divisor at its own bound still prints."""
    if isinstance(surface, dict):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**surface_to_spec(hirzebruch(2)), **surface}))
        surface = str(path)
    got, out, err = run(capsys, "check", "--surface", surface, "--divisor",
                        f"{NINES}*C0 + {NINES}*f", "--m-max", "10")
    assert got == 3 and out == "" and field in err and str(SURFACE_DIGITS) in err, err[:300]
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("profile, field", [
    pytest.param("rational:" + NINES[:-4] + "/12", "profile.rational.max_numerator",
                 id="numerator-lcm-12"),
    pytest.param("rational:1/1000000000", "profile.rational.max_denominator", id="denominator"),
    pytest.param("quadratic:2:" + NINES[:-1], "profile.quadratic.height", id="height-lcm-4"),
    pytest.param("quadratic:1000003:" + NINES[:-4], "profile.quadratic.height",
                 id="height-sqrt-d"),
])
def test_a_profile_that_could_sample_past_the_digit_bound_is_refused_whatever_the_seed(
        tmp_path, capsys, profile, field):
    """The worst case of a profile is refused before any surface is audited, on every seed:
    its numerator or height (times sqrt(d)) times the lcm of all its denominators."""
    for seed in ("1", "2", "3"):
        got, out, err = run(capsys, "audit", "--profile", profile, "--seed", seed,
                            "--n-divisors", "1", "--m-max", "10")
        assert got == 3 and out == "" and field in err and str(pos.DIVISOR_DIGITS) in err, err


@pytest.mark.parametrize("what, value", [
    pytest.param("--divisor", {"terms": {"A": "1/3"}, "expansions": {"A": ["N", 3]}},
                 id="divisor-spec"),
    pytest.param("surface", {**surface_to_spec(hirzebruch(2)), "chi": "N"}, id="surface-spec"),
    pytest.param("--config", {**GOOD_CONFIG, "seed": "N"}, id="config"),
])
def test_a_json_integer_past_the_digit_bound_exits_3_naming_the_file(
        tmp_path, capsys, what, value):
    """A 5,000-digit integer literal in a divisor spec, a surface spec or an audit config
    is refused when the file loads, naming the file and the bound."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(value).replace('"N"', "7" * 5000))
    argv = {"--divisor": ["check", "--surface", "p2", "--divisor", f"@{path}"],
            "surface": ["check", "--surface", str(path), "--divisor", "C0"],
            "--config": ["audit", "--config", str(path)]}[what]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith(f"error: {what}: "), err[:300]
    assert repr(str(path))[:60] in err and str(pos.DIVISOR_DIGITS) in err, err[:300]
    assert "set_int_max_str_digits" not in err


def test_a_weyl_pair_past_the_cap_is_inconclusive_and_the_audit_finishes(capsys):
    """On F_e with a large e, the nef suite's Weyl sub-check may find no k up to its cap;
    that pair is logged inconclusive, naming the coefficient and the pairing."""
    code, data, _ = run_json(capsys, "audit", "--surface", "hirzebruch:100000", "--profile",
                             "quadratic:2:10", "--n-divisors", "3", "--m-max", "10")
    assert code == 0
    nef = next(o for o in data["outcomes"] if o["suite"] == "nef_from_multiples")
    assert [e["detail"] for e in nef["inconclusives"]] == [
        "no k <= 100000 with frac(k*(7/2+8*sqrt(2)))*100000 < 1; pairing -100000"]
    assert len(nef["replications"]["weyl_checks"]) == 2


def test_divisor_spec_file(tmp_path, capsys):
    spec = {"terms": {"C0": "3/2", "f": "3"}}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(spec))
    code, data, _ = run_json(capsys, "check", "--surface", "hirzebruch:2",
                             "--divisor", f"@{path}", "--m-max", "30")
    assert code == 0
    assert data["ground_truth"] is False


# -- the v1 JSON writer ---------------------------------------------------------------------


class Obj(dict):
    pass


class Arr(list):
    pass


class Tag(enum.IntEnum):
    ONE = 1


texts = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\n\t\x1f\x7f", "é ü", "\u2028",
                                              "\U0001f600", "\ud800", '"\\\u00e9"']))
leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**600, 10**600),
                   texts, st.floats(), st.just(Tag.ONE))
json_trees = st.recursive(leaves, lambda kids: st.one_of(
    st.lists(kids), st.lists(kids).map(tuple), st.lists(kids).map(Arr),
    st.dictionaries(texts, kids), st.dictionaries(texts, kids).map(Obj),
    st.dictionaries(st.integers(), kids),
    st.lists(st.integers(-10**30, 10**30), min_size=30, max_size=120)), max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(json_trees)
def test_the_json_writer_matches_indented_json_dumps(tree):
    """cli._dumps writes exactly json.dumps(tree, sort_keys=True, indent=2)."""
    assert _dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)


@pytest.mark.parametrize("tree", [object(), Fraction(1, 2), [1, {"a": Fraction(1, 2)}],
                                  (object(),), {(1, 2): 0}, {"a": 1, 2: 0}],
                         ids=["object", "fraction", "nested-fraction", "tuple-of-object",
                              "tuple-key", "mixed-keys"])
def test_the_json_writer_refuses_what_json_refuses(tree):
    with pytest.raises(TypeError):
        json.dumps(tree, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _dumps(tree)


def test_the_json_writer_joins_a_long_all_int_list_as_json_lays_it_out():
    members = list(range(-5, 10**5)) + [10**400]
    assert _dumps({"semigroup": members, "flags": [1, True, 0]}) \
        == json.dumps({"semigroup": members, "flags": [1, True, 0]}, sort_keys=True, indent=2)


def test_the_json_writer_frees_its_pieces_without_the_cycle_collector():
    """No reference cycle keeps an output's pieces alive until a full collection; a
    writer that was a closure calling itself grew the RSS by 1.8 MB over 8 passes of
    check-deep."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            _dumps({"a": [1, {"b": "c"}, [True, None]], "d": ("e",)})
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the parser is built once per process ------------------------------------------------

CHECK = ("check", "--surface", "hirzebruch:2", "--divisor", "3/2*C0 + 3*f",
         "--m-max", "30", "--format", "json")


def test_parser_is_built_on_first_use_not_at_import():
    probe = "import divpos.cli as c; print(c.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "0"


def test_repeated_calls_share_no_parser_state(capsys):
    build_parser.cache_clear()
    fresh = run(capsys, *CHECK)
    assert fresh[0] == 0
    parser = build_parser()

    def surfaces(*argv):
        code, data, _ = run_json(capsys, "audit", "--suite", "nef", "--n-divisors", "1",
                                 "--m-max", "10", *argv)
        assert code == 0
        return data["outcomes"][0]["config"]["surfaces"]

    assert surfaces("--surface", "hirzebruch:2", "--surface", "p2") == ["hirzebruch:2", "p2"]
    assert surfaces("--surface", "p2") == ["p2"]   # --surface appends to a fresh list
    assert run(capsys, "check", "--surface", "p2", "--divisor", "3//2*L")[0] == 3
    assert run(capsys, *CHECK) == fresh
    with pytest.raises(SystemExit) as exc:
        main(["check", "--surface", "p2", "--no-such-flag"])
    assert exc.value.code == 2 and "usage" in capsys.readouterr().err
    assert run(capsys, *CHECK) == fresh
    assert build_parser() is parser
