"""Command-line interface: outputs, formats, exit codes."""

import json

import pytest

from divpos.cli import main


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


def test_check_bad_surface_names_field(capsys):
    code, _, err = run(capsys, "check", "--surface", "hirzebruch:nope",
                       "--divisor", "C0")
    assert code == 3
    assert "hirzebruch" in err


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


@pytest.mark.parametrize("command", ["check", "growth", "semigroup"])
@pytest.mark.parametrize("m_max", ["0", "-1"])
def test_nonpositive_m_max_names_flag(capsys, command, m_max):
    code, out, err = run(capsys, command, "--surface", "hirzebruch:2",
                         "--divisor", "C0 + 3*f", "--m-max", m_max)
    assert code == 3
    assert out == ""
    assert "--m-max" in err


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


def test_divisor_spec_file(tmp_path, capsys):
    spec = {"terms": {"C0": "3/2", "f": "3"}}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(spec))
    code, data, _ = run_json(capsys, "check", "--surface", "hirzebruch:2",
                             "--divisor", f"@{path}", "--m-max", "30")
    assert code == 0
    assert data["ground_truth"] is False
