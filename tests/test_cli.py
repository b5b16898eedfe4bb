import json

import classalg.algebra as algebra
import classalg.fock as fock
from classalg.cli import RunConfig, run
from classalg.wreath import ResourceCapError


def capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_defaults():
    cfg = RunConfig()
    assert (cfg.group, cfg.level, cfg.order, cfg.cap) == ("trivial", 4, 4, 3)


def test_wreath_classes_json(capsys):
    code, out, _ = capture(
        capsys, ["wreath", "classes", "--group", "cyclic2", "--n", "2"]
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert all(set(r) == {"type", "size", "centralizer"} for r in rows)
    assert sum(r["size"] for r in rows) == 8


def test_group_info(capsys):
    code, out, _ = capture(capsys, ["group", "info", "--group", "sym3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert len(payload["classes"]) == 3


def test_jm_table(capsys):
    code, out, _ = capture(capsys, ["jm", "table", "--group", "trivial", "--n", "3"])
    assert code == 0
    json.loads(out)


def test_fock_verify_pass(capsys):
    code, out, _ = capture(
        capsys,
        ["fock", "verify", "heisenberg", "--group", "trivial", "--level", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"


def test_winf_pl(capsys):
    code, out, _ = capture(capsys, ["winf", "pl", "--l", "2"])
    assert code == 0
    assert json.loads(out)["P_l"] == ":(J0)^2: + d1J0"


def test_winf_verify_bracket(capsys):
    code, out, _ = capture(
        capsys,
        ["winf", "verify", "bracket", "--group", "cyclic2", "--order", "4"],
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_stable_constants_json(capsys):
    code, out, _ = capture(
        capsys, ["stable", "constants", "--group", "cyclic2", "--cap", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    pairs = {(p["rho"], p["sigma"]): p["terms"] for p in payload["pairs"]}
    terms = pairs[("c1:[1]", "c1:[1]")]
    assert {t["nu"]: t["dtilde"] for t in terms} == {
        "c0:[1]": 1,
        "c1:[1,1]": 2,
    }


def test_unknown_group_exit_2(capsys):
    code, _, err = capture(capsys, ["group", "info", "--group", "nonesuch"])
    assert code == 2


def test_bad_config_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nonsense_key": 1}))
    code, _, _ = capture(
        capsys, ["fock", "verify", "heisenberg", "--config", str(path)]
    )
    assert code == 2


def test_bad_format_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"format": "xml"}))
    code, _, _ = capture(
        capsys, ["winf", "pl", "--l", "2", "--config", str(path)]
    )
    assert code == 2


def test_config_merge(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"group": "cyclic2", "n": 2}))
    code, out, _ = capture(
        capsys, ["wreath", "classes", "--config", str(path)]
    )
    assert code == 0
    assert len(json.loads(out)) == 5


def test_flag_overrides_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"group": "cyclic2"}))
    code, out, _ = capture(
        capsys,
        ["wreath", "classes", "--config", str(path), "--group", "trivial", "--n", "3"],
    )
    assert code == 0
    assert len(json.loads(out)) == 3


def test_deterministic_output(tmp_path, capsys):
    argv = ["stable", "verify", "--group", "trivial", "--cap", "2"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(argv + ["--out", str(a)]) == 0
    capsys.readouterr()
    assert run(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_csv_format(capsys):
    code, out, _ = capture(
        capsys,
        [
            "fock",
            "verify",
            "cubic",
            "--group",
            "trivial",
            "--level",
            "3",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,status,failure_count"
    assert lines[1].endswith(",pass,0")


def test_all_trivial(capsys):
    code, out, _ = capture(
        capsys,
        ["all", "--group", "trivial", "--level", "3", "--order", "3", "--cap", "2"],
    )
    assert code == 0
    suites = json.loads(out)
    assert len(suites) == 11
    assert all(s["status"] == "pass" for s in suites)


def test_timing_on_stderr_not_stdout(capsys):
    code, out, err = capture(
        capsys,
        ["fock", "verify", "heisenberg", "--group", "trivial", "--level", "2"],
    )
    assert code == 0
    assert "s\n" in err or err == "" or err.startswith("#")
    json.loads(out)  # stdout stays machine-parseable


def _non_central(f, g):
    # one element of g's class: to_class_function raises its genuine
    # error on the first class with more than one element
    x = next(iter(g.to_group_algebra().coeffs))
    return algebra.to_class_function(
        algebra.GroupAlgebraElement(g.group, g.n, {x: 1})
    )


def test_error_inside_suite_is_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(fock, "convolve_n", _non_central)
    code, out, _ = capture(
        capsys, ["fock", "verify", "cubic", "--group", "cyclic2", "--level", "2"]
    )
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["failures"] == [
        ["exception", "ValueError", "element is not supported on full conjugacy classes"]
    ]


def test_arithmetic_error_inside_suite_is_a_failure(monkeypatch, capsys):
    def divide_by_zero(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(fock, "heis_k", divide_by_zero)
    code, out, _ = capture(
        capsys, ["all", "--group", "trivial", "--level", "1", "--cap", "1"]
    )
    assert code == 1
    reports = {r["suite"]: r for r in json.loads(out)}
    assert reports["heisenberg"]["failures"] == [
        ["exception", "ZeroDivisionError", "division by zero"]
    ]
    assert reports["jm"]["status"] == "pass"


def test_resource_cap_inside_suite_is_a_usage_error(monkeypatch, capsys):
    def refuse(*args):
        raise ResourceCapError("enumeration cap exceeded")

    monkeypatch.setattr(fock, "verify_cubic", refuse)
    code, out, err = capture(
        capsys, ["fock", "verify", "cubic", "--group", "trivial", "--level", "2"]
    )
    assert code == 2
    assert out == ""
    assert "enumeration cap exceeded" in err


def test_missing_character_table_inside_suite_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "c2.txt"
    path.write_text("order 2\n0 1\n1 0\n")
    code, out, _ = capture(
        capsys, ["winf", "verify", "level-one", "--group", str(path), "--level", "1"]
    )
    assert code == 2
    assert out == ""


def test_all_without_character_table_runs_no_suite(tmp_path, capsys):
    path = tmp_path / "c2.txt"
    path.write_text("order 2\n0 1\n1 0\n")
    code, out, err = capture(
        capsys, ["all", "--group", str(path), "--level", "1", "--cap", "1"]
    )
    assert code == 2
    assert out == ""
    assert "# heisenberg:" not in err
    assert "character table required" in err
