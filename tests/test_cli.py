import contextlib
import functools
import io
import json

import pytest

import classalg.algebra as algebra
import classalg.fock as fock
import classalg.scalars as scalars
import classalg.wreath as wreath
from classalg.cli import SUITES, RunConfig, _stable_cap, build_config, build_parser, run
from classalg.groups import load_group
from classalg.wreath import ResourceCapError
from oracles import to_group_algebra


def capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_defaults():
    cfg = RunConfig()
    assert (cfg.group, cfg.level, cfg.order, cfg.cap) == ("trivial", 4, 4, None)


def test_unset_cap_is_3_on_trivial_and_2_elsewhere(tmp_path):
    def cap(group, *extra):
        args = build_parser().parse_args(["stable", "verify", *extra])
        return _stable_cap(load_group(group), build_config(args))

    path = tmp_path / "run.json"
    path.write_text(json.dumps({"cap": 3}))
    assert (cap("trivial"), cap("cyclic2")) == (3, 2)
    assert cap("cyclic2", "--cap", "3") == 3
    assert cap("cyclic2", "--config", str(path)) == 3


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


def test_stable_constants_caps_an_unset_cap_like_stable_verify(capsys):
    # off the trivial group an unset cap is 2; the report prints it
    argv = ["stable", "constants", "--group", "cyclic2"]
    code, out, _ = capture(capsys, argv)
    assert (code, out) == capture(capsys, [*argv, "--cap", "2"])[:2]
    assert json.loads(out)["cap"] == 2
    code, out, _ = capture(capsys, ["stable", "constants", "--group", "trivial"])
    assert code == 0 and json.loads(out)["cap"] == 3


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


@pytest.mark.parametrize(
    "args",
    [
        ["--group", "trivial", "--cap", "2", "--n", "1"],
        ["--group", "cyclic2", "--n", "1"],
        ["--group", "trivial", "--n", "0"],
    ],
)
def test_stable_verify_below_the_cap_passes(args, capsys):
    code, out, _ = capture(capsys, ["stable", "verify", *args])
    assert code == 0
    report = json.loads(out)
    assert (report["status"], report["failures"]) == ("pass", [])


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


TABLE_COMMANDS = [
    ["group", "info", "--group", "cyclic2"],
    ["wreath", "classes", "--group", "cyclic2", "--n", "2"],
    ["jm", "table", "--group", "trivial", "--n", "2"],
    ["winf", "pl", "--l", "2"],
    ["stable", "constants", "--group", "cyclic2", "--cap", "1"],
]


@pytest.mark.parametrize("argv", TABLE_COMMANDS)
def test_csv_table_is_a_usage_error(argv, tmp_path, capsys):
    # a table has no csv form: refused, from the flag or the config file
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"format": "csv"}))
    for extra in (["--format", "csv"], ["--config", str(path)]):
        code, out, err = capture(capsys, argv + extra)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "csv" in err


def test_enumeration_cap_override(monkeypatch, tmp_path, capsys):
    # without a character table, --cap 1 enumerates Gamma_2 (18 elements)
    path = tmp_path / "c3.txt"
    path.write_text("order 3\n0 1 2\n1 2 0\n2 0 1\n")
    argv = ["stable", "constants", "--group", str(path), "--cap", "1"]
    monkeypatch.setenv("CLASSALG_ENUM_CAP", "10")
    code, out, err = capture(capsys, argv)
    assert (code, out) == (2, "")
    assert "exceeds enumeration cap 10" in err
    monkeypatch.delenv("CLASSALG_ENUM_CAP")
    code, out, _ = capture(capsys, argv)
    assert code == 0 and json.loads(out)["pairs"]


@pytest.mark.parametrize("value", ["abc", "1e6", "-5"])
def test_malformed_enumeration_cap_is_a_usage_error(value, monkeypatch, capsys):
    # read once before any suite runs, on a battery and on a table command
    monkeypatch.setenv("CLASSALG_ENUM_CAP", value)
    for argv in (
        ["all", "--group", "trivial", "--level", "2"],
        ["stable", "constants", "--group", "trivial", "--cap", "1"],
    ):
        code, out, err = capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: CLASSALG_ENUM_CAP") and repr(value) in err
    monkeypatch.setenv("CLASSALG_ENUM_CAP", "1000")
    code, out, _ = capture(capsys, ["all", "--group", "trivial", "--level", "2"])
    assert code == 0 and out


def test_enumeration_cap_checked_before_any_level_table(monkeypatch, tmp_path, capsys):
    # without a character table, --cap 3 needs Gamma_6 of cyclic4
    # (2,949,120 elements): refused before any level is enumerated
    path = tmp_path / "c4.txt"
    path.write_text("order 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")

    def enumerated(*args):
        raise AssertionError("enumerate_group was called")

    monkeypatch.setattr(wreath, "enumerate_group", enumerated)
    code, out, err = capture(
        capsys, ["stable", "constants", "--group", str(path), "--cap", "3"]
    )
    assert (code, out) == (2, "")
    assert "|Gamma_6| = 2949120 exceeds enumeration cap" in err


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
    x = next(iter(to_group_algebra(g).coeffs))
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


@pytest.mark.parametrize(
    "config", [{"level": "3"}, {"group": 3}, {"seed": None}, {"level": True}]
)
def test_config_value_of_wrong_type_exit_2(config, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = capture(
        capsys, ["fock", "verify", "cubic", "--level", "1", "--config", str(path)]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: config key")


@pytest.mark.parametrize(
    "argv",
    [
        ["fock", "verify", "heisenberg", "--level", "-1"],
        ["stable", "verify", "--cap", "-1"],
        ["generators", "--n", "-1"],
        ["winf", "verify", "bracket", "--order", "-3"],
    ],
)
def test_negative_count_flag_exit_2(argv, capsys):
    code, out, err = capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must not be negative" in err


def test_negative_config_value_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"triples": -1}))
    code, out, err = capture(
        capsys, ["winf", "verify", "bracket", "--config", str(path)]
    )
    assert (code, out) == (2, "")
    assert "triples must not be negative" in err


def test_negative_seed_is_allowed(capsys):
    argv = ["winf", "verify", "bracket", "--triples", "2", "--seed", "-5"]
    code, out, _ = capture(capsys, argv)
    assert code == 0
    assert json.loads(out)["parameters"]["seed"] == -5


# Each single-suite command with the flags of ALL_FLAGS that it takes.
ALL_FLAGS = ["--level", "2", "--cap", "1", "--pairs", "3", "--triples", "5"]
FOCK_FLAGS = ALL_FLAGS[:2]
WINF_FLAGS = FOCK_FLAGS + ALL_FLAGS[4:]
SINGLE_SUITE_COMMANDS = {
    "heisenberg": ["fock", "verify", "heisenberg", *FOCK_FLAGS],
    "virasoro": ["fock", "verify", "virasoro", *FOCK_FLAGS],
    "cubic": ["fock", "verify", "cubic", *FOCK_FLAGS],
    "covcomm": ["fock", "verify", "covcomm", *FOCK_FLAGS],
    "dictionary": ["fock", "verify", "dictionary", *FOCK_FLAGS],
    "vo": ["winf", "verify", "vo", *WINF_FLAGS],
    "level-one": ["winf", "verify", "level-one", *WINF_FLAGS],
    "bracket": ["winf", "verify", "bracket", *WINF_FLAGS],
    "stable": ["stable", "verify", "--cap", "1"],
    "generators": ["generators"],
}


@functools.lru_cache(maxsize=None)
def _battery(group):
    """The reports of `all` by suite name."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(["all", "--group", group, *ALL_FLAGS]) == 0
    return {r["suite"]: r for r in json.loads(out.getvalue())}


def test_every_suite_but_jm_has_a_single_suite_command():
    assert set(SINGLE_SUITE_COMMANDS) == set(SUITES) - {"jm"}
    assert list(_battery("trivial")) == list(SUITES)


@pytest.mark.parametrize("suite", sorted(SINGLE_SUITE_COMMANDS))
@pytest.mark.parametrize("group", ["trivial", "cyclic2"])
def test_single_suite_command_prints_the_battery_report(group, suite, capsys):
    code, out, err = capture(
        capsys, [*SINGLE_SUITE_COMMANDS[suite], "--group", group]
    )
    assert code == 0
    assert out == json.dumps(_battery(group)[suite], indent=2) + "\n"
    assert err.startswith(f"# {suite}: ")


@pytest.mark.parametrize("conductor", [0, -2])
def test_conductor_below_1_is_a_usage_error(conductor, tmp_path, capsys):
    path = tmp_path / "c2.txt"
    path.write_text(
        f"order 2\n0 1\n1 0\ncharacters conductor {conductor}\n1, 1\n1, -1\n"
    )
    code, out, err = capture(capsys, ["group", "info", "--group", str(path)])
    assert code == 2
    assert out == ""
    assert f"conductor must be a positive integer, got {conductor}" in err


def _two_element_file(tmp_path, characters):
    path = tmp_path / "c2.txt"
    path.write_text("order 2\n0 1\n1 0\n" + characters)
    return str(path)


def test_conductor_not_dividing_twice_the_exponent_is_a_usage_error(
    tmp_path, capsys, monkeypatch
):
    # every value lies in Q(zeta_e), e = 2 here: conductor 200003 is
    # refused before any value is parsed, so no table of powers is built
    def refuse(m):
        raise AssertionError(f"powers({m}) was built")

    monkeypatch.setattr(scalars, "powers", refuse)
    path = _two_element_file(
        tmp_path, "characters conductor 200003\n1, 1\n1, z^0 - 2\n"
    )
    code, out, err = capture(capsys, ["group", "info", "--group", path])
    assert (code, out) == (2, "")
    assert path in err and "conductor 200003" in err and "exponent 2" in err


def test_conductor_twice_an_odd_exponent_is_accepted(tmp_path, capsys):
    # Q(zeta_3) = Q(zeta_6): cyclic3 may declare conductor 6, z^2 = zeta_3
    path = tmp_path / "c3.txt"
    path.write_text(
        "order 3\n0 1 2\n1 2 0\n2 0 1\ncharacters conductor 6\n"
        "1, 1, 1\n1, z^2, z^4\n1, z^4, z^2\n"
    )
    code, out, err = capture(capsys, ["group", "info", "--group", str(path)])
    assert code == 0, err
    _, preset, _ = capture(capsys, ["group", "info", "--group", "cyclic3"])
    table = json.loads(out)["character_table"]
    assert table == json.loads(preset)["character_table"]


@pytest.mark.parametrize("command", [["group", "info"], ["all", "--level", "1"]])
def test_zero_denominator_in_a_character_is_a_usage_error(command, tmp_path, capsys):
    path = _two_element_file(tmp_path, "characters\n1, 1\n1, 1/0\n")
    code, out, err = capture(capsys, [*command, "--group", path])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'1/0'" in err


@pytest.mark.parametrize("header", ["characters cnductor 2", "characters conductor"])
def test_malformed_characters_header_is_a_usage_error(header, tmp_path, capsys):
    path = _two_element_file(tmp_path, f"{header}\n1, 1\n1, -1\n")
    code, out, err = capture(capsys, ["group", "info", "--group", path])
    assert (code, out) == (2, "")
    assert path in err and repr(header) in err


@pytest.mark.parametrize("header", ["order 2 3", "order -1", "order 0", "order two"])
def test_malformed_order_header_is_a_usage_error(header, tmp_path, capsys):
    path = tmp_path / "c2.txt"
    path.write_text(f"{header}\n0 1\n1 0\n")
    code, out, err = capture(capsys, ["group", "info", "--group", str(path)])
    assert (code, out) == (2, "")
    assert str(path) in err and repr(header) in err


def test_indented_comment_lines_are_comments(tmp_path, capsys):
    body = "order 2\n0 1\n{}1 0\ncharacters\n1, 1\n{}1, -1\n"
    reports = []
    for name, table_note, character_note in [
        ("plain.txt", "", ""),
        ("indented.txt", "  # note\n", "   # note\n"),
    ]:
        path = tmp_path / name
        path.write_text(body.format(table_note, character_note))
        code, out, _ = capture(capsys, ["group", "info", "--group", str(path)])
        assert code == 0
        reports.append({**json.loads(out), "name": None})
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "text, where",
    [
        ("order 2\n0 1\n1 x\n", "line 3: invalid literal for int() with base 10: 'x'"),
        (
            "order 2\n0 1\n# note\n1 0\ncharacters\n1, 1\n1, y\n",
            "line 7: cannot parse term 'y'",
        ),
    ],
    ids=["table", "characters"],
)
def test_malformed_entry_names_the_file_and_line(text, where, tmp_path, capsys):
    path = tmp_path / "c2.txt"
    path.write_text(text)
    code, out, err = capture(capsys, ["group", "info", "--group", str(path)])
    assert (code, out) == (2, "")
    assert f"{path}: {where}" in err


def test_character_row_of_wrong_length_is_a_usage_error(tmp_path, capsys):
    path = _two_element_file(tmp_path, "characters\n1, 1\n1\n")
    code, out, err = capture(capsys, ["group", "info", "--group", path])
    assert (code, out) == (2, "")
    assert "row 1 has 1 values for 2 classes" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("order 2\n0 1\n# note\n1 0 1\n", "line 4: 3 entries, expected 2"),
        ("order 2\n0 1\n1 1\n", "element 1 has no inverse"),
        (
            "order 2\n0 1\n1 0\ncharacters\n1, 1\n1, 2\n",
            "row orthonormality fails on rows (0, 1): <,> = 3/2",
        ),
        ("order 2\n0 1\n1 0\ncharacters\n1, 1\n", "1 rows for 2 classes"),
    ],
    ids=["table row length", "group axiom", "orthonormality", "character rows"],
)
def test_invalid_group_file_error_names_the_file(text, message, tmp_path, capsys):
    path = tmp_path / "c2.txt"
    path.write_text(text)
    code, out, err = capture(capsys, ["group", "info", "--group", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


def test_undecodable_group_file_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "c2.txt"
    path.write_bytes(b"order 2\n0 1\n1 0\n# \xff\n")
    code, out, err = capture(capsys, ["group", "info", "--group", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    argv = ["fock", "verify", "heisenberg", "--level", "1", "--out", str(target)]
    code, out, err = capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "# heisenberg:" not in err
    assert not target.exists()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_path_is_refused_before_any_suite(where, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json" if where != "directory" else tmp_path
    argv = ["all", "--group", "trivial", "--level", "1", "--out", str(target)]
    code, out, err = capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert not any(line.startswith("#") for line in err.splitlines())
    assert list(tmp_path.iterdir()) == []
