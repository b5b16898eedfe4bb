"""Byte-for-byte stdout of a fixed set of CLI calls: the behaviour contract.

Each file under ``tests/golden/`` was captured from an earlier version
of the program before a refactor that had to keep it: the level-one and
group-info cases before the scalar kernel gained its fast paths, the
cyclic2 tables and battery before Fock vectors became one flat map,
the trivial battery before the containers shared one sparse base.
Any change to them is a change of behaviour.
"""

from pathlib import Path

import pytest

from classalg.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "winf-level-one-cyclic3.out": [
        "winf", "verify", "level-one", "--group", "cyclic3", "--level", "2",
        "--pairs", "1", "--k", "1", "--seed", "0",
    ],
    # phi(5) = 4, so products are reduced with a non-trivial table
    "winf-level-one-cyclic5.out": [
        "winf", "verify", "level-one", "--group", "cyclic5", "--level", "2",
        "--pairs", "1", "--k", "1", "--seed", "0",
    ],
    "group-info-cyclic5.out": ["group", "info", "--group", "cyclic5"],
    "jm-table-cyclic2.out": ["jm", "table", "--group", "cyclic2", "--n", "3"],
    "wreath-classes-cyclic2.out": [
        "wreath", "classes", "--group", "cyclic2", "--n", "3",
    ],
    "stable-constants-cyclic2.out": [
        "stable", "constants", "--group", "cyclic2", "--cap", "2",
    ],
    "all-cyclic2.out": [
        "all", "--group", "cyclic2", "--level", "2", "--pairs", "3",
        "--triples", "5",
    ],
    "all-trivial.out": ["all", "--group", "trivial"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, capsys):
    code = run(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
