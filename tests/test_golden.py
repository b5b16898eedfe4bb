"""Byte-for-byte stdout of CLI calls whose output runs through Cyc arithmetic.

The files under ``tests/golden/`` were captured before the scalar kernel
gained its rational and same-conductor fast paths; any change to them
is a change of behaviour.
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, capsys):
    code = run(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
