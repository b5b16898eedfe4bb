"""The README's examples run as written.

Each `classalg ...` line of the "Command-line usage" block runs as
`python -m classalg.cli ...` and must exit 0, and the group-file example
of the "Groups" section must load and pass the vertex-operator check.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _first_block(section):
    """The body of the first fenced block under the `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", body, re.S).group(1)


USAGE = [
    shlex.split(line)[1:]
    for line in _first_block("Command-line usage").splitlines()
    if line.startswith("classalg ")
]


def _cli(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-m", "classalg.cli", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_usage_block_lists_the_examples():
    assert len(USAGE) == 10


@pytest.mark.parametrize("argv", USAGE, ids=" ".join)
def test_usage_example_exits_0(argv):
    proc = _cli(argv)
    assert proc.returncode == 0, proc.stderr


def test_group_file_example_loads_and_passes_vo(tmp_path):
    path = tmp_path / "group.txt"
    path.write_text(_first_block("Groups"))
    assert "characters conductor" in path.read_text()
    info = _cli(["group", "info", "--group", str(path)])
    assert info.returncode == 0, info.stderr
    vo = _cli(["winf", "verify", "vo", "--group", str(path), "--level", "2", "--order", "3"])
    assert vo.returncode == 0, vo.stderr
