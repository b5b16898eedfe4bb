"""`classalg all` on two CPUs: the fock suites run in the process and
the others in one forked worker.  Every case here ends with no child
process left, and the one-CPU path (forced by patching the CPU probe)
forks nothing.
"""

import json
import os
import re

import pytest

import classalg.algebra as algebra
import classalg.cli as cli
import classalg.fock as fock
import classalg.winf as winf
from classalg.wreath import ResourceCapError

SUITE_LINE = re.compile(r"^# (\S+): ([0-9.]+)s$")
SMALL = ["all", "--group", "trivial", "--level", "1", "--cap", "1"]


@pytest.fixture
def forks(monkeypatch):
    """Run `all` with a given number of usable CPUs; return the exit
    code, stdout, stderr and the number of forks."""
    real_fork = os.fork

    def run_with(cpus, argv, capsys):
        count = []

        def counting_fork():
            count.append(1)
            return real_fork()

        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", counting_fork)
        code = cli.run(argv)
        out, err = capsys.readouterr()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child left, running or unreaped
        return code, out, err, len(count)

    return run_with


@pytest.mark.parametrize(
    "group, level",
    [("trivial", 3), ("cyclic2", 2), ("cyclic3", 2), ("sym3", 2)],
)
def test_one_and_two_cpu_paths_agree(group, level, forks, capsys):
    argv = ["all", "--group", group, "--level", str(level), "--seed", "1"]
    one = forks(1, argv, capsys)
    two = forks(2, argv, capsys)
    assert (one[3], two[3]) == (0, 1)
    assert one[:2] == two[:2]
    assert one[0] == 0
    for err in (one[2], two[2]):
        lines = err.splitlines()
        assert [SUITE_LINE.match(line)[1] for line in lines] == list(cli.SUITES)


def test_worker_suite_failure_fails_only_that_suite(forks, monkeypatch, capsys):
    def divide_by_zero(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(winf, "verify_bracket_laws", divide_by_zero)
    code, out, err, forked = forks(2, SMALL, capsys)
    assert (code, forked) == (1, 1)
    reports = json.loads(out)
    assert [r["suite"] for r in reports] == list(cli.SUITES)
    assert [r["suite"] for r in reports if r["status"] == "fail"] == ["bracket"]
    assert reports[8]["failures"] == [
        ["exception", "ZeroDivisionError", "division by zero"]
    ]
    assert len(err.splitlines()) == 11


def test_worker_resource_cap_is_a_usage_error(forks, monkeypatch, capsys):
    def refuse(*args):
        raise ResourceCapError("enumeration cap exceeded")

    monkeypatch.setattr(winf, "verify_bracket_laws", refuse)
    code, out, err, forked = forks(2, SMALL, capsys)
    assert (code, out, forked) == (2, "", 1)
    assert err.endswith("error: enumeration cap exceeded\n")


def _raise_in(monkeypatch, module, name, message):
    def refuse(*args):
        raise ResourceCapError(message)

    monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize(
    "patches, winner",
    [
        # the parent's cubic raises, the worker's suites pass
        ([(fock, "verify_cubic", "cubic")], "cubic"),
        # jm (worker) comes before cubic (parent) in the order of `all`
        ([(fock, "verify_cubic", "cubic"), (algebra, "verify_jm", "jm")], "jm"),
        # heisenberg (parent) comes before jm (worker)
        (
            [(fock, "verify_heisenberg", "heisenberg"), (algebra, "verify_jm", "jm")],
            "heisenberg",
        ),
    ],
)
def test_the_earlier_raising_suite_wins(patches, winner, forks, monkeypatch, capsys):
    for module, name, suite in patches:
        _raise_in(monkeypatch, module, name, suite)
    one = forks(1, SMALL, capsys)
    two = forks(2, SMALL, capsys)
    assert one[:2] == two[:2] == (2, "")
    for err in (one[2], two[2]):
        *lines, last = err.splitlines()
        assert last == f"error: {winner}"
        # the suites before the raising one print their lines
        names = list(cli.SUITES)
        assert [SUITE_LINE.match(line)[1] for line in lines] == names[
            : names.index(winner)
        ]


def test_a_worker_that_dies_is_an_error_not_a_partial_report(
    forks, monkeypatch, capsys
):
    monkeypatch.setattr(winf, "verify_bracket_laws", lambda *args: os._exit(3))
    code, out, err, forked = forks(2, SMALL, capsys)
    assert (code, out, forked) == (2, "", 1)
    assert err == "error: the worker of all ended before suite bracket reported\n"
