"""The benchmark's correctness gate, replayed at test time.

perfbench/run.py refuses a run whose output differs from
perfbench/reference/<workload>.json.  This runs each workload of
perfbench/workloads.json once at benchmark seed 1, in a fresh process,
and judges it with run.py's own cli_argv and check, so that a change
that the benchmark would count as incorrect fails here first.  It reads
perfbench/ and writes nothing there.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]
SEED = 1


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_its_reference(bench, name):
    argv = bench.cli_argv(WORKLOADS[name], SEED)
    reference = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())
    inv = bench.invoke([sys.executable, "-m", "classalg.cli", *argv])
    assert bench.check(inv, reference, argv) is None, inv.stderr[-2000:]
