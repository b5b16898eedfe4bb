"""The benchmark tracer still covers the library.

perfbench/tracer.py looks its metrics up by the qualified names of
functions and methods as they appear in module and class bodies, so a
rename, or a method that a class now inherits instead of binding,
breaks it.  One cheap traced CLI call checks that every per-layer
metric of BENCHMARK.json is still produced and that nothing is left
unwrapped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_covers_every_per_layer_metric():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
         "group", "info", "--group", "trivial"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exit_code"] == 0
    assert result["leaks"] == []
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [
        m["name"] for m in benchmark["per_layer"]
        if not m["name"].startswith(("cli.", "trace."))
    ]
    assert names
    assert sorted(set(names) - set(result["metrics"])) == []


def test_selftest_coverage_of_pinned_bindings():
    # perfbench/selftest.py pins the bindings that the tracer must
    # rewrap, such as the fock functions that winf imports; run its
    # coverage check alone
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, selftest; print(json.dumps(selftest.check_coverage()))"],
        capture_output=True, text=True, env=env, cwd=ROOT / "perfbench", timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
