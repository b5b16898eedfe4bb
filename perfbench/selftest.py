"""Self-tests of the benchmark's tracer.

Usage, from the repository root::

    python3 perfbench/selftest.py

Coverage: in this process, install the tracer and assert that no
classalg namespace or layer class still holds an unwrapped original,
naming the bindings that are easiest to miss (functions imported into
another module, and the reflected halves of aliased dunders).

Then, for every workload: run it once untraced and twice traced with
benchmark seed 1.  No perturbation: both traced stdouts equal
the untraced stdout byte for byte.  Count determinism: every count and
ratio metric of the two traced runs is equal.

Exits 0 when every test passes, 1 otherwise.
"""

import importlib
import json
import sys

import run
from tracer import Tracer

SEED = 1

# Bindings of an original outside the module that defines it.
FOREIGN_BINDINGS = (
    ("classalg.winf", "heis", "classalg.fock"),
    ("classalg.winf", "op_O", "classalg.fock"),
    ("classalg.stable", "type_of", "classalg.wreath"),
    ("classalg.stable", "enumerate_class", "classalg.wreath"),
    ("classalg.fock", "convolve_n", "classalg.algebra"),
    ("classalg.cli", "load_group", "classalg.groups"),
    ("classalg", "type_of", "classalg.wreath"),
)
ALIASED_DUNDERS = (
    ("Cyc", "__radd__", "__add__"),
    ("Cyc", "__rmul__", "__mul__"),
)


def check_coverage():
    sys.path.insert(0, str(run.SRC))
    originals = {}
    for module, name, home in FOREIGN_BINDINGS:
        originals[(module, name)] = getattr(importlib.import_module(module), name)
    scalars = importlib.import_module("classalg.scalars")
    for cls, name, _ in ALIASED_DUNDERS:
        originals[(cls, name)] = vars(getattr(scalars, cls))[name]
    tracer = Tracer().install()

    errors = [f"unwrapped original at {where}" for where in tracer.leaks()]
    for module, name, home in FOREIGN_BINDINGS:
        bound = getattr(sys.modules[module], name)
        if bound is originals[(module, name)] or bound is not getattr(sys.modules[home], name):
            errors.append(f"{module}.{name} is not the wrapper of {home}.{name}")
    for cls, name, alias_of in ALIASED_DUNDERS:
        attrs = vars(getattr(scalars, cls))
        if attrs[name] is originals[(cls, name)]:
            errors.append(f"{cls}.{name} (alias of {alias_of}) is unwrapped")
    return errors


def check_workload(name, spec):
    argv = run.cli_argv(spec, SEED)
    plain = run.invoke([sys.executable, "-m", "classalg.cli", *argv])
    traced = [
        json.loads(run.invoke([sys.executable, str(run.HERE / "tracer.py"), *argv]).stdout)
        for _ in range(2)
    ]
    errors = []
    for i, result in enumerate(traced, 1):
        if result["stdout"] != plain.stdout:
            errors.append(f"{name}: traced run {i} stdout differs from untraced stdout")
        if result["exit_code"] != plain.exit_code:
            errors.append(f"{name}: traced run {i} exit code differs")
    first, second = (r["metrics"] for r in traced)
    counts = [m for m in first if not m.endswith("_s")]
    for metric in counts:
        if first[metric] != second[metric]:
            errors.append(f"{name}: {metric} is {first[metric]} then {second[metric]}")
    return errors, len(counts)


def main():
    specs = json.loads((run.HERE / "workloads.json").read_text())["workloads"]

    errors = check_coverage()
    print(f"coverage: {'ok' if not errors else 'FAILED'}")
    for name, spec in specs.items():
        found, compared = check_workload(name, spec)
        print(f"{name}: {'ok' if not found else 'FAILED'} "
              f"(stdout of 2 traced runs vs untraced; {compared} counts and ratios compared)")
        errors += found
    for error in errors:
        print(f"  {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
