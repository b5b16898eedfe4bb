"""Write ``perfbench/reference/<workload>.json`` from the current code.

Usage, from the repository root::

    python3 perfbench/capture_reference.py

It writes the reference of every workload: the exit code and the
checked report fields of one untraced run with benchmark seed 0.
Capture again only when a change is meant to alter those fields.
"""

import json
import sys

import run


def main():
    specs = json.loads((run.HERE / "workloads.json").read_text())["workloads"]
    for name, spec in specs.items():
        argv = run.cli_argv(spec, 0)
        inv = run.invoke([sys.executable, "-m", "classalg.cli", *argv])
        reference = {"exit_code": inv.exit_code, "reports": run.comparable(inv, argv)}
        path = run.HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(reference, indent=2) + "\n")
        print(f"{path.relative_to(run.ROOT)}: exit {inv.exit_code}")


if __name__ == "__main__":
    main()
