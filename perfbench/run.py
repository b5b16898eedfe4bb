"""Benchmark of the classalg CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload battery-cyclic2 --seed 1 --seconds 30 --trace 0

The workloads are in ``perfbench/workloads.json`` and the metrics in
``BENCHMARK.json``.  The code under ``src/`` runs through ``PYTHONPATH``;
every timed invocation is a fresh process, after one discarded warm-up
process that compiles the bytecode.

``--trace 0`` times the workload: ``setup_s`` is the median over
several fresh processes of importing ``classalg.cli`` and loading the
group; then the workload runs again and again, each time in a fresh
process, while the next run is expected to end within ``--seconds``;
``wall_s`` and ``peak_rss_mb`` are medians over those runs.

``--trace 1`` runs the workload once untraced and once under
``perfbench/tracer.py`` and reports the per-layer metrics, the suite
times and the tracing overhead.  The traced stdout must equal the
untraced stdout, and the tracer must have left no unwrapped original.

Every invocation is checked against ``perfbench/reference/<workload>.json``
(exit code; suite, parameters, status and failures of every report).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 9
# No invocation of a workload comes near this; it only bounds a hang.
INVOCATION_TIMEOUT_S = 120
SUITE_LINE = re.compile(r"^# (\S+): ([0-9.]+)s$", re.MULTILINE)
SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import classalg.cli\n"
    "classalg.cli.load_group(sys.argv[1])\n"
    "print(time.perf_counter() - t0)\n"
)


@dataclass
class Invocation:
    wall_s: float
    exit_code: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def environment():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def invoke(cmd):
    """Run ``cmd`` in a fresh process; wall time from spawn to reaping,
    peak RSS from ``wait4``."""
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=environment(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall, proc.returncode, out.decode(), err[0].decode(),
        usage.ru_maxrss / 1024,
    )


def setup_seconds(group):
    inv = invoke([sys.executable, "-c", SETUP_SNIPPET, group])
    if inv.exit_code != 0:
        raise RuntimeError(f"set-up process failed: {inv.stderr.strip()}")
    return float(inv.stdout)


def cli_argv(spec, seed):
    return [a.replace("{seed}", str(seed)) for a in spec["argv"]]


def group_of(argv):
    return argv[argv.index("--group") + 1]


def comparable(inv, argv):
    """The checked fields of each report, without the CLI seed, which
    must be the one in ``argv``.  Later fields (cells, skipped) are
    ignored, so the reference survives their addition."""
    try:
        reports = json.loads(inv.stdout)
    except ValueError:
        raise ValueError("stdout is not a JSON report") from None
    reports = reports if isinstance(reports, list) else [reports]
    cli_seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else None
    out = []
    for report in reports:
        params = dict(report.get("parameters", {}))
        if "seed" in params and params.pop("seed") != cli_seed:
            raise ValueError(f"suite {report.get('suite')} ran with another seed")
        out.append({
            "suite": report.get("suite"),
            "parameters": params,
            "status": report.get("status"),
            "failures": report.get("failures"),
        })
    return out


def check(inv, reference, argv):
    """None when ``inv`` matches the reference, else the reason."""
    if inv.exit_code != reference["exit_code"]:
        return f"exit code {inv.exit_code}, expected {reference['exit_code']}"
    try:
        got = comparable(inv, argv)
    except ValueError as exc:
        return str(exc)
    if got != reference["reports"]:
        bad = [r["suite"] for r in got if r not in reference["reports"]]
        return f"reports differ from the reference: {bad or 'suite list'}"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def git_sha():
    """The checkout's commit; git looks no higher than the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True,
        )
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def describe(name, value, unit, note):
    print(f"{name:<34} {value:>14.6g} {unit:<6} {note}")


def run_timed(reference, argv, seconds, failures):
    group = group_of(argv)
    setup_seconds(group)  # warm-up: compiles bytecode, discarded
    setup = [setup_seconds(group) for _ in range(SETUP_PROCESSES)]
    deadline = time.perf_counter() + seconds
    runs = []
    cmd = [sys.executable, "-m", "classalg.cli", *argv]
    while not runs or time.perf_counter() + statistics.median(
        r.wall_s for r in runs
    ) <= deadline:
        inv = invoke(cmd)
        runs.append(inv)
        reason = check(inv, reference, argv)
        if reason:
            failures.append((len(runs), reason))
    walls = [r.wall_s for r in runs]
    rss = [r.peak_rss_mb for r in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "wall_s": "median; q1 %.4f, q3 %.4f; n=%d" % (*quartiles(walls), len(walls)),
        "setup_s": "median of %d fresh processes; q1 %.4f, q3 %.4f"
        % (len(setup), *quartiles(setup)),
        "peak_rss_mb": "median; min %.2f, max %.2f; n=%d" % (min(rss), max(rss), len(rss)),
    }
    return metrics, notes, len(runs)


def run_traced(reference, argv, suites, failures):
    setup_seconds(group_of(argv))  # warm-up: compiles bytecode, discarded
    plain = invoke([sys.executable, "-m", "classalg.cli", *argv])
    traced = invoke([sys.executable, str(HERE / "tracer.py"), *argv])
    if traced.exit_code != 0:
        failures.append(("traced", f"tracer exited {traced.exit_code}: {traced.stderr.strip()[-300:]}"))
    try:
        result = json.loads(traced.stdout)
    except ValueError:
        failures.append(("traced", "printed no JSON result"))
        return None, {}, 2
    cli_run = Invocation(traced.wall_s, result["exit_code"], result["stdout"], result["stderr"], 0.0)
    for label, inv in (("untraced", plain), ("traced", cli_run)):
        reason = check(inv, reference, argv)
        if reason:
            failures.append((label, reason))
    if result["stdout"] != plain.stdout:
        failures.append(("traced", "stdout differs from the untraced stdout"))
    if result["leaks"]:
        failures.append(("traced", "unwrapped originals left: " + ", ".join(result["leaks"])))
    suite_s = {name: float(s) for name, s in SUITE_LINE.findall(plain.stderr)}
    metrics = dict(result["metrics"])
    notes = {}
    for suite in suites:
        metrics[f"cli.suite_s.{suite}"] = suite_s.get(suite, 0.0)
        if suite not in suite_s:
            notes[f"cli.suite_s.{suite}"] = "not run by this workload"
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    notes["trace.overhead_s"] = "traced %.3f s - untraced %.3f s" % (traced.wall_s, plain.wall_s)
    for name, base in result["ratio_bases"].items():
        notes[name] = f"of {base}" if base else "base is 0, so it reads 0"
    return metrics, notes, 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "classalg" / "cli.py").is_file():
        print(f"error: no classalg sources under {SRC}", file=sys.stderr)
        return 2
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    argv = cli_argv(workloads[args.workload], args.seed)

    print(f"# workload {args.workload}: classalg {' '.join(argv)}")
    print(
        f"# machine {platform.platform()} ({platform.machine()}, {os.cpu_count()} cpus); "
        f"python {platform.python_version()}; git {git_sha()}; seed {args.seed}"
    )
    failures = []
    if args.trace:
        suites = [n[len("cli.suite_s."):] for n in units if n.startswith("cli.suite_s.")]
        metrics, notes, attempted = run_traced(reference, argv, suites, failures)
    else:
        metrics, notes, attempted = run_timed(reference, argv, args.seconds, failures)
    for label, reason in failures:
        print(f"# failure ({label}): {reason}", file=sys.stderr)
    if metrics is None:
        return 1
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    failed = len({label for label, _ in failures})
    for name in units:
        describe(name, metrics[name], units[name], notes.get(name, ""))
    if not args.trace:
        describe("failed_ops", failed / attempted, "ratio", f"{failed} failed of {attempted} invocations")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
