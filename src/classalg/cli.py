"""Command-line entry point: group loading, verification-suite
orchestration, and table emission.  The suites are the entries of
SUITES, and run_suite builds every report.

Exit codes: 0 all requested suites pass, 1 verification failure,
2 usage or configuration error.  A ValueError or ArithmeticError raised
while a suite runs is a counterexample: the suite reports it as a
failure.  Errors in the configuration or the group file (a missing
character table included), ResourceCapError and an --out path that
cannot be written stay usage errors.
Reports are deterministic for a given configuration and seed (timings
go to stderr); all scalars are emitted as exact strings, never floats.

`all` runs its suites on two CPUs when the process may use two or more
(os.sched_getaffinity): the fock suites here, and the others in one
forked worker that sends its reports and suite lines back over a pipe.
The split is fixed by suite, so stdout and the work each process does
repeat from run to run.  The reports and the `# <suite>: <t>s` lines
come out in the order of SUITES, the lines once every suite has run.
With one CPU nothing is forked and each line is printed as its suite
ends.

At module level this imports only the standard library, groups and
scalars (which groups loads anyway).  Each suite setup and table function imports
the layer it runs when it is called, so a command compiles and loads
only what it uses; a new layer import belongs inside the setup that
needs it.  The suites read functions through the module at call time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, NamedTuple

from .groups import CharacterTableError, k_basis, load_group, require_character_table
from .scalars import scalar_to_string

USAGE_ERROR = 2


class RunConfig(NamedTuple):
    """Run parameters with documented defaults (L=4, N=4, cap=3)."""

    group: str = "trivial"
    level: int = 4
    order: int = 4
    cap: int = 3
    n: int | None = None
    k: int = 3
    l: int = 3
    pairs: int = 20
    triples: int = 25
    seed: int = 0
    format: str = "json"
    out: str | None = None

    # which fields came from an explicit flag or config entry
    explicit: frozenset = frozenset()


# Every RunConfig field but `explicit`: its flag's type and help text.
FLAGS = {
    "group": (str, "group preset name or table file"),
    "level": (int, "truncation level L"),
    "order": (int, "series truncation order N"),
    "cap": (int, "norm cap for stable constants"),
    "n": (int, "wreath level n"),
    "k": (int, "maximum power-sum exponent"),
    "l": (int, "index of the normally ordered polynomial"),
    "pairs": (int, "number of sampled pairs"),
    "triples": (int, "number of sampled triples"),
    "seed": (int, "seed for sampled checks"),
    "format": (str, "output format: json, or csv for a suite report"),
    "out": (str, "write the report to this path"),
}


class ConfigError(ValueError):
    pass


def build_config(args):
    """Merge defaults < --config file < explicit flags.

    A config value must have its flag's type exactly (so `true` is not
    an int and `null` is no value at all), and a count, level or cap
    must not be negative.
    """
    values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in data.items():
            if key not in FLAGS:
                raise ConfigError(f"unknown config key: {key}")
            typ = FLAGS[key][0]
            if type(value) is not typ:
                raise ConfigError(f"config key {key} must be of type {typ.__name__}")
            values[key] = value
    for name in FLAGS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if values.get("format", "json") not in ("json", "csv"):
        raise ConfigError("format must be json or csv")
    for name in ("level", "order", "cap", "n", "k", "pairs", "triples"):
        if values.get(name, 0) < 0:
            raise ConfigError(f"{name} must not be negative")
    return RunConfig(**values, explicit=frozenset(values))


# -- report plumbing -----------------------------------------------------


def _stringify(value):
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (int, str)):
        return value
    return scalar_to_string(value)


def run_suite(name, group, cfg, log=None):
    """Run the suite SUITES[name] and build its report.

    A ValueError or ArithmeticError raised by the check is its one
    failure; a missing character table stays a usage error.  The line
    `# <name>: <t>s` goes to log, else to sys.stderr.
    """
    parameters, check = SUITES[name].setup(group, cfg)
    start = time.monotonic()
    try:
        failures = check()
    except CharacterTableError:
        raise
    except (ValueError, ArithmeticError) as exc:
        failures = [("exception", type(exc).__name__, str(exc))]
    print(
        f"# {name}: {time.monotonic() - start:.2f}s",
        file=sys.stderr if log is None else log,
    )
    return {
        "suite": name,
        "parameters": _stringify({"group": group.name, **parameters}),
        "status": "fail" if failures else "pass",
        "failures": _stringify(list(failures)),
    }


def emit(payload, cfg):
    if cfg.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = ["suite,status,failure_count"]
        reports = payload if isinstance(payload, list) else [payload]
        for r in reports:
            rows.append(f"{r['suite']},{r['status']},{len(r['failures'])}")
        text = "\n".join(rows) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def exit_code(reports):
    reports = reports if isinstance(reports, list) else [reports]
    bad = any(r.get("status") == "fail" for r in reports if isinstance(r, dict))
    return 1 if bad else 0


# -- suites ---------------------------------------------------------------
#
# Each setup takes (group, cfg) and returns the report parameters (the
# group is added by run_suite) and a thunk that runs the check and
# returns its failures.

JM_MAX_ELEMENTS = 20000  # jm checks only the levels n with |Gamma_n| <= this


def _heisenberg(group, cfg):
    from . import fock
    params = {"level": cfg.level, "max_mode": 3}
    return params, lambda: fock.verify_heisenberg(group, cfg.level, 3)


def _jm(group, cfg):
    from . import algebra, wreath
    levels = [
        n
        for n in range(1, cfg.level + 1)
        if wreath.wreath_order(group, n) <= JM_MAX_ELEMENTS
    ]
    return {"levels": levels}, lambda: [
        f for n in levels for f in algebra.verify_jm(group, n)
    ]


def _virasoro(group, cfg):
    from . import fock
    params = {"level": cfg.level, "max_mode": 2}
    return params, lambda: fock.verify_virasoro(group, cfg.level, 2)


def _cubic(group, cfg):
    from . import fock
    return {"level": cfg.level}, lambda: fock.verify_cubic(group, cfg.level)


def _covcomm(group, cfg):
    from . import fock
    params = {"level": cfg.level, "max_k": cfg.k}
    return params, lambda: fock.verify_covcomm(group, cfg.k, cfg.level)


def _dictionary(group, cfg):
    from . import fock
    return {"degree": cfg.level}, lambda: fock.verify_dictionary(group, cfg.level)


def _vo(group, cfg):
    from . import winf
    level = min(cfg.level, 3)
    params = {
        "level": level,
        "series_order": cfg.order,
        "irreducibles": group.num_classes,  # a character table is square
    }

    def check():
        table = require_character_table(group)
        return [
            f
            for gi in range(len(table.rows))
            for f in winf.verify_vo(group, gi, level, cfg.order)
        ]

    return params, check


def _level_one(group, cfg):
    from . import winf
    level, max_k = min(cfg.level, 3), min(cfg.k, 3)
    params = {"level": level, "pairs": cfg.pairs, "seed": cfg.seed, "max_k": max_k}
    return params, lambda: [
        *winf.verify_winf_level_one(group, level, cfg.pairs, cfg.seed),
        *winf.verify_convdiff(group, level, max_k),
    ]


def _bracket(group, cfg):
    from . import winf
    return {"triples": cfg.triples, "seed": cfg.seed}, lambda: [
        *winf.verify_bracket_laws(group, cfg.triples, cfg.seed),
        *(
            ("finite-difference residual", i)
            for i, r in enumerate(winf.lemma_variable_residuals(cfg.order + 2))
            if not r.is_zero()
        ),
    ]


def _stable_cap(group, cfg):
    """The stable cap: off the trivial group an unset cap is at most 2."""
    return cfg.cap if "cap" in cfg.explicit or group.order == 1 else min(cfg.cap, 2)


def _stable(group, cfg):
    from . import stable
    cap = _stable_cap(group, cfg)
    levels = [2 * cap, 2 * cap + 1] if cfg.n is None else [cfg.n, cfg.n + 1]

    def check():
        table = stable.stable_structure_constants(group, cap)
        return [
            *stable.check_stability(group, cap, levels, table),
            *stable.verify_forgetful(group, cap, levels[0], table),
        ]

    return {"cap": cap, "levels": levels}, check


def _generators(group, cfg):
    from . import fock
    n = cfg.n if cfg.n is not None else (4 if group.order == 1 else 3)

    def check():
        dims, expected = fock.verify_generators(group, n)
        return [
            (family, dim, "expected", expected)
            for family, dim in zip(("power-sum", "creation"), dims)
            if dim != expected
        ]

    return {"n": n}, check


class Suite(NamedTuple):
    command: str | None  # the command that runs this suite alone
    setup: Callable


# The suites in the order of `all`.  `fock verify <name>` and `winf
# verify <name>` run a suite of their command, `stable verify` and
# `generators` the suite named after the command; jm runs in `all` only.
SUITES = {
    "heisenberg": Suite("fock", _heisenberg),
    "jm": Suite(None, _jm),
    "virasoro": Suite("fock", _virasoro),
    "cubic": Suite("fock", _cubic),
    "covcomm": Suite("fock", _covcomm),
    "dictionary": Suite("fock", _dictionary),
    "vo": Suite("winf", _vo),
    "level-one": Suite("winf", _level_one),
    "bracket": Suite("winf", _bracket),
    "stable": Suite("stable", _stable),
    "generators": Suite("generators", _generators),
}


def _suites_of(command):
    """The suites that `<command> verify` can run, in the order of `all`."""
    return [name for name, suite in SUITES.items() if suite.command == command]


# -- the battery ------------------------------------------------------------


def _usable_cpus():
    """The number of CPUs this process may run on; 1 where it cannot tell."""
    import os
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker(names, group, cfg, fd):
    """Run the suites `names` in a forked worker; never returns.

    Each suite sends one JSON line on the pipe fd: its report and its
    suite line, or the hex of the pickled exception that run_suite
    raised, after which no suite runs.  The worker writes nothing to
    the stdout or stderr it inherited, and os._exit skips the exit
    handlers and buffer flushes it inherited too.
    """
    import io
    import os
    try:
        with open(fd, "w") as pipe:
            for name in names:
                log = io.StringIO()
                try:
                    record = {"report": run_suite(name, group, cfg, log)}
                except BaseException as exc:
                    import pickle
                    pipe.write(json.dumps({"raised": pickle.dumps(exc).hex()}) + "\n")
                    break
                record["log"] = log.getvalue()
                pipe.write(json.dumps(record) + "\n")
                pipe.flush()
    finally:
        os._exit(0)


def run_all(group, cfg):
    """The reports of every suite, in the order of SUITES.

    With two usable CPUs or more, one forked worker runs the suites
    that are not fock's while this process runs the fock suites; once
    both are done, the suite lines go to sys.stderr in the order of
    SUITES.  With one CPU the suites run here in turn, each line
    printed as its suite ends.  An exception that run_suite raises on
    either side is raised here, the earlier suite in SUITES winning,
    after the lines of the suites before it.
    """
    import os
    names = list(SUITES)
    if _usable_cpus() < 2:
        return [run_suite(name, group, cfg) for name in names]
    import io
    import signal
    forked = [name for name in names if SUITES[name].command != "fock"]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _worker(forked, group, cfg, write_fd)
    os.close(write_fd)
    logs, reports = {}, {}
    stop, error = len(names), None  # the first suite that raised, and what
    try:
        with open(read_fd, "rb") as pipe:
            for i, name in enumerate(names):
                if name in forked:
                    continue
                log = io.StringIO()
                try:
                    reports[name] = run_suite(name, group, cfg, log)
                except Exception as exc:
                    stop, error = i, exc
                    break
                logs[name] = log.getvalue()
            for i, name in enumerate(names[:stop]):
                if name not in forked:
                    continue
                line = pipe.readline()
                if not line.endswith(b"\n"):
                    raise ChildProcessError(
                        f"the worker of all ended before suite {name} reported"
                    )
                record = json.loads(line)
                if "raised" in record:
                    import pickle
                    stop, error = i, pickle.loads(bytes.fromhex(record["raised"]))
                    break
                logs[name], reports[name] = record["log"], record["report"]
    finally:
        if len(reports) < len(names):
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    sys.stderr.write("".join(logs[name] for name in names[:stop]))
    if error is not None:
        raise error
    return [reports[name] for name in names]


# -- table emission --------------------------------------------------------


def table_group_info(group, cfg):
    info = {
        "name": group.name,
        "order": group.order,
        "classes": [
            {
                "id": c,
                "size": len(group.classes[c]),
                "centralizer": group.zeta[c],
                "inverse_class": group.inv_class[c],
            }
            for c in range(group.num_classes)
        ],
        "exponent": group.exponent,
        "has_character_table": group.character_table is not None,
    }
    if group.character_table is not None:
        table = group.character_table
        info["character_table"] = [
            [scalar_to_string(v) for v in row.values] for row in table.rows
        ]
        info["h"] = list(table.h)
    return info


def table_wreath_classes(group, cfg):
    from .partitions import class_size, enumerate_types
    n = cfg.n if cfg.n is not None else cfg.level
    return [
        {
            "type": rho.label(),
            "size": class_size(rho, group, n),
            "centralizer": rho.pad_to(n).centralizer_order(group),
        }
        for rho in enumerate_types(group, n)
    ]


def table_jm(group, cfg):
    from . import algebra
    n = cfg.n if cfg.n is not None else cfg.level
    out = {"group": group.name, "n": n, "xi": [], "power_sums": []}
    for j in range(1, n + 1):
        out["xi"].append(
            {"j": j, "support": len(algebra.jm_element(group, j, n).coeffs)}
        )
    for k in range(cfg.k + 1):
        for c in range(group.num_classes):
            f = algebra.xi_power_sum(group, n, k, k_basis(group, c))
            out["power_sums"].append(
                {
                    "k": k,
                    "class": c,
                    "decomposition": {
                        rho.label(): scalar_to_string(v)
                        for rho, v in sorted(
                            f.coeffs.items(), key=lambda kv: kv[0].sort_key()
                        )
                    },
                }
            )
    return out


def table_stable_constants(group, cfg):
    from . import stable
    cap = _stable_cap(group, cfg)
    if cfg.n is None:
        table = stable.stable_structure_constants(group, cap)
    else:
        table = stable.orbit_product_table(group, cap, cfg.n)
    pairs = []
    for (rho, sigma), row in sorted(
        table.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())
    ):
        terms = [
            {
                "nu": nu.label(),
                "dtilde": d,
                "d": scalar_to_string(
                    stable.unnormalized_constant(group, rho, sigma, nu, d)
                ),
            }
            for nu, d in sorted(row.items(), key=lambda kv: kv[0].sort_key())
        ]
        pairs.append({"rho": rho.label(), "sigma": sigma.label(), "terms": terms})
    return {"group": group.name, "cap": cap, "n": cfg.n, "pairs": pairs}


def table_pl(group, cfg):
    from . import winf
    return {"l": cfg.l, "P_l": winf.p_l_string(cfg.l)}


# (command, action) -> the table it emits
TABLES = {
    ("group", "info"): table_group_info,
    ("wreath", "classes"): table_wreath_classes,
    ("jm", "table"): table_jm,
    ("winf", "pl"): table_pl,
    ("stable", "constants"): table_stable_constants,
}


# -- argument parsing -------------------------------------------------------


def _add_common(parser, *names):
    for name in names:
        typ, help_text = FLAGS[name]
        parser.add_argument(f"--{name}", type=typ, default=None, help=help_text)
    parser.add_argument(
        "--config", default=argparse.SUPPRESS, help="JSON file of run options"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="classalg",
        description="Exact verification toolkit for wreath-product class algebras.",
    )
    parser.add_argument("--config", default=None, help="JSON file of run options")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="group tables")
    gs = p.add_subparsers(dest="action", required=True)
    gp = gs.add_parser("info", help="classes and character table")
    _add_common(gp, "group", "format", "out")

    p = sub.add_parser("wreath", help="wreath-product tables")
    ws = p.add_subparsers(dest="action", required=True)
    wp = ws.add_parser("classes", help="conjugacy classes of the wreath product")
    _add_common(wp, "group", "n", "level", "format", "out")

    p = sub.add_parser("jm", help="Jucys-Murphy tables")
    js = p.add_subparsers(dest="action", required=True)
    jp = js.add_parser("table", help="JM supports and power-sum decompositions")
    _add_common(jp, "group", "n", "level", "k", "format", "out")

    p = sub.add_parser("fock", help="Fock-space identity suites")
    fs = p.add_subparsers(dest="action", required=True)
    fp = fs.add_parser("verify", help="verify an operator identity")
    fp.add_argument("identity", choices=_suites_of("fock"))
    _add_common(fp, "group", "level", "k", "format", "out")

    p = sub.add_parser("winf", help="W-algebra suites")
    ns = p.add_subparsers(dest="action", required=True)
    np_ = ns.add_parser("verify", help="verify a W-algebra identity")
    np_.add_argument("identity", choices=_suites_of("winf"))
    _add_common(
        np_, "group", "level", "order", "k", "pairs", "triples", "seed",
        "format", "out",
    )
    pl = ns.add_parser("pl", help="print a normally ordered polynomial")
    _add_common(pl, "l", "format", "out")

    p = sub.add_parser("stable", help="stable class algebra")
    ss = p.add_subparsers(dest="action", required=True)
    sc = ss.add_parser("constants", help="emit structure constants")
    _add_common(sc, "group", "cap", "n", "format", "out")
    sv = ss.add_parser("verify", help="stability/integrality/homomorphism suites")
    _add_common(sv, "group", "cap", "n", "format", "out")

    p = sub.add_parser("generators", help="generating-family dimension check")
    _add_common(p, "group", "n", "format", "out")

    p = sub.add_parser("all", help="run the full verification battery")
    _add_common(
        p, "group", "level", "order", "cap", "n", "k", "pairs", "triples",
        "seed", "format", "out",
    )
    return parser


def run(argv=None):
    from . import wreath  # its enumeration cap is read in the config stage
    args = build_parser().parse_args(argv)
    table = TABLES.get((args.command, getattr(args, "action", None)))
    try:
        cfg = build_config(args)
        if table is not None and cfg.format == "csv":
            raise ConfigError(f"{args.command} {args.action} has no csv format")
        wreath.enumeration_cap()  # a malformed CLASSALG_ENUM_CAP is a usage error
        group = load_group(cfg.group)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        if table is not None:
            emit(table(group, cfg), cfg)
            return 0
        if args.command == "all":
            require_character_table(group)  # vo, level-one and bracket need it
            report = run_all(group, cfg)
        else:  # a verify command, or generators
            report = run_suite(getattr(args, "identity", args.command), group, cfg)
        emit(report, cfg)
        return exit_code(report)
    except (ValueError, OSError, wreath.ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
