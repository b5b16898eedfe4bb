"""Command-line entry point: group loading, verification-suite
orchestration, and table emission.

Exit codes: 0 all requested suites pass, 1 verification failure,
2 usage or configuration error.  A ValueError or ArithmeticError raised
while a suite runs is a counterexample: the suite reports it as a
failure.  Errors in the configuration or the group file (a missing
character table included), and ResourceCapError, stay usage errors.
Reports are deterministic for a given configuration and seed (timings
go to stderr); all scalars are emitted as exact strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction

from .groups import CharacterTableError, load_group, require_character_table
from .wreath import ResourceCapError
from .scalars import scalar_to_string

USAGE_ERROR = 2


@dataclass
class RunConfig:
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


class ConfigError(ValueError):
    pass


def build_config(args):
    """Merge defaults < --config file < explicit flags."""
    values = {}
    explicit = set()
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in data.items():
            if key not in {f.name for f in fields(RunConfig)} or key == "explicit":
                raise ConfigError(f"unknown config key: {key}")
            values[key] = value
            explicit.add(key)
    for f in fields(RunConfig):
        if f.name == "explicit":
            continue
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
            explicit.add(f.name)
    if values.get("format", "json") not in ("json", "csv"):
        raise ConfigError("format must be json or csv")
    return RunConfig(**values, explicit=frozenset(explicit))


# -- report plumbing -----------------------------------------------------


def _stringify(value):
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return scalar_to_string(value)
    try:
        return scalar_to_string(value)
    except Exception:
        return str(value)


def make_report(suite, parameters, failures, wall_time):
    print(f"# {suite}: {wall_time:.2f}s", file=sys.stderr)
    return {
        "suite": suite,
        "parameters": _stringify(parameters),
        "status": "pass" if not failures else "fail",
        "failures": _stringify(list(failures)),
    }


def run_suite(suite, parameters, fn):
    start = time.monotonic()
    try:
        failures = fn()
    except CharacterTableError:
        raise  # the group file lacks a table: a usage error
    except (ValueError, ArithmeticError) as exc:
        failures = [("exception", type(exc).__name__, str(exc))]
    return make_report(suite, parameters, failures, time.monotonic() - start)


def emit(payload, cfg):
    if cfg.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = ["suite,status,failure_count"]
        reports = payload if isinstance(payload, list) else [payload]
        for r in reports:
            if "suite" in r:
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


def suite_heisenberg(group, cfg):
    from .fock import verify_heisenberg

    params = {"group": group.name, "level": cfg.level, "max_mode": 3}
    return run_suite(
        "heisenberg", params, lambda: verify_heisenberg(group, cfg.level, 3)
    )


def suite_virasoro(group, cfg):
    from .fock import verify_virasoro

    params = {"group": group.name, "level": cfg.level, "max_mode": 2}
    return run_suite(
        "virasoro", params, lambda: verify_virasoro(group, cfg.level, 2)
    )


def suite_cubic(group, cfg):
    from .fock import verify_cubic

    params = {"group": group.name, "level": cfg.level}
    return run_suite("cubic", params, lambda: verify_cubic(group, cfg.level))


def suite_covcomm(group, cfg):
    from .fock import verify_covcomm

    params = {"group": group.name, "level": cfg.level, "max_k": cfg.k}
    return run_suite(
        "covcomm", params, lambda: verify_covcomm(group, cfg.k, cfg.level)
    )


def suite_dictionary(group, cfg):
    from .fock import verify_dictionary

    params = {"group": group.name, "degree": cfg.level}
    return run_suite(
        "dictionary", params, lambda: verify_dictionary(group, cfg.level)
    )


def suite_jm(group, cfg, max_elements=20000):
    from .algebra import verify_jm
    from .wreath import wreath_order

    levels = [
        n
        for n in range(1, cfg.level + 1)
        if wreath_order(group, n) <= max_elements
    ]
    params = {"group": group.name, "levels": levels}

    def run():
        failures = []
        for n in levels:
            failures.extend(verify_jm(group, n))
        return failures

    return run_suite("jm", params, run)


def suite_vo(group, cfg):
    from .winf import verify_vo

    level = min(cfg.level, 3)
    params = {
        "group": group.name,
        "level": level,
        "series_order": cfg.order,
        "irreducibles": group.num_classes,  # a character table is square
    }

    def run():
        table = require_character_table(group)
        failures = []
        for gi in range(len(table.rows)):
            failures.extend(verify_vo(group, gi, level, cfg.order))
        return failures

    return run_suite("vo", params, run)


def suite_level_one(group, cfg):
    from .winf import verify_convdiff, verify_winf_level_one

    level = min(cfg.level, 3)
    params = {
        "group": group.name,
        "level": level,
        "pairs": cfg.pairs,
        "seed": cfg.seed,
        "max_k": min(cfg.k, 3),
    }

    def run():
        failures = list(
            verify_winf_level_one(group, level, cfg.pairs, cfg.seed)
        )
        failures.extend(verify_convdiff(group, level, min(cfg.k, 3)))
        return failures

    return run_suite("level-one", params, run)


def suite_bracket(group, cfg):
    from .winf import lemma_variable_residuals, verify_bracket_laws

    params = {"group": group.name, "triples": cfg.triples, "seed": cfg.seed}

    def run():
        failures = list(verify_bracket_laws(group, cfg.triples, cfg.seed))
        failures.extend(
            ("finite-difference residual", i)
            for i, r in enumerate(lemma_variable_residuals(cfg.order + 2))
            if not r.is_zero()
        )
        return failures

    return run_suite("bracket", params, run)


def _stable_cap(group, cfg):
    if "cap" in cfg.explicit:
        return cfg.cap
    return cfg.cap if group.order == 1 else min(cfg.cap, 2)


def suite_stable(group, cfg):
    from .stable import (
        check_stability,
        stable_structure_constants,
        verify_forgetful,
    )

    cap = _stable_cap(group, cfg)
    levels = [2 * cap, 2 * cap + 1] if cfg.n is None else [cfg.n, cfg.n + 1]
    params = {"group": group.name, "cap": cap, "levels": levels}

    def run():
        stable = stable_structure_constants(group, cap)
        failures = list(check_stability(group, cap, levels, stable))
        failures.extend(verify_forgetful(group, cap, levels[0], stable))
        return failures

    return run_suite("stable", params, run)


def suite_generators(group, cfg):
    from .fock import verify_generators

    n = cfg.n if cfg.n is not None else (4 if group.order == 1 else 3)
    params = {"group": group.name, "n": n}

    def run():
        dims, expected = verify_generators(group, n)
        return [
            (family, dim, "expected", expected)
            for family, dim in zip(("power-sum", "creation"), dims)
            if dim != expected
        ]

    return run_suite("generators", params, run)


ALL_SUITES = (
    suite_heisenberg,
    suite_jm,
    suite_virasoro,
    suite_cubic,
    suite_covcomm,
    suite_dictionary,
    suite_vo,
    suite_level_one,
    suite_bracket,
    suite_stable,
    suite_generators,
)


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
    from .algebra import jm_element, xi_power_sum
    from .groups import k_basis

    n = cfg.n if cfg.n is not None else cfg.level
    out = {"group": group.name, "n": n, "xi": [], "power_sums": []}
    for j in range(1, n + 1):
        out["xi"].append(
            {"j": j, "support": jm_element(group, j, n).support_size()}
        )
    for k in range(cfg.k + 1):
        for c in range(group.num_classes):
            f = xi_power_sum(group, n, k, k_basis(group, c))
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
    from .stable import (
        orbit_product_table,
        stable_structure_constants,
        unnormalized_constant,
    )

    if cfg.n is None:
        table = stable_structure_constants(group, cfg.cap)
    else:
        table = orbit_product_table(group, cfg.cap, cfg.n)
    pairs = []
    for (rho, sigma), row in sorted(
        table.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())
    ):
        terms = [
            {
                "nu": nu.label(),
                "dtilde": d,
                "d": scalar_to_string(
                    unnormalized_constant(group, rho, sigma, nu, d)
                ),
            }
            for nu, d in sorted(row.items(), key=lambda kv: kv[0].sort_key())
        ]
        pairs.append({"rho": rho.label(), "sigma": sigma.label(), "terms": terms})
    return {"group": group.name, "cap": cfg.cap, "n": cfg.n, "pairs": pairs}


def table_pl(cfg):
    from .winf import p_l_string

    return {"l": cfg.l, "P_l": p_l_string(cfg.l)}


# -- argument parsing -------------------------------------------------------


def _add_common(parser, *names):
    flags = {
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
        "format": (str, "output format: json or csv"),
        "out": (str, "write the report to this path"),
    }
    for name in names:
        typ, help_text = flags[name]
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
    fp.add_argument(
        "identity",
        choices=["heisenberg", "virasoro", "cubic", "covcomm", "dictionary"],
    )
    _add_common(fp, "group", "level", "k", "format", "out")

    p = sub.add_parser("winf", help="W-algebra suites")
    ns = p.add_subparsers(dest="action", required=True)
    np_ = ns.add_parser("verify", help="verify a W-algebra identity")
    np_.add_argument("identity", choices=["bracket", "vo", "level-one"])
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        group = load_group(cfg.group)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    command = args.command
    try:
        if command == "group":
            emit(table_group_info(group, cfg), cfg)
            return 0
        if command == "wreath":
            emit(table_wreath_classes(group, cfg), cfg)
            return 0
        if command == "jm":
            emit(table_jm(group, cfg), cfg)
            return 0
        if command == "fock":
            suites = {
                "heisenberg": suite_heisenberg,
                "virasoro": suite_virasoro,
                "cubic": suite_cubic,
                "covcomm": suite_covcomm,
                "dictionary": suite_dictionary,
            }
            report = suites[args.identity](group, cfg)
            emit(report, cfg)
            return exit_code(report)
        if command == "winf":
            if args.action == "pl":
                emit(table_pl(cfg), cfg)
                return 0
            suites = {
                "bracket": suite_bracket,
                "vo": suite_vo,
                "level-one": suite_level_one,
            }
            report = suites[args.identity](group, cfg)
            emit(report, cfg)
            return exit_code(report)
        if command == "stable":
            if args.action == "constants":
                emit(table_stable_constants(group, cfg), cfg)
                return 0
            report = suite_stable(group, cfg)
            emit(report, cfg)
            return exit_code(report)
        if command == "generators":
            report = suite_generators(group, cfg)
            emit(report, cfg)
            return exit_code(report)
        if command == "all":
            require_character_table(group)  # vo, level-one and bracket need it
            reports = [suite(group, cfg) for suite in ALL_SUITES]
            emit(reports, cfg)
            return exit_code(reports)
    except (ValueError, ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    raise AssertionError(f"unhandled command {command}")


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
