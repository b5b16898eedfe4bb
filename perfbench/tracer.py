"""Outside-in tracer for classalg.

It wraps the public functions and methods of each library module (the
modules are the layers) in counting, timing spans, and installs each
wrapper into every ``classalg`` namespace that binds the original, so
``stable.type_of`` and ``winf.heis`` are traced as well as
``wreath.type_of`` and ``fock.heis``.  Nothing in ``src/`` changes.

Run as a script, it executes one CLI invocation under the tracer and
prints one JSON object on stdout::

    PYTHONPATH=src python3 perfbench/tracer.py all --group trivial --level 2

with the CLI's exit code, its captured stdout and stderr, any module
that still holds an unwrapped original, and the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import fractions
import functools
import importlib
import inspect
import io
import json
import sys
import time

LAYERS = (
    "scalars", "partitions", "wreath", "algebra", "groups",
    "fock", "series", "winf", "stable",
)
# Namespaces that may bind a layer's functions; cli is traced only
# through its suite timings, so its own functions stay unwrapped.
NAMESPACES = ("classalg",) + tuple(f"classalg.{m}" for m in LAYERS + ("cli",))
ARITH_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
})

LAYER_MODULES = frozenset(f"classalg.{m}" for m in LAYERS)


def traceable(name, obj):
    """A public function, method or arithmetic dunder of a layer module."""
    return (
        (not name.startswith("_") or name in ARITH_DUNDERS)
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) in LAYER_MODULES
    )


def unbound(attr):
    """The function inside a static or class method, else ``attr``."""
    return attr.__func__ if isinstance(attr, (staticmethod, classmethod)) else attr


CYC_ARITH = tuple(
    f"scalars.Cyc.{name}" for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "inverse", "conjugate",
    )
)
HBAR_ARITH = tuple(
    f"series.HbarSeries.{name}" for name in (
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "divide",
    )
)


class Tracer:
    """Per-key call counts, self seconds and generator yields.

    A span's self time is its duration minus the durations of the spans
    it encloses; a generator's span is each resumption, so the work of
    a lazy enumeration is charged to the generator, not its consumer.
    """

    def __init__(self):
        self.keys = []
        self.calls = []
        self.self_s = []
        self.yields = []
        self.stack = []
        self.extra = {"fraction_new": 0, "heis_k_nonzero": 0, "class_scanned": 0}
        self.originals = {}  # id(module-level original) -> (original, wrapper)
        self.wrappers = set()  # ids of every wrapper installed

    def _register(self, key):
        self.keys.append(key)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.yields.append(0)
        return len(self.keys) - 1

    def wrap_function(self, key, fn, after=None):
        i = self._register(key)
        calls, self_s, stack, clock = self.calls, self.self_s, self.stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[i] += dt - stack.pop()
                calls[i] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result)
            return result

        return span

    def wrap_generator(self, key, fn, scanned_by=None):
        """Span each resumption; count yields.  Items yielded straight to
        a frame running ``scanned_by`` also count as class scans."""
        i = self._register(key)
        calls, self_s, yields = self.calls, self.self_s, self.yields
        stack, clock, extra = self.stack, time.perf_counter, self.extra

        def iterate(it, scanning):
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    self_s[i] += dt - stack.pop()
                    if stack:
                        stack[-1] += dt
                yields[i] += 1
                if scanning:
                    extra["class_scanned"] += 1
                yield item

        @functools.wraps(fn)
        def start(*args, **kwargs):
            calls[i] += 1
            scanning = (
                scanned_by is not None and sys._getframe(1).f_code is scanned_by
            )
            return iterate(fn(*args, **kwargs), scanning)

        return start

    def wrap(self, key, fn, hooks):
        if inspect.isgeneratorfunction(fn):
            wrapper = self.wrap_generator(key, fn, hooks.get(("scan", key)))
        else:
            wrapper = self.wrap_function(key, fn, hooks.get(("after", key)))
        self.wrappers.add(id(wrapper))
        return wrapper

    def install(self):
        """Wrap every layer's public callables and patch all bindings."""
        modules = {name: importlib.import_module(name) for name in NAMESPACES}
        fock = modules["classalg.fock"]
        wreath = modules["classalg.wreath"]
        extra = self.extra
        is_zero = fock.FockVector.is_zero

        def count_nonzero(vec):
            if not is_zero(vec):
                extra["heis_k_nonzero"] += 1

        hooks = {
            ("after", "fock.heis_k"): count_nonzero,
            ("scan", "wreath.enumerate_group"): wreath.enumerate_class.__code__,
        }
        for layer in LAYERS:
            mod = modules[f"classalg.{layer}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type) and not name.startswith("_"):
                    self._wrap_class(layer, obj, hooks)
                elif traceable(name, obj):
                    self.originals[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj, hooks))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                entry = self.originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])
        self._count_fraction_new()
        return self

    def _wrap_class(self, layer, cls, hooks):
        for name, attr in list(vars(cls).items()):
            fn = unbound(attr)
            if not traceable(name, fn):
                continue
            wrapped = self.wrap(f"{layer}.{cls.__name__}.{name}", fn, hooks)
            setattr(cls, name, wrapped if fn is attr else type(attr)(wrapped))

    def _count_fraction_new(self):
        """Count ``Fraction.__new__``, which CPython's Fraction arithmetic
        also goes through.  Counted only: a span per Fraction would
        swamp the layers that create them."""
        new = fractions.Fraction.__new__
        extra = self.extra

        def counted_new(cls, *args, **kwargs):
            extra["fraction_new"] += 1
            return new(cls, *args, **kwargs)

        fractions.Fraction.__new__ = staticmethod(counted_new)

    def leaks(self):
        """Every traceable callable that a classalg namespace or a layer
        class still binds unwrapped; empty when coverage is complete."""
        found = []
        for modname in NAMESPACES:
            for name, obj in vars(sys.modules[modname]).items():
                if traceable(name, obj) and id(obj) not in self.wrappers:
                    found.append(f"{modname}.{name}")
                if (
                    isinstance(obj, type)
                    and obj.__module__ in LAYER_MODULES
                    and not obj.__name__.startswith("_")
                ):
                    for attr_name, attr in vars(obj).items():
                        fn = unbound(attr)
                        if traceable(attr_name, fn) and id(fn) not in self.wrappers:
                            found.append(f"{modname}.{name}.{attr_name}")
        return sorted(set(found))

    def totals(self, keys):
        idx = [self.keys.index(k) for k in keys]
        return sum(self.calls[i] for i in idx), sum(self.self_s[i] for i in idx)

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(s for k, s in zip(self.keys, self.self_s) if k.startswith(prefix))

    def ratio_bases(self):
        """The denominator of each ratio metric; a ratio over 0 reads 0."""
        return {
            "wreath.class_hit_ratio": self.extra["class_scanned"],
            "fock.heis_k.nonzero_ratio": self.totals(["fock.heis_k"])[0],
        }

    def metrics(self):
        """The per-layer metrics, by their benchmark names."""
        def calls(*keys):
            return self.totals(keys)[0]

        def self_s(*keys):
            return self.totals(keys)[1]

        def ratio(num, den):
            return num / den if den else 0.0

        heis_calls = calls("fock.heis_k")
        out = {
            "scalars.cyc_arith.calls": calls(*CYC_ARITH),
            "scalars.cyc_arith.self_s": self_s(*CYC_ARITH),
            "scalars.fraction_new.calls": self.extra["fraction_new"],
            "partitions.type_edit.calls": calls(
                "partitions.TypeFunction.add_part", "partitions.TypeFunction.remove_part"
            ),
            "partitions.enumerate_types.self_s": self_s("partitions.enumerate_types"),
            "wreath.type_of.calls": calls("wreath.type_of"),
            "wreath.wreath_mul.calls": calls("wreath.wreath_mul"),
            "wreath.enumerated.elements": self.yields[self.keys.index("wreath.enumerate_group")],
            "wreath.class_hit_ratio": ratio(
                self.yields[self.keys.index("wreath.enumerate_class")],
                self.extra["class_scanned"],
            ),
            "wreath.structure_constants.self_s": self_s("wreath.WreathContext.structure_constants"),
            "algebra.convolve_n.calls": calls("algebra.convolve_n"),
            "algebra.convolve_n.self_s": self_s("algebra.convolve_n"),
            "algebra.to_class_function.self_s": self_s("algebra.to_class_function"),
            "algebra.group_algebra_mul.calls": calls("algebra.GroupAlgebraElement.__mul__"),
            "groups.load_group.self_s": self_s("groups.load_group"),
            "groups.pushforward_tauk.calls": calls("groups.pushforward_tauk"),
            "fock.heis_k.calls": heis_calls,
            "fock.heis_k.self_s": self_s("fock.heis_k"),
            "fock.heis_k.nonzero_ratio": ratio(self.extra["heis_k_nonzero"], heis_calls),
            "fock.normal_power_apply.calls": calls("fock.normal_power_apply"),
            "fock.normal_power_apply.self_s": self_s("fock.normal_power_apply"),
            "fock.basis_state.calls": calls("fock.basis_state"),
            "fock.fock_vector_add.calls": calls("fock.FockVector.__add__"),
            "series.hbar_arith.calls": calls(*HBAR_ARITH),
            "winf.realize_J_mode.calls": calls("winf.realize_J_mode"),
            "winf.realize_J_mode.self_s": self_s("winf.realize_J_mode"),
            "winf.winf_bracket.calls": calls("winf.winf_bracket"),
            "stable.stable_coefficient.calls": calls("stable.stable_coefficient"),
            "stable.stable_coefficient.self_s": self_s("stable.stable_coefficient"),
            "stable.orbit_product_table.self_s": self_s("stable.orbit_product_table"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self_s(layer)
        return out


def traced_cli(argv):
    """Run ``classalg`` with ``argv`` under a fresh tracer."""
    tracer = Tracer().install()
    cli = sys.modules["classalg.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return {
        "exit_code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "leaks": tracer.leaks(),
        "metrics": tracer.metrics(),
        "ratio_bases": tracer.ratio_bases(),
    }


if __name__ == "__main__":
    print(json.dumps(traced_cli(sys.argv[1:])))
