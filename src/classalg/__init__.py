"""Exact computation in wreath-product class algebras and the operator
calculus (Heisenberg, Virasoro, W-algebra, stable algebra) acting on
their direct sum.

Importing the package loads no submodule: each public name is resolved
from its home module on first use (PEP 562), so a caller pays only for
the layers it reads.
"""

from importlib import import_module

# home module -> the public names it defines
_EXPORTS = {
    "algebra": (
        "WreathClassFunction",
        "convolve_n",
        "jm_element",
        "k_class",
        "subalgebra_generated",
        "verify_jm",
        "xi_power_sum",
    ),
    "fock": (
        "FockVector",
        "basis_state",
        "heis",
        "op_O",
        "op_b",
        "vacuum",
        "verify_generators",
        "virasoro_op",
    ),
    "groups": (
        "ClassFunctionG",
        "FiniteGroup",
        "k_basis",
        "load_group",
        "require_character_table",
    ),
    "partitions": ("Partition", "TypeFunction", "enumerate_types"),
    "series": ("HbarSeries",),
    "stable": ("check_stability", "stable_structure_constants", "verify_forgetful"),
    "winf": (
        "DiffOpElement",
        "basis_J",
        "p_l_string",
        "realize",
        "verify_vo",
        "verify_winf_level_one",
        "winf_bracket",
    ),
    "wreath": ("WreathElement", "type_of", "wreath_mul"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # read from the home module on every access, so a name always is
    # what its module binds now
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
