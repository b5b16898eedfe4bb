"""Exact computation in wreath-product class algebras and the operator
calculus (Heisenberg, Virasoro, W-algebra, stable algebra) acting on
their direct sum."""

from .algebra import (
    WreathClassFunction,
    convolve_n,
    jm_element,
    k_class,
    subalgebra_generated,
    verify_jm,
    xi_power_sum,
)
from .fock import (
    FockVector,
    basis_state,
    heis,
    op_O,
    op_b,
    vacuum,
    verify_generators,
    virasoro_op,
)
from .groups import (
    ClassFunctionG,
    FiniteGroup,
    k_basis,
    load_group,
    require_character_table,
)
from .partitions import Partition, TypeFunction, enumerate_types
from .series import HbarSeries
from .stable import check_stability, stable_structure_constants, verify_forgetful
from .winf import (
    DiffOpElement,
    basis_J,
    p_l_string,
    realize,
    verify_vo,
    verify_winf_level_one,
    winf_bracket,
)
from .wreath import WreathElement, type_of, wreath_mul

__all__ = [
    "ClassFunctionG",
    "DiffOpElement",
    "FiniteGroup",
    "FockVector",
    "HbarSeries",
    "Partition",
    "TypeFunction",
    "WreathClassFunction",
    "WreathElement",
    "basis_J",
    "basis_state",
    "check_stability",
    "convolve_n",
    "enumerate_types",
    "heis",
    "jm_element",
    "k_basis",
    "k_class",
    "load_group",
    "op_O",
    "op_b",
    "p_l_string",
    "realize",
    "require_character_table",
    "stable_structure_constants",
    "subalgebra_generated",
    "type_of",
    "vacuum",
    "verify_forgetful",
    "verify_generators",
    "verify_jm",
    "verify_vo",
    "verify_winf_level_one",
    "virasoro_op",
    "winf_bracket",
    "wreath_mul",
    "xi_power_sum",
]
