"""End-to-end verification battery at full desk scale.

Each test prints a single PASS/FAIL line for its criterion; every
comparison is exact (tolerance zero).
"""

from fractions import Fraction

from classalg.algebra import verify_jm
from classalg.fock import (
    vacuum,
    verify_covcomm,
    verify_cubic,
    verify_dictionary,
    verify_generators,
    verify_heisenberg,
    verify_virasoro,
    virasoro_op,
)
from classalg.groups import load_group, unit_g
from classalg.stable import (
    check_stability,
    stable_structure_constants,
    verify_forgetful,
)
from classalg.winf import (
    p_l_polynomial,
    verify_vo,
    verify_winf_level_one,
)
from oracles import bilinear_form_n


def report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} - {label}")
    assert ok, f"criterion {num} failed"


def test_criterion_01_heisenberg_relations():
    failures = []
    for name, level in (
        ("trivial", 4),
        ("cyclic2", 4),
        ("cyclic3", 4),
        ("sym3", 3),
    ):
        failures += verify_heisenberg(load_group(name), level, 3)
    report(1, "Heisenberg commutation relations", failures == [])


def test_criterion_02_jucys_murphy_identities():
    failures = []
    for name, nmax in (("trivial", 4), ("cyclic2", 4), ("sym3", 3)):
        g = load_group(name)
        for n in range(1, nmax + 1):
            failures += verify_jm(g, n)
    report(2, "Jucys-Murphy commutativity and product formulas", failures == [])


def test_criterion_03_virasoro_with_central_charge():
    failures = []
    for name in ("trivial", "cyclic2"):
        failures += verify_virasoro(load_group(name), 4, 2)
    # central charge of the unit-valued Virasoro field equals the number
    # of irreducible characters: [L_2, L_-2] on vacuum gives c/2
    for name, c in (("cyclic2", 2), ("sym3", 3)):
        g = load_group(name)
        v = vacuum(g)
        u = unit_g(g)
        w = virasoro_op(g, 2, u)(virasoro_op(g, -2, u)(v))
        if bilinear_form_n(w, v) / bilinear_form_n(v, v) != Fraction(c, 2):
            failures.append(("central-charge", name))
    report(3, "Virasoro relations and central charge", failures == [])


def test_criterion_04_cubic_operator():
    failures = []
    for name in ("trivial", "cyclic2"):
        failures += verify_cubic(load_group(name), 4)
    report(4, "cubic normally ordered realization", failures == [])


def test_criterion_05_convolution_commutators():
    failures = []
    for name in ("trivial", "cyclic2"):
        failures += verify_covcomm(load_group(name), 3, 4)
    report(5, "iterated commutators of convolution operators", failures == [])


def test_criterion_06_normally_ordered_polynomials():
    ok = (
        p_l_polynomial(1) == {(0,): 1}
        and p_l_polynomial(2) == {(0, 0): 1, (1,): 1}
        and p_l_polynomial(3) == {(0, 0, 0): 1, (0, 1): 3, (2,): 1}
    )
    report(6, "first three normally ordered field polynomials", ok)


def test_criterion_07_vertex_operator_series():
    failures = []
    for name in ("trivial", "cyclic2", "cyclic3"):
        g = load_group(name)
        for gi in range(g.num_classes):
            failures += verify_vo(g, gi, 3, 4)
    report(7, "vertex-operator q-series identity to fourth order", failures == [])


def test_criterion_08_level_one_realization():
    failures = []
    for name in ("trivial", "cyclic2"):
        failures += verify_winf_level_one(load_group(name), 3, 20)
    report(8, "level-one W-algebra realization on sampled pairs", failures == [])


def test_criterion_09_stable_structure_constants():
    failures = []
    for name, cap in (("trivial", 3), ("cyclic2", 2)):
        g = load_group(name)
        stable = stable_structure_constants(g, cap)
        failures += check_stability(g, cap, [2 * cap, 2 * cap + 1], stable)
        failures += verify_forgetful(g, cap, 2 * cap, stable)
    report(9, "stability and integrality of structure constants", failures == [])


def test_criterion_10_generating_families():
    ok = True
    dims, expected = verify_generators(load_group("trivial"), 4)
    ok = ok and dims == (expected, expected) and expected == 5
    dims, expected = verify_generators(load_group("cyclic2"), 3)
    ok = ok and dims == (expected, expected) and expected == 10
    report(10, "both generating families span the class algebra", ok)


def test_criterion_11_symmetric_function_dictionary():
    failures = []
    for name in ("trivial", "cyclic2"):
        failures += verify_dictionary(load_group(name), 4)
    report(11, "symmetric-function dictionary through the characteristic map", failures == [])
