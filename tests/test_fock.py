import json
from fractions import Fraction

import pytest

import classalg.fock as fock
from classalg.algebra import WreathClassFunction
from classalg.cli import run
from classalg.fock import (
    FockVector,
    ad_power,
    basis_state,
    characteristic_inverse,
    characteristic_map,
    commutator,
    cubic_op,
    cubic_zero_mode,
    domain_types,
    fock_inner,
    heis,
    heis_annihilate_adjoint,
    heis_create_avg,
    heis_create_bigsum,
    heis_op,
    op_b,
    op_O,
    op_O_op,
    sym_create,
    sym_from_type,
    vacuum,
    verify_covcomm,
    verify_cubic,
    verify_dictionary,
    verify_generators,
    verify_heisenberg,
    verify_virasoro,
    virasoro_L,
    virasoro_op,
    xi_class_function,
)
from classalg.groups import (
    TensorClassFunction,
    k_basis,
    load_group,
    require_character_table,
    unit_g,
)
from classalg.partitions import TypeFunction, enumerate_types
from classalg.scalars import Cyc
from classalg.winf import realize_J_mode, realize_J_op


def test_vacuum_and_basis():
    g = load_group("cyclic2")
    v = vacuum(g)
    assert v.max_level() == 0
    rho = TypeFunction.from_label("c1:[2]")
    b = basis_state(g, rho)
    assert b.max_level() == 2
    assert fock_inner(b, b) != 0


def test_creation_against_induction():
    # closed-form creation vs brute-force induction from the big group
    for name, levels in (("trivial", 3), ("cyclic2", 2)):
        g = load_group(name)
        for r in (1, 2):
            for c in range(g.num_classes):
                for rho in [
                    t for n in range(levels) for t in enumerate_types(g, n)
                ]:
                    v = basis_state(g, rho)
                    fast = heis(g, -r, k_basis(g, c), v)
                    slow = heis_create_bigsum(g, r, k_basis(g, c), v)
                    assert fast == slow, (name, r, c, rho.label())


def test_creation_against_averaging():
    # degree-one creation via symmetrized averaging over the top group
    g = load_group("cyclic2")
    for c in range(g.num_classes):
        for rho in [t for n in range(3) for t in enumerate_types(g, n)]:
            v = basis_state(g, rho)
            fast = heis(g, -1, k_basis(g, c), v)
            slow = heis_create_avg(g, k_basis(g, c), v)
            assert fast == slow


def test_annihilation_against_adjoint():
    # closed-form annihilation vs the adjoint characterization
    for name in ("trivial", "cyclic3"):
        g = load_group(name)
        for r in (1, 2):
            for c in range(g.num_classes):
                for rho in [
                    t for n in range(4) for t in enumerate_types(g, n)
                ]:
                    v = basis_state(g, rho)
                    fast = heis(g, r, k_basis(g, c), v)
                    slow = heis_annihilate_adjoint(g, r, k_basis(g, c), v)
                    assert fast == slow


def test_heisenberg_relations_small():
    for name in ("trivial", "cyclic2"):
        assert verify_heisenberg(load_group(name), 3, 3) == []


def test_power_sum_transposition_value():
    # the first power sum of the colored transposition class at level 3
    g = load_group("trivial")
    f = xi_class_function(g, 3, 1, unit_g(g))
    assert f == WreathClassFunction(
        g, 3, {TypeFunction.from_label("c0:[2,1]"): Fraction(1)}
    )


def test_basic_convolution_matrix_level2():
    # the basic operator swaps the two level-2 basis vectors (trivial group)
    g = load_group("trivial")
    b = op_b(g)
    rows = {}
    for rho in enumerate_types(g, 2):
        out = b(basis_state(g, rho))
        rows[rho.label()] = {s.label(): v for s, v in out.coeffs.items()}
    assert rows == {
        "c0:[1,1]": {"c0:[2]": 1},
        "c0:[2]": {"c0:[1,1]": 1},
    }


def test_virasoro_small():
    for name in ("trivial", "cyclic2"):
        assert verify_virasoro(load_group(name), 3, 2) == []


def test_virasoro_weight():
    # L_n lowers the level by n
    g = load_group("cyclic2")
    v = basis_state(g, TypeFunction.from_label("c0:[2]|c1:[1]"))
    out = virasoro_L(g, 1, unit_g(g), v)
    assert out.is_zero() or out.max_level() == 2


def test_cubic_small():
    for name in ("trivial", "cyclic2"):
        assert verify_cubic(load_group(name), 3) == []


def test_covcomm_small():
    for name in ("trivial", "cyclic2"):
        assert verify_covcomm(load_group(name), 2, 3) == []


def test_characteristic_map_basics():
    g = load_group("cyclic2")
    for rho in enumerate_types(g, 3):
        p = sym_from_type(rho)
        vec = characteristic_map(g, p)
        assert characteristic_inverse(g, vec) == p


def test_characteristic_map_intertwines():
    g = load_group("cyclic2")
    rho = TypeFunction.from_label("c0:[1]|c1:[1]")
    p = sym_from_type(rho)
    lifted = characteristic_map(g, sym_create(g, 2, 1, p))
    direct = heis(g, -2, k_basis(g, 1), characteristic_map(g, p))
    assert lifted == direct


def test_dictionary_small():
    for name in ("trivial", "cyclic2"):
        assert verify_dictionary(load_group(name), 3) == []


def test_generator_dimensions():
    dims, expected = verify_generators(load_group("trivial"), 4)
    assert dims == (5, 5) and expected == 5
    dims, expected = verify_generators(load_group("cyclic2"), 3)
    assert dims == (10, 10) and expected == 10


def test_commutator_of_creations_vanishes():
    g = load_group("sym3")
    a = heis_op(g, -1, k_basis(g, 1))
    b = heis_op(g, -2, k_basis(g, 2))
    comm = commutator(a, b)
    for rho in domain_types(g, 2):
        assert comm(basis_state(g, rho)).is_zero()


def test_ad_power_zeroth():
    g = load_group("trivial")
    f = heis_op(g, -1, unit_g(g))
    same = ad_power(op_b(g), f, 0)
    v = vacuum(g)
    assert same(v) == f(v)


# -- cached-column operators against the direct functions ---------------


def _vector(g, terms):
    """A Fock vector from (type label, coefficient) pairs."""
    return FockVector(
        g, {TypeFunction.from_label(label): v for label, v in terms}
    )


# Each vector spans levels 0 to 3: applied to the whole vector, the
# direct functions bound annihilation by level 3, which is more than
# the lower-level terms can absorb.
SPREAD_VECTORS = {
    "cyclic2": [
        ("empty", Fraction(5)),
        ("c1:[1]", Fraction(3, 2)),
        ("c0:[2,1]", Fraction(-2)),
        ("c0:[1]|c1:[2]", Fraction(1, 3)),
    ],
    "cyclic3": [
        ("empty", Cyc(3, (0, 1))),
        ("c2:[1]", Fraction(-1, 2)),
        ("c0:[1]|c1:[1]", Cyc(3, (Fraction(1, 2), 2))),
        ("c1:[2,1]", Cyc(3, (-1, -1))),
        ("c0:[1]|c2:[2]", Fraction(7)),
    ],
}


def _operator_cases(g):
    alpha = require_character_table(g).irreducible(1)
    return [
        ("p_2", lambda v: heis(g, 2, alpha, v), heis_op(g, 2, alpha)),
        ("p_-1", lambda v: heis(g, -1, alpha, v), heis_op(g, -1, alpha)),
        ("O^2", lambda v: op_O(g, 2, alpha, v), op_O_op(g, 2, alpha)),
        ("L_1", lambda v: virasoro_L(g, 1, alpha, v), virasoro_op(g, 1, alpha)),
        ("L_-2", lambda v: virasoro_L(g, -2, alpha, v), virasoro_op(g, -2, alpha)),
        ("cubic", lambda v: cubic_zero_mode(g, alpha, v), cubic_op(g, alpha)),
        (
            "J^2_-1",
            lambda v: realize_J_mode(g, 2, -1, 1, v),
            realize_J_op(g, 2, -1, 1),
        ),
        (
            "J^1_1",
            lambda v: realize_J_mode(g, 1, 1, 1, v),
            realize_J_op(g, 1, 1, 1),
        ),
    ]


def _cancelling_vector(g, direct, types):
    """a K^rho + b K^sigma whose images cancel in one cell."""
    columns = [(rho, direct(basis_state(g, rho))) for rho in types]
    for i, (rho, u) in enumerate(columns):
        for sigma, w in columns[i + 1:]:
            for cell, a in u.coeffs.items():
                b = w.coeffs.get(cell)
                if b:
                    vec = basis_state(g, rho).scale(b) - basis_state(
                        g, sigma
                    ).scale(a)
                    return vec, cell
    raise AssertionError("no two columns share a cell")


def _no_recompute(vec):
    raise AssertionError("a cached column was recomputed")


@pytest.mark.parametrize("name", sorted(SPREAD_VECTORS))
def test_cached_operators_match_direct_functions(name):
    g = load_group(name)
    spread = _vector(g, SPREAD_VECTORS[name])
    types = domain_types(g, 2)
    for label, direct, op in _operator_cases(g):
        cancelling, cell = _cancelling_vector(g, direct, types)
        assert cell not in direct(cancelling).coeffs, label
        expected = [direct(v) for v in (spread, cancelling)]
        assert [op(v) for v in (spread, cancelling)] == expected, label
        # the second application reads only cached columns
        op.column_of = _no_recompute
        assert [op(v) for v in (spread, cancelling)] == expected, label


# -- fault injection: a wrong coefficient makes each suite fail ----------


def _bump_first_term(tensor):
    (key, coeff), *rest = tensor.terms
    return TensorClassFunction(
        tensor.group, tensor.arity, ((key, coeff + 1),) + tuple(rest)
    )


def test_virasoro_catches_wrong_pushforward(monkeypatch):
    g = load_group("trivial")
    original = fock.pushforward_tauk
    monkeypatch.setattr(
        fock, "pushforward_tauk", lambda f, k: _bump_first_term(original(f, k))
    )
    # on the vacuum [L_2, L_-2] is the central term alone, which a
    # rescaled L_n squares and the central charge does not
    assert (2, -2, 0, 0, "empty") in verify_virasoro(g, 2, 2)


def test_cubic_catches_wrong_pushforward(monkeypatch):
    g = load_group("trivial")
    original = fock.pushforward_tauk
    monkeypatch.setattr(
        fock,
        "pushforward_tauk",
        lambda f, k: _bump_first_term(original(f, k)) if k == 3 else original(f, k),
    )
    # b swaps K^(1,1) and K^(2), which a rescaled cubic operator does not
    assert (0, "c0:[2]") in verify_cubic(g, 2)


def test_covcomm_catches_wrong_power_sum(monkeypatch):
    g = load_group("trivial")
    original = fock._xi_class
    monkeypatch.setattr(
        fock,
        "_xi_class",
        lambda grp, n, k, cid: original(grp, n, k, cid).scale(
            2 if (n, k) == (2, 2) else 1
        ),
    )
    # O^2 doubled at level 2 only: p_-1 lifts K^(1) to level 2
    cells = verify_covcomm(g, 2, 2)
    assert (2, 0, 0, TypeFunction.from_label("c0:[1]")) in cells


def test_heisenberg_catches_wrong_creation_factor(monkeypatch):
    g = load_group("trivial")
    original = fock.heis_k
    monkeypatch.setattr(
        fock,
        "heis_k",
        lambda grp, m, cid, vec: original(grp, m, cid, vec).scale(
            2 if m == -2 else 1
        ),
    )
    # p_-2 doubled: on the vacuum [p_2, p_-2] reads 4, not 2
    assert (2, -2, 0, 0, "empty") in verify_heisenberg(g, 1, 2)


def test_dictionary_catches_wrong_annihilation_scale(monkeypatch):
    g = load_group("trivial")
    original = fock.sym_annihilate
    monkeypatch.setattr(
        fock,
        "sym_annihilate",
        lambda grp, r, cid, p: {
            rho: v * (2 if r == 1 else 1)
            for rho, v in original(grp, r, cid, p).items()
        },
    )
    # d/dx_1 doubled: x_1 maps to 2, while p_1 takes K^(1) to K^()
    assert ("annihilate", 1, 0, "c0:[1]") in verify_dictionary(g, 2)


@pytest.mark.parametrize(
    "family, name, index_arg",
    [("power-sum", "xi_power_sum", 2), ("creation", "p_i_vector", 1)],
)
def test_generators_catch_dropped_generator(
    family, name, index_arg, monkeypatch, capsys
):
    original = getattr(fock, name)

    # drop the family member i = 1: at level 2 on the trivial group it
    # is K^(2) up to a factor, which the unit alone does not generate
    def dropped(*args):
        return original(*args).scale(0 if args[index_arg] == 1 else 1)

    monkeypatch.setattr(fock, name, dropped)
    code = run(["generators", "--group", "trivial", "--n", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["failures"] == [[family, 1, "expected", 2]]
