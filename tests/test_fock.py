import json
from fractions import Fraction

import pytest

import classalg.fock as fock
from classalg.algebra import WreathClassFunction, convolve_n
from classalg.cli import run
from classalg.fock import (
    FockVector,
    basis_state,
    characteristic_map,
    commutator,
    compose,
    cubic_op,
    heis,
    heis_k,
    op_b,
    op_O,
    sym_create,
    to_p_basis,
    vacuum,
    verify_covcomm,
    verify_cubic,
    verify_dictionary,
    verify_generators,
    verify_heisenberg,
    verify_virasoro,
    virasoro_op,
    xi_class_function,
)
from classalg.groups import (
    k_basis,
    load_group,
    require_character_table,
    unit_g,
)
from classalg.partitions import enumerate_types, enumerate_types_upto
from classalg.scalars import Cyc
from classalg.winf import (
    CENTRAL,
    DiffOpElement,
    basis_J,
    convdiff_image,
    realize,
    realize_J_mode,
    verify_convdiff,
    verify_vo,
    verify_winf_level_one,
)
from oracles import (
    OracleFockOperator,
    bilinear_form_n,
    heis_annihilate_adjoint,
    heis_create_avg,
    heis_create_bigsum,
    max_level_of,
    on_vector,
    oracle_commutator,
    oracle_compose,
    oracle_cubic_zero_mode,
    oracle_normal_power_op,
    oracle_pruned_normal_power_apply,
    oracle_realize,
    oracle_verify_cubic,
    oracle_verify_heisenberg,
    oracle_verify_virasoro,
    oracle_virasoro_L,
    type_from_label,
)


def test_vacuum_and_basis():
    g = load_group("cyclic2")
    v = vacuum(g)
    assert max_level_of(v) == 0
    rho = type_from_label("c1:[2]")
    b = basis_state(g, rho)
    assert max_level_of(b) == 2
    assert bilinear_form_n(b, b) != 0


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
                    fast = heis(g, -r, k_basis(g, c)).apply(v)
                    slow = heis_create_bigsum(g, r, k_basis(g, c), v)
                    assert fast == slow, (name, r, c, rho.label())


def test_creation_against_averaging():
    # degree-one creation via symmetrized averaging over the top group
    g = load_group("cyclic2")
    for c in range(g.num_classes):
        for rho in [t for n in range(3) for t in enumerate_types(g, n)]:
            v = basis_state(g, rho)
            fast = heis(g, -1, k_basis(g, c)).apply(v)
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
                    fast = heis(g, r, k_basis(g, c)).apply(v)
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
        g, 3, {type_from_label("c0:[2,1]"): Fraction(1)}
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
    v = basis_state(g, type_from_label("c0:[2]|c1:[1]"))
    out = virasoro_op(g, 1, unit_g(g))(v)
    assert out.is_zero() or max_level_of(out) == 2


def test_cubic_small():
    for name in ("trivial", "cyclic2"):
        assert verify_cubic(load_group(name), 3) == []


def test_covcomm_small():
    for name in ("trivial", "cyclic2"):
        assert verify_covcomm(load_group(name), 2, 3) == []


def characteristic_inverse(group, vec):
    return {rho: v * Fraction(1, rho.ztilde()) for rho, v in vec.coeffs.items()}


def ad_power(a, f, k):
    """(ad a)^k f for operators."""
    out = f
    for _ in range(k):
        out = commutator(a, out)
    return out


def test_characteristic_map_basics():
    g = load_group("cyclic2")
    for rho in enumerate_types(g, 3):
        p = {rho: Fraction(1)}
        vec = characteristic_map(g, p)
        assert characteristic_inverse(g, vec) == p


def test_characteristic_map_intertwines():
    g = load_group("cyclic2")
    rho = type_from_label("c0:[1]|c1:[1]")
    p = {rho: Fraction(1)}
    lifted = characteristic_map(g, sym_create(g, 2, 1, p))
    direct = heis(g, -2, k_basis(g, 1)).apply(characteristic_map(g, p))
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
    a = heis(g, -1, k_basis(g, 1))
    b = heis(g, -2, k_basis(g, 2))
    comm = commutator(a, b)
    for rho in enumerate_types_upto(g, 2):
        assert comm(basis_state(g, rho)).is_zero()


def test_ad_power_zeroth():
    g = load_group("trivial")
    f = heis(g, -1, unit_g(g))
    same = ad_power(op_b(g), f, 0)
    v = vacuum(g)
    assert same(v) == f(v)


def test_fock_vector_is_one_integer_vector_over_one_denominator():
    g = load_group("cyclic3")
    rho, sigma = (type_from_label(s) for s in ("c1:[1]", "c0:[2]"))
    z = Cyc(3, (0, 1))
    from_fractions = FockVector(g, {rho: Fraction(1, 2), sigma: Fraction(-2, 3)})
    assert (from_fractions.den, from_fractions.nums) == (6, {rho: 3, sigma: -4})
    # ints over a larger denominator, and Cyc numerators whose sum
    # collapses to an integer (stored as an int), are the same vector
    over_twelve = fock._vector(g, 12, {rho: 6, sigma: -8})
    collapsed = FockVector(g, {rho: z, sigma: Fraction(-2, 3)}) + FockVector(
        g, {rho: Fraction(1, 2) - z}
    )
    assert type(collapsed.nums[rho]) is int
    assert from_fractions == over_twelve == collapsed
    assert over_twelve != from_fractions.scale(2)
    # coeffs reads the reduced values and cannot be written
    expected = {rho: Fraction(1, 2), sigma: Fraction(-2, 3)}
    for vec in (from_fractions, over_twelve, collapsed):
        assert vec.coeffs == expected
        with pytest.raises(TypeError):
            vec.coeffs[rho] = 1
    assert FockVector(g, {rho: z}).scale(Fraction(1, 2)).coeffs == {rho: z * Fraction(1, 2)}
    with pytest.raises(TypeError):
        hash(from_fractions)


def test_each_operator_constructor_returns_a_fock_operator():
    g = load_group("cyclic3")
    alpha = require_character_table(g).irreducible(1)
    built = [
        heis(g, -1, alpha),
        op_O(g, 2, alpha),
        op_b(g),
        virasoro_op(g, 1, alpha),
        cubic_op(g, alpha),
        realize(g, basis_J(g, 1, -1, 1)),
    ]
    assert all(type(op) is fock.FockOperator for op in built)


def test_apply_rejects_a_fraction_numerator():
    # apply passes each stored numerator to _lincomb as a multiplier
    g = load_group("cyclic3")
    rho = type_from_label("c1:[1]")
    with pytest.raises(TypeError):
        op_b(g).apply(fock._vector(g, 1, {rho: Fraction(2)}))
    assert op_b(g).apply(fock._vector(g, 1, {rho: 2})) == op_b(g).apply(
        basis_state(g, rho)
    ).scale(2)


# -- cached-column operators against the direct functions ---------------


def _vector(g, terms):
    """A Fock vector from (type label, coefficient) pairs."""
    return FockVector(
        g, {type_from_label(label): v for label, v in terms}
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


def _normal_power(g, k, alpha, scale, mode):
    """The mode of the normal power that virasoro_op and cubic_op wrap,
    applied in Fraction arithmetic on the same scaled tensor."""
    tensor = fock._scaled_pushforward(alpha, k, scale)
    return lambda v: oracle_pruned_normal_power_apply(g, k, tensor, mode, v)


def _j_op(g, l, k, gi):
    """The cached-column J^l_k that realize builds for basis_J."""
    j_ops = {}
    realize(g, basis_J(g, l, k, gi), j_ops)
    return j_ops[l, k, gi]


def _direct_heis(g, m, alpha):
    """p_m(alpha) on a vector, the sum of alpha(c) p_m(K^c) over heis_k."""

    def apply(v):
        out = FockVector(g)
        for cid, a in enumerate(alpha.values):
            if a:
                out = out + on_vector(lambda rho: heis_k(g, m, cid, rho), v).scale(a)
        return out

    return apply


def _direct_O(g, k, alpha):
    """O^k(alpha) on a vector: its level-n part convolved with
    Xi_n^k(alpha), and level 0 sent to zero."""

    def apply(v):
        out = FockVector(g)
        for n in sorted({rho.norm for rho in v.nums} - {0}):
            image = convolve_n(xi_class_function(g, n, k, alpha), v.component(n))
            out = out + FockVector(g, dict(image.coeffs))
        return out

    return apply


def _operator_cases(g):
    alpha = require_character_table(g).irreducible(1)
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    # values over the denominator 6, which the operators put their
    # numerators over
    mixed = alpha.scale(half) + k_basis(g, 1).scale(Fraction(1, 3))
    return [
        ("p_2", _direct_heis(g, 2, alpha), heis(g, 2, alpha)),
        ("p_-1", _direct_heis(g, -1, alpha), heis(g, -1, alpha)),
        ("p_2 mixed", _direct_heis(g, 2, mixed), heis(g, 2, mixed)),
        ("O^2", _direct_O(g, 2, alpha), op_O(g, 2, alpha)),
        ("O^2 mixed", _direct_O(g, 2, mixed), op_O(g, 2, mixed)),
        ("L_1", _normal_power(g, 2, alpha, half, 1), virasoro_op(g, 1, alpha)),
        ("L_-2", _normal_power(g, 2, alpha, half, -2), virasoro_op(g, -2, alpha)),
        ("cubic", _normal_power(g, 3, alpha, sixth, 0), cubic_op(g, alpha)),
        (
            "J^2_-1",
            lambda v: on_vector(lambda rho: realize_J_mode(g, 2, -1, 1, rho), v),
            _j_op(g, 2, -1, 1),
        ),
        (
            "J^1_1",
            lambda v: on_vector(lambda rho: realize_J_mode(g, 1, 1, 1, rho), v),
            _j_op(g, 1, 1, 1),
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
    types = enumerate_types_upto(g, 2)
    for label, direct, op in _operator_cases(g):
        cancelling, cell = _cancelling_vector(g, direct, types)
        assert cell not in direct(cancelling).coeffs, label
        expected = [direct(v) for v in (spread, cancelling)]
        assert [op(v) for v in (spread, cancelling)] == expected, label
        # the second application reads only cached columns
        op.column_of = _no_recompute
        assert [op(v) for v in (spread, cancelling)] == expected, label


# -- integer columns against the Fraction operator calculus -------------


def _integer_and_oracle_operators(g):
    """(label, FockOperator on integer columns, the same operator on
    Fraction columns from tests/oracles.py).  beta is the last
    irreducible, cyclotomic on cyclic3; alpha is a class indicator.  On
    cyclic3 the columns of p_2(beta) have denominators 1 and 3, so sums
    of them scale terms to a common denominator."""
    beta = require_character_table(g).irreducible(g.num_classes - 1)
    alpha = k_basis(g, g.num_classes - 1)
    half, sixth = Fraction(1, 2), Fraction(1, 6)

    def heis_pair(m, f):
        return heis(g, m, f), OracleFockOperator(g, _direct_heis(g, m, f))

    def virasoro_pair(n, f):
        return virasoro_op(g, n, f), oracle_normal_power_op(g, 2, f, half, n)

    create, create_oracle = heis_pair(-1, beta)
    kill, kill_oracle = heis_pair(2, beta)
    lower, lower_oracle = virasoro_pair(1, beta)
    raise_, raise_oracle = virasoro_pair(-1, alpha)
    x = (
        convdiff_image(g, 1, g.num_classes - 1)
        + basis_J(g, 2, -1, 0)
        + DiffOpElement(g, {CENTRAL: Fraction(3, 2)})
    )
    return [
        ("p_-1(beta)", create, create_oracle),
        ("p_2(beta)", kill, kill_oracle),
        ("L_1(beta)", lower, lower_oracle),
        ("L_-2(beta)", *virasoro_pair(-2, beta)),
        (
            "cubic(beta)",
            cubic_op(g, beta),
            oracle_normal_power_op(g, 3, beta, sixth, 0),
        ),
        (
            "O^2(alpha)",
            op_O(g, 2, alpha),
            OracleFockOperator(g, _direct_O(g, 2, alpha)),
        ),
        (
            "L_1 p_-1",
            compose(lower, create),
            oracle_compose(lower_oracle, create_oracle),
        ),
        (
            "[L_-1, p_2]",
            commutator(raise_, kill),
            oracle_commutator(raise_oracle, kill_oracle),
        ),
        ("realize", realize(g, x), oracle_realize(g, x)),
    ]


@pytest.mark.parametrize(
    "name, level",
    [("trivial", 3), ("cyclic2", 3), ("cyclic3", 3), ("sym3", 3), ("quaternion8", 3)],
)
def test_integer_columns_match_fraction_oracle(name, level):
    # every K^rho up to the level, and its image in the p basis, which
    # has cyclotomic coefficients on cyclic3 (as verify_convdiff applies
    # the realized operators)
    g = load_group(name)
    states = [basis_state(g, rho) for rho in enumerate_types_upto(g, level)]
    vectors = states + [on_vector(lambda rho: to_p_basis(g, rho), v) for v in states]
    for label, op, oracle in _integer_and_oracle_operators(g):
        for v in vectors:
            assert op(v) == oracle(v), (label, v)


def test_oracle_inputs_are_cyclotomic_on_cyclic3():
    # the cases above reach both Cyc paths: a cyclotomic tensor and a
    # vector with Cyc coefficients
    g = load_group("cyclic3")
    beta = require_character_table(g).irreducible(g.num_classes - 1)
    tensor = fock._scaled_pushforward(beta, 2, Fraction(1, 2))
    assert any(isinstance(c, Cyc) for _, c in tensor)
    image = to_p_basis(g, type_from_label("c1:[1]"))
    assert any(isinstance(c, Cyc) for c in image.coeffs.values())
    column = virasoro_op(g, -1, beta).column(type_from_label("c0:[1]"))
    assert any(isinstance(n, Cyc) for n in column.nums.values())


def test_cached_columns_compose_without_fractions(monkeypatch):
    g = load_group("cyclic2")
    alpha = k_basis(g, 1)
    f, h = virasoro_op(g, 1, alpha), heis(g, -2, alpha)
    prod, comm = compose(f, h), commutator(f, h)
    types = enumerate_types_upto(g, 2)
    # fill the factors' columns that the products read
    for rho in types:
        for sigma in h.column(rho).nums:
            f.column(sigma)
        for sigma in f.column(rho).nums:
            h.column(sigma)
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    columns = [(prod.column(rho), comm.column(rho)) for rho in types]
    assert made == []
    nonzero = [p for p, c in columns if not p.is_zero() and not c.is_zero()]
    assert nonzero
    # the counter sees the Fractions that reading a column back makes
    dict(nonzero[0].coeffs)
    assert made


# -- the pruned normal-power kernel against the unpruned oracle ----------


@pytest.mark.parametrize(
    "name", ["trivial", "cyclic2", "cyclic3", "sym3", "quaternion8"]
)
def test_normal_powers_match_oracle(name):
    # the last irreducible (cyclotomic on cyclic3), on every K^rho up to
    # level 3
    g = load_group(name)
    beta = require_character_table(g).irreducible(g.num_classes - 1)
    for rho in enumerate_types_upto(g, 3):
        v = basis_state(g, rho)
        for n in range(-3, 4):
            assert virasoro_op(g, n, beta)(v) == oracle_virasoro_L(
                g, n, beta, v
            ), (n, rho.label())
        assert cubic_op(g, beta)(v) == oracle_cubic_zero_mode(
            g, beta, v
        ), rho.label()


def test_faulty_pushforward_fails_the_same_cells_as_oracle(monkeypatch):
    g = load_group("trivial")
    original = fock.pushforward_tauk
    monkeypatch.setattr(
        fock, "pushforward_tauk", lambda f, k: _bump_first_term(original(f, k))
    )
    # the shared products and the pair order still report every cell of
    # the cell-by-cell loop, in its (n, m, b, c, rho) order
    cells = verify_virasoro(g, 3, 2)
    assert len(cells) == 98
    assert cells == oracle_verify_virasoro(g, 3, 2)
    cubic = verify_cubic(g, 3)
    assert len(cubic) == 5
    assert cubic == oracle_verify_cubic(g, 3)
    # cyclic2 has cells with b != c, whose two orders read the same
    # products and each compare with their own right side
    g = load_group("cyclic2")
    cells = verify_virasoro(g, 2, 2)
    assert any(b != c for _, _, b, c, _ in cells)
    assert cells == oracle_verify_virasoro(g, 2, 2)


def test_faulty_creation_fails_the_same_heisenberg_cells_as_oracle(monkeypatch):
    g = load_group("cyclic3")
    original = fock.heis_k
    monkeypatch.setattr(
        fock,
        "heis_k",
        lambda grp, m, cid, rho: original(grp, m, cid, rho).scale(2 if m == -2 else 1),
    )
    # both orders of each pair, the dual pairs with their central term
    cells = verify_heisenberg(g, 2)
    assert cells
    assert cells == oracle_verify_heisenberg(g, 2)


def _count_heis_k(monkeypatch):
    """Wrap fock.heis_k; the counts are keyed on (m, class, state)."""
    counts = {}
    original = fock.heis_k

    def counted(grp, m, cid, rho):
        counts[m, cid, rho] = counts.get((m, cid, rho), 0) + 1
        return original(grp, m, cid, rho)

    monkeypatch.setattr(fock, "heis_k", counted)
    return counts


def test_normal_powers_call_no_heis_k(monkeypatch):
    counts = _count_heis_k(monkeypatch)
    g = load_group("cyclic2")
    assert verify_virasoro(g, 3, 2) == []
    assert verify_cubic(g, 3) == []
    assert counts == {}


def test_heisenberg_computes_each_column_once(monkeypatch):
    counts = _count_heis_k(monkeypatch)
    g = load_group("cyclic2")
    assert verify_heisenberg(g, 3, 3) == []
    assert None not in counts
    assert counts and max(counts.values()) == 1


def test_operator_columns_build_no_basis_state(monkeypatch):
    # each kernel maps a basis type to its column, so no operator wraps
    # K^rho in a one-term vector to compute a column
    def refuse(group, rho):
        raise AssertionError(f"basis_state built for {rho.label()}")

    monkeypatch.setattr(fock, "basis_state", refuse)
    assert verify_heisenberg(load_group("cyclic2"), 3) == []
    # the central term of the Virasoro bracket is an identity column too
    assert verify_virasoro(load_group("cyclic2"), 3, 2) == []
    g = load_group("cyclic3")
    assert verify_covcomm(g, 2, 2) == []
    assert verify_vo(g, 1, 2, 2) == []
    assert verify_convdiff(g, 2, 1) == []
    # a bracket with a central part realizes it as the identity
    assert verify_winf_level_one(g, 2, 20) == []


@pytest.mark.parametrize("build", [compose, commutator])
def test_composite_operators_read_cached_columns(build):
    g = load_group("cyclic2")
    alpha = k_basis(g, 1)
    f = virasoro_op(g, 1, alpha)
    h = heis(g, -2, alpha)
    op = build(f, h)
    spread = _vector(g, SPREAD_VECTORS["cyclic2"])
    vectors = [spread] + [basis_state(g, rho) for rho in enumerate_types_upto(g, 2)]

    def direct(v):
        create = _direct_heis(g, -2, alpha)
        fh = virasoro_op(g, 1, alpha)(create(v))
        if build is compose:
            return fh
        return fh - create(virasoro_op(g, 1, alpha)(v))

    expected = [direct(v) for v in vectors]
    assert [op(v) for v in vectors] == expected
    # the second application reads only cached columns
    op.column_of = _no_recompute
    assert [op(v) for v in vectors] == expected


# -- fault injection: a wrong coefficient makes each suite fail ----------


def _bump_first_term(tensor):
    (key, coeff), *rest = tensor
    return ((key, coeff + 1), *rest)


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
    assert (2, 0, 0, "c0:[1]") in cells


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
