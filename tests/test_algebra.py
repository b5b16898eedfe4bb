from fractions import Fraction

import pytest

import classalg.algebra as algebra
from classalg.algebra import (
    GroupAlgebraElement,
    WreathClassFunction,
    algebra_unit,
    convolve_n,
    embed_level,
    eta_n,
    elementary_symmetric_jm,
    jm_element,
    k_class,
    subalgebra_generated,
    to_class_function,
    unit_class,
    verify_jm,
    xi_power_sum,
)
from classalg.fock import FockVector, p_i_vector
from classalg.groups import k_basis, load_group
from classalg.partitions import TypeFunction, class_size, enumerate_types
from classalg.scalars import _RowSpace
from classalg.wreath import WreathContext
from oracles import (
    OracleRowSpace,
    bilinear_form_n,
    oracle_subalgebra_dim,
    to_group_algebra,
    type_from_label,
)


def brute_force_product(f, g):
    """Multiply two central elements via the full group algebra."""
    return convolve_via_elements(to_group_algebra(f), to_group_algebra(g))


def convolve_via_elements(a, b):
    return a * b


def test_convolution_against_group_algebra():
    # the representative-counting product agrees with termwise products
    for name, n in (("trivial", 3), ("cyclic2", 2), ("cyclic2", 3)):
        g = load_group(name)
        for rho in enumerate_types(g, n):
            for sigma in enumerate_types(g, n):
                fast = convolve_n(k_class(g, n, rho), k_class(g, n, sigma))
                slow = to_class_function(
                    to_group_algebra(k_class(g, n, rho))
                    * to_group_algebra(k_class(g, n, sigma))
                )
                assert fast == slow, (rho.label(), sigma.label())


def test_transposition_square_s3():
    # brute force over S3: K^{(2,1)} o K^{(2,1)} = 3 K^{(1^3)} + 3 K^{(3)}
    g = load_group("trivial")
    rho = type_from_label("c0:[2,1]")
    sq = convolve_n(k_class(g, 3, rho), k_class(g, 3, rho))
    expected = WreathClassFunction(
        g,
        3,
        {
            type_from_label("c0:[1,1,1]"): Fraction(3),
            type_from_label("c0:[3]"): Fraction(3),
        },
    )
    assert sq == expected


def test_unit_class():
    g = load_group("cyclic2")
    u = unit_class(g, 3)
    for rho in enumerate_types(g, 3):
        f = k_class(g, 3, rho)
        assert convolve_n(u, f) == f


def test_bilinear_form_class_sums():
    # <K^rho, K^sigma> = delta_{sigma, rho^{-1}} / Z_rho
    g = load_group("cyclic4")
    n = 2
    order = WreathContext.get(g, n).order
    for rho in enumerate_types(g, n):
        for sigma in enumerate_types(g, n):
            v = bilinear_form_n(k_class(g, n, rho), k_class(g, n, sigma))
            if sigma == rho.inverse(g):
                assert v == Fraction(class_size(rho, g, n), order)
            else:
                assert v == 0


def test_jm_support():
    for name in ("trivial", "cyclic2", "sym3"):
        g = load_group(name)
        n = 3
        assert len(jm_element(g, 1, n).coeffs) == 0
        for j in range(2, n + 1):
            assert len(jm_element(g, j, n).coeffs) == (j - 1) * g.order


def test_jm_square_level2():
    # the square of the level-2 JM element is the unit for trivial Gamma
    g = load_group("trivial")
    xi = jm_element(g, 2, 2)
    assert xi * xi == algebra_unit(g, 2)


def test_xi_power_sum_transposition_class():
    g = load_group("cyclic3")
    f = xi_power_sum(g, 3, 1, k_basis(g, 0))
    assert f == WreathClassFunction(
        g, 3, {type_from_label("c0:[2,1]"): Fraction(1)}
    )


def test_xi_power_sum_zero():
    # the zeroth power sum places the class function in every slot
    g = load_group("cyclic2")
    f = xi_power_sum(g, 2, 0, k_basis(g, 1))
    assert f == WreathClassFunction(
        g, 2, {type_from_label("c0:[1]|c1:[1]"): Fraction(1)}
    )


def test_group_algebra_coefficients_stay_integers():
    # integer class sums and JM elements keep the products in int arithmetic
    g = load_group("cyclic2")
    rho, sigma = enumerate_types(g, 3)[1:3]
    vectors = [
        jm_element(g, 3, 3),
        xi_power_sum(g, 3, 2, k_basis(g, 1)),
        convolve_n(k_class(g, 3, rho), k_class(g, 3, sigma)),
    ]
    for vec in vectors:
        assert vec.den == 1 and vec.nums
        assert all(type(v) is int for v in vec.nums.values())


def test_centrality_conversion_rejects_noncentral():
    g = load_group("cyclic2")
    one_slot = embed_level(k_basis(g, 1), 1, 2)
    with pytest.raises(ValueError):
        to_class_function(one_slot)


def test_jm_identities_small():
    for name, nmax in (("trivial", 3), ("cyclic2", 3)):
        g = load_group(name)
        for n in range(1, nmax + 1):
            assert verify_jm(g, n) == []


def test_eta_epsilon_match_on_elements():
    # eta with the one-slot basis gives the one-class characteristic sums
    g = load_group("cyclic2")
    n = 3
    for c in range(g.num_classes):
        f = to_class_function(eta_n(g, n, k_basis(g, c)))
        for rho, v in f.coeffs.items():
            assert v == 1
            assert all(cid == c for cid, _ in rho.items)


def test_elementary_symmetric_top():
    # E_n(gamma) equals the full product
    g = load_group("cyclic2")
    n = 3
    gamma = k_basis(g, 0)
    top = elementary_symmetric_jm(g, n, gamma, n)
    assert top == to_class_function(eta_n(g, n, gamma))


def test_subalgebra_unit_only():
    g = load_group("cyclic2")
    dim, basis = subalgebra_generated([], g, 3)
    assert dim == 1
    assert len(basis) == 1


def test_subalgebra_full():
    g = load_group("trivial")
    gens = [xi_power_sum(g, 4, k, k_basis(g, 0)) for k in range(4)]
    dim, _ = subalgebra_generated(gens, g, 4)
    assert dim == len(enumerate_types(g, 4))


@pytest.mark.parametrize("name, n", [("cyclic2", 4), ("sym3", 3), ("quaternion8", 2)])
def test_subalgebra_multiplies_each_basis_element_once(name, n, monkeypatch):
    # at most one convolution per basis element and generator, and none
    # once the span is the whole class algebra: replaying the products in
    # the order they were made, the span fills only with the last one
    g = load_group(name)
    gens = [
        xi_power_sum(g, n, i, k_basis(g, c))
        for i in range(n)
        for c in range(g.num_classes)
    ]
    calls = []
    original = algebra.convolve_n

    def counted(f, h):
        product = original(f, h)
        calls.append((f, h, product))
        return product

    monkeypatch.setattr(algebra, "convolve_n", counted)
    dim, basis = subalgebra_generated(gens, g, n)
    types = enumerate_types(g, n)
    assert dim == len(basis) == len(types)
    pairs = [(id(f), id(h)) for f, h, _ in calls]
    assert len(set(pairs)) == len(pairs)
    space = OracleRowSpace(dim)
    for f in [unit_class(g, n)] + gens:
        space.insert([f.coeffs.get(rho, 0) for rho in types])
    for _, _, product in calls:
        assert len(space.rows) < dim
        space.insert([product.coeffs.get(rho, 0) for rho in types])
    assert len(space.rows) == dim
    assert len(calls) < dim * len(gens)


def _families(g, n, classes=None):
    """The two generating families of verify_generators, over the given
    classes (all by default)."""
    classes = range(g.num_classes) if classes is None else classes
    pairs = [(i, c) for i in range(n) for c in classes]
    return (
        [xi_power_sum(g, n, i, k_basis(g, c)) for i, c in pairs],
        [p_i_vector(g, i, k_basis(g, c), n) for i, c in pairs],
    )


@pytest.mark.parametrize(
    "name, n", [("trivial", 4), ("cyclic2", 3), ("sym3", 3), ("quaternion8", 2)]
)
def test_subalgebra_dimension_matches_fraction_oracle(name, n):
    # the int elimination and Gauss-Jordan over Fraction find the same
    # dimension, the whole class algebra, for both families
    g = load_group(name)
    expected = len(enumerate_types(g, n))
    for gens in _families(g, n):
        assert subalgebra_generated(gens, g, n)[0] == expected
        assert oracle_subalgebra_dim(gens, g, n) == expected


def test_proper_subalgebra_dimension_matches_fraction_oracle():
    # the families over the identity class alone generate less
    g = load_group("sym3")
    for gens in _families(g, 3, classes=[0]):
        dim = subalgebra_generated(gens, g, 3)[0]
        assert dim == oracle_subalgebra_dim(gens, g, 3)
        assert 1 < dim < len(enumerate_types(g, 3))


def test_row_space_inserts_generator_numerators_without_fractions(monkeypatch):
    # the rows subalgebra_generated inserts, replayed into a fresh
    # _RowSpace, are reduced in int arithmetic alone
    g = load_group("quaternion8")
    inserted = []

    class Recording(_RowSpace):
        def insert(self, vec):
            inserted.append(list(vec))
            return super().insert(vec)

    monkeypatch.setattr(algebra, "_RowSpace", Recording)
    gens = _families(g, 2)[0]
    dim = subalgebra_generated(gens, g, 2)[0]
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    space = _RowSpace(len(inserted[0]))
    grew = [space.insert(vec) for vec in inserted]
    assert made == []
    assert sum(grew) == len(space.rows) == dim
    assert len(inserted) > dim


def test_row_space_zero_row():
    space = _RowSpace(3)
    assert space.insert([0, 0, 0]) is False
    assert space.insert([2, -4, 6]) is True
    assert space.rows == {0: [1, -2, 3]}
    assert space.insert([0, 0, 0]) is False
    assert space.insert([-1, 2, -3]) is False
    assert space.insert([0, -3, 3]) is True
    assert space.rows == {0: [1, 0, 1], 1: [0, 1, -1]}


def test_embed_level_commutation():
    g = load_group("sym3")
    a = embed_level(k_basis(g, 1), 1, 3)
    b = embed_level(k_basis(g, 2), 3, 3)
    assert (a * b - b * a).is_zero()


def _vector(kind, group, n, values):
    """A vector of the given container type whose coefficients on the
    first basis elements of level n are values."""
    ctx = WreathContext.get(group, n)
    basis = ctx.reps if kind is GroupAlgebraElement else ctx.types
    coeffs = {b: Fraction(v) for b, v in zip(basis, values)}
    if kind is FockVector:
        return FockVector(group, coeffs)
    return kind(group, n, coeffs)


@pytest.mark.parametrize(
    "kind",
    [GroupAlgebraElement, WreathClassFunction, FockVector],
    ids=lambda kind: kind.__name__,
)
def test_sparse_container_contract(kind):
    g, h = load_group("cyclic2"), load_group("cyclic3")
    x = _vector(kind, g, 2, [1, 2])
    with pytest.raises(ValueError):
        x + _vector(kind, h, 2, [1])
    if kind is not FockVector:
        with pytest.raises(ValueError):
            x + _vector(kind, g, 3, [1])
    # the constructor drops zeros, so equality with it shows that the
    # sum stored none
    zero = _vector(kind, g, 2, [])
    assert x + _vector(kind, g, 2, [-1, 3]) == _vector(kind, g, 2, [0, 5])
    cancelled = x + _vector(kind, g, 2, [-1, -2])
    assert cancelled == zero and cancelled.is_zero()
    assert (x - x).is_zero()
    assert x.scale(0) == zero and x.scale(0).is_zero()
    with pytest.raises(TypeError):
        hash(x)


def test_lincomb_rejects_a_fraction_multiplier():
    # a numerator is an int or a Cyc, so a Fraction multiplier is refused
    # on the one-term path and on the general path, even when integral
    g = load_group("cyclic2")
    x = _vector(WreathClassFunction, g, 2, [1, 2])
    for terms in [
        [(Fraction(1), x)],
        [(Fraction(1, 2), x)],
        [(1, x), (Fraction(3), x)],
    ]:
        with pytest.raises(TypeError):
            algebra._lincomb(terms)
    assert algebra._lincomb([(2, x), (-1, x)]) == (1, x.nums)


def test_class_function_rejects_type_of_other_level():
    g = load_group("cyclic2")
    with pytest.raises(ValueError):
        WreathClassFunction(g, 2, {TypeFunction().pad_to(3): 1})


def test_jm_catches_wrong_eta_value(monkeypatch):
    g = load_group("trivial")
    original = algebra.eta_value_formula
    monkeypatch.setattr(
        algebra,
        "eta_value_formula",
        lambda grp, n, gamma, rho: original(grp, n, gamma, rho)
        + (1 if rho.label() == "c0:[2]" else 0),
    )
    assert "eta value at c0:[2]" in verify_jm(g, 2)
