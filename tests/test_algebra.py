from fractions import Fraction

import pytest

import classalg.algebra as algebra
from classalg.algebra import (
    GroupAlgebraElement,
    WreathClassFunction,
    algebra_unit,
    bilinear_form_n,
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
from classalg.fock import FockVector
from classalg.groups import k_basis, load_group
from classalg.partitions import TypeFunction, class_size, enumerate_types
from classalg.wreath import WreathContext


def brute_force_product(f, g):
    """Multiply two central elements via the full group algebra."""
    return convolve_via_elements(f.to_group_algebra(), g.to_group_algebra())


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
                    k_class(g, n, rho).to_group_algebra()
                    * k_class(g, n, sigma).to_group_algebra()
                )
                assert fast == slow, (rho.label(), sigma.label())


def test_transposition_square_s3():
    # brute force over S3: K^{(2,1)} o K^{(2,1)} = 3 K^{(1^3)} + 3 K^{(3)}
    g = load_group("trivial")
    rho = TypeFunction.from_label("c0:[2,1]")
    sq = convolve_n(k_class(g, 3, rho), k_class(g, 3, rho))
    expected = WreathClassFunction(
        g,
        3,
        {
            TypeFunction.from_label("c0:[1,1,1]"): Fraction(3),
            TypeFunction.from_label("c0:[3]"): Fraction(3),
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
        assert jm_element(g, 1, n).support_size() == 0
        for j in range(2, n + 1):
            assert jm_element(g, j, n).support_size() == (j - 1) * g.order


def test_jm_square_level2():
    # the square of the level-2 JM element is the unit for trivial Gamma
    g = load_group("trivial")
    xi = jm_element(g, 2, 2)
    assert xi * xi == algebra_unit(g, 2)


def test_xi_power_sum_transposition_class():
    g = load_group("cyclic3")
    f = xi_power_sum(g, 3, 1, k_basis(g, 0))
    assert f == WreathClassFunction(
        g, 3, {TypeFunction.from_label("c0:[2,1]"): Fraction(1)}
    )


def test_xi_power_sum_zero():
    # the zeroth power sum places the class function in every slot
    g = load_group("cyclic2")
    f = xi_power_sum(g, 2, 0, k_basis(g, 1))
    assert f == WreathClassFunction(
        g, 2, {TypeFunction.from_label("c0:[1]|c1:[1]"): Fraction(1)}
    )


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
