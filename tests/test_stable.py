import json

import classalg.stable as stable
from classalg.cli import run
from classalg.groups import load_group
from classalg.partitions import TypeFunction, enumerate_types_upto
from classalg.stable import (
    check_stability,
    embed_support,
    enumerate_orbit,
    forgetful_image,
    orbit_product_table,
    orbit_size,
    padded_class_multiple,
    p_rho_vector,
    restrict_support,
    stable_coefficient,
    stable_structure_constants,
    unnormalized_constant,
    verify_forgetful,
)
from classalg.wreath import canonical_representative, type_of


def lab(s):
    return TypeFunction.from_label(s)


def test_transposition_square_constants():
    # stable products of two transpositions, independent of the level
    g = load_group("trivial")
    t = lab("c0:[2]")
    row = stable_structure_constants(g, 2)[(t, t)]
    assert {nu.label(): d for nu, d in row.items()} == {
        "c0:[1,1]": 1,
        "c0:[3]": 3,
        "c0:[2,2]": 2,
    }


def test_signed_point_square_constants():
    # frozen sample for the order-two color
    g = load_group("cyclic2")
    t = lab("c1:[1]")
    row = stable_structure_constants(g, 2)[(t, t)]
    assert {nu.label(): d for nu, d in row.items()} == {
        "c0:[1]": 1,
        "c1:[1,1]": 2,
    }


def test_dual_route_agreement():
    # the factorization count equals the orbit-product oracle at a level
    g = load_group("trivial")
    cap, n = 2, 5
    stable = stable_structure_constants(g, cap)
    concrete = orbit_product_table(g, cap, n)
    for key, row in concrete.items():
        expected = {nu: d for nu, d in stable[key].items() if nu.norm <= n}
        assert row == expected


def test_stability_small():
    assert check_stability(load_group("trivial"), 2, [3, 4]) == []
    assert check_stability(load_group("cyclic2"), 1, [2, 3]) == []


def test_unnormalized_integrality():
    g = load_group("cyclic2")
    table = stable_structure_constants(g, 2)
    for (rho, sigma), row in table.items():
        for nu, dt in row.items():
            d = unnormalized_constant(g, rho, sigma, nu, dt)
            assert d == int(d) and d >= 0


def test_orbit_size_and_enumeration():
    g = load_group("cyclic2")
    rho = lab("c1:[1]")
    n = 3
    orbit = list(enumerate_orbit(g, rho, n))
    assert len(orbit) == orbit_size(g, rho, n) == 3


def test_embed_restrict_roundtrip():
    g = load_group("sym3")
    rho = lab("c1:[2]")
    a = canonical_representative(g, rho, 2)
    emb = embed_support(g, a, (1, 3), (0, 1, 2, 3))
    assert type_of(g, emb).pad_to(4) == rho.pad_to(4)
    back = restrict_support(g, emb, (0, 1, 2, 3), (1, 3))
    assert back == a


def test_forgetful_image_matches_padding():
    g = load_group("trivial")
    n = 5
    for rho in enumerate_types_upto(g, 3):
        assert forgetful_image(g, rho, n) == padded_class_multiple(g, rho, n)


def test_forgetful_homomorphism():
    assert verify_forgetful(load_group("trivial"), 2, 5) == []
    assert verify_forgetful(load_group("cyclic2"), 1, 3) == []


def test_p_rho_vector_matches_forgetful():
    g = load_group("cyclic2")
    n = 3
    for rho in enumerate_types_upto(g, 2):
        if rho.norm <= n:
            assert p_rho_vector(g, rho, n) == forgetful_image(g, rho, n)


def test_coefficient_support_filtration():
    # products only hit targets within the expected norm window
    g = load_group("trivial")
    rho, sigma = lab("c0:[2]"), lab("c0:[3]")
    for nu in enumerate_types_upto(g, 6):
        d = stable_coefficient(g, rho, sigma, nu)
        if d:
            assert max(rho.norm, sigma.norm) <= nu.norm <= rho.norm + sigma.norm


def test_stable_verify_catches_wrong_coefficient(monkeypatch, capsys):
    original = stable.stable_coefficient
    bumped = ("c0:[2]", "c0:[2]", "c0:[3]")

    def coefficient(group, rho, sigma, nu):
        d = original(group, rho, sigma, nu)
        return d + 1 if (rho.label(), sigma.label(), nu.label()) == bumped else d

    monkeypatch.setattr(stable, "stable_coefficient", coefficient)
    code = run(["stable", "verify", "--group", "trivial", "--cap", "2", "--n", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert "level 3: c0:[2] * c0:[2] mismatch" in report["failures"]
