import json

import pytest

import classalg.stable as stable
from classalg.cli import run
from classalg.groups import PRESETS, load_group
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
    stable_coefficient,
    stable_structure_constants,
    unnormalized_constant,
    verify_forgetful,
)
from classalg.wreath import canonical_representative, type_of
from oracles import (
    oracle_orbit_product_table,
    oracle_stable_structure_constants,
    restrict_support,
)


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


@pytest.mark.parametrize(
    "name,cap",
    [(name, 1) for name in PRESETS]
    + [("trivial", 4), ("cyclic2", 2), ("cyclic3", 2), ("sym3", 2)],
)
def test_stable_table_matches_factorization_count(name, cap):
    g = load_group(name)
    assert stable_structure_constants(g, cap) == oracle_stable_structure_constants(g, cap)


def test_dual_route_agreement():
    # the level-table route equals the orbit-product oracle at a level
    g = load_group("trivial")
    cap, n = 2, 5
    stable = stable_structure_constants(g, cap)
    concrete = orbit_product_table(g, cap, n)
    for key, row in concrete.items():
        expected = {nu: d for nu, d in stable[key].items() if nu.norm <= n}
        assert row == expected


def test_stability_small():
    for name, cap, levels in (("trivial", 2, [3, 4]), ("cyclic2", 1, [2, 3])):
        g = load_group(name)
        stable = stable_structure_constants(g, cap)
        assert check_stability(g, cap, levels, stable) == []


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
    for name, cap, n in (("trivial", 2, 5), ("cyclic2", 1, 3)):
        g = load_group(name)
        stable = stable_structure_constants(g, cap)
        assert verify_forgetful(g, cap, n, stable) == []


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
    row = stable_coefficient(g, rho, sigma)
    assert row
    for nu, d in row.items():
        assert d > 0
        assert max(rho.norm, sigma.norm) <= nu.norm <= rho.norm + sigma.norm


def test_stable_verify_catches_wrong_coefficient(monkeypatch, capsys):
    original = stable.stable_coefficient

    def coefficient(group, rho, sigma):
        row = original(group, rho, sigma)
        if rho.label() == sigma.label() == "c0:[2]":
            row[lab("c0:[3]")] += 1
        return row

    monkeypatch.setattr(stable, "stable_coefficient", coefficient)
    code = run(["stable", "verify", "--group", "trivial", "--cap", "2", "--n", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert "level 3: c0:[2] * c0:[2] mismatch" in report["failures"]


@pytest.mark.parametrize(
    "name,cap,n",
    [
        ("trivial", 2, 4),
        ("cyclic2", 2, 3),
        ("sym3", 1, 3),
        ("cyclic3", 2, 3),
        ("sym3", 2, 3),
        ("quaternion8", 1, 3),
    ],
)
def test_orbit_product_table_matches_oracle(name, cap, n):
    g = load_group(name)
    assert orbit_product_table(g, cap, n) == oracle_orbit_product_table(g, cap, n)


def test_drop_fixed_points():
    rho = lab("c0:[2,1,1]|c1:[1]")
    assert stable._drop_fixed_points(rho, 0, 0) is rho
    assert stable._drop_fixed_points(rho, 2, 0) == lab("c0:[2]|c1:[1]")
    assert stable._drop_fixed_points(lab("c0:[1]"), 1, 0) == lab("empty")
    with pytest.raises(ValueError):
        stable._drop_fixed_points(rho, 3, 0)


def test_stable_verify_catches_kept_fixed_point(monkeypatch, capsys):
    # an off-by-one: the last identity 1-cycle outside the support is kept
    original = stable._drop_fixed_points

    def drop(rho, m, cid):
        return rho if m == 1 else original(rho, m, cid)

    monkeypatch.setattr(stable, "_drop_fixed_points", drop)
    code = run(["stable", "verify", "--group", "trivial", "--cap", "2", "--n", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert "level 3: empty * c0:[1,1] mismatch" in report["failures"]


def test_stable_verify_reports_every_level(monkeypatch, capsys):
    # one identity 1-cycle too many is dropped wherever there is one to
    # spare: level 3 mismatches, and level 4 cannot divide an orbit mass;
    # the level-4 error must not hide the level-3 cells
    original = stable._drop_fixed_points

    def drop(rho, m, cid):
        spare = m and rho.partition(cid).multiplicity(1) > m
        return original(rho, m + 1 if spare else m, cid)

    monkeypatch.setattr(stable, "_drop_fixed_points", drop)
    code = run(["stable", "verify", "--group", "trivial", "--cap", "2", "--n", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    failures = report["failures"]
    assert "level 4: orbit mass 6 not divisible by orbit size 4" in failures
    assert "level 3: c0:[2] * c0:[2] mismatch" in failures
    assert "level 3: empty * c0:[1] mismatch" in failures
    assert not any(f.startswith("level 4:") and "mismatch" in f for f in failures)


def test_each_class_enumerated_once(monkeypatch):
    calls = []
    original = stable.enumerate_class

    def counted(group, rho, n=None):
        calls.append(rho)
        return original(group, rho, n)

    monkeypatch.setattr(stable, "enumerate_class", counted)
    g = load_group("cyclic2")
    monkeypatch.setattr(g, "wreath_contexts", {})
    table = orbit_product_table(g, 2, 3)
    assert len(calls) == len(set(calls)) == len(enumerate_types_upto(g, 2))
    assert orbit_product_table(g, 2, 3) == table
    orbit_product_table(g, 2, 4)
    assert len(calls) == len(enumerate_types_upto(g, 2))


@pytest.mark.parametrize("n,expected", [(7, 1820), (8, 2807)])
def test_orbit_product_table_multiplies_one_representative(monkeypatch, n, expected):
    # one product per (rho, y in O_sigma): |types| * sum_sigma |O_sigma|
    calls = []
    original = stable.wreath_mul

    def counted(group, a, b):
        calls.append(None)
        return original(group, a, b)

    monkeypatch.setattr(stable, "wreath_mul", counted)
    g = load_group("trivial")
    orbit_product_table(g, 3, n)
    types = enumerate_types_upto(g, 3)
    assert len(calls) == expected == len(types) * sum(
        orbit_size(g, sigma, n) for sigma in types
    )


def _check_with_class_cut(monkeypatch, name, cap, levels, label, keep):
    # the orbit tables see a class of Gamma_k with members dropped, and
    # the level tables, filled before the patch, do not
    original = stable.enumerate_class

    def patched(group, rho, n=None):
        members = list(original(group, rho, n))
        return keep(members) if rho.label() == label else members

    g = load_group(name)
    table = stable_structure_constants(g, cap)
    monkeypatch.setattr(stable, "enumerate_class", patched)
    monkeypatch.setattr(g, "wreath_contexts", {})
    return check_stability(g, cap, levels, table)


def test_stable_check_catches_orbit_missing_a_member(monkeypatch):
    # O_rho is no longer an orbit, so its representative does not speak
    # for it; the masses still fail to divide
    failures = _check_with_class_cut(
        monkeypatch, "trivial", 3, [6, 7], "c0:[3]", lambda m: m[1:]
    )
    assert failures == [
        "level 6: orbit mass 20 not divisible by orbit size 40",
        "level 7: orbit mass 35 not divisible by orbit size 70",
    ]


def test_stable_check_catches_empty_orbit(monkeypatch):
    # an empty orbit gives empty rows, each a mismatch, not an IndexError
    failures = _check_with_class_cut(
        monkeypatch, "cyclic2", 2, [2, 3], "c1:[1,1]", lambda m: []
    )
    assert len(failures) == 30
    assert all("c1:[1,1]" in f and f.endswith("mismatch") for f in failures)
