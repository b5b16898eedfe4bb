from fractions import Fraction

import pytest

from classalg.groups import (
    CharacterTableError,
    ClassFunctionG,
    FiniteGroup,
    GroupValidationError,
    PRESETS,
    bilinear_form,
    convolve_g,
    euler_class,
    euler_number,
    k_basis,
    load_group,
    pushforward_tau2,
    pushforward_tauk,
    require_character_table,
    trace_g,
    unit_g,
)


def test_presets_load_and_validate():
    for name in PRESETS:
        g = load_group(name)
        assert g.character_table is not None
        assert sum(len(c) for c in g.classes) == g.order


def test_identity_class_first():
    for name in PRESETS:
        g = load_group(name)
        assert g.classes[0] == (g.identity,)


def test_sym3_structure():
    g = load_group("sym3")
    assert g.order == 6
    assert sorted(len(c) for c in g.classes) == [1, 2, 3]
    assert g.exponent == 6


def test_invalid_table_rejected():
    with pytest.raises(GroupValidationError):
        FiniteGroup([[0, 1], [0, 1]], name="bad")  # not a Latin square


def test_convolution_unit():
    g = load_group("sym3")
    f = ClassFunctionG(g, (Fraction(2), Fraction(-1), Fraction(5)))
    assert convolve_g(unit_g(g), f) == f


def test_class_sum_product_sym3():
    # transposition class sum squared in S3: 3*identity + 3*(3-cycles)
    g = load_group("sym3")
    t = next(c for c in range(g.num_classes) if len(g.classes[c]) == 3)
    r = next(c for c in range(g.num_classes) if len(g.classes[c]) == 2)
    sq = convolve_g(k_basis(g, t), k_basis(g, t))
    expected = [Fraction(0)] * g.num_classes
    expected[0] = Fraction(3)
    expected[r] = Fraction(3)
    assert sq == ClassFunctionG(g, tuple(expected))


def test_bilinear_form_on_class_sums():
    # <K^a, K^b> = delta_{b, a^{-1}} / zeta_a
    for name in ("cyclic3", "sym3", "quaternion8"):
        g = load_group(name)
        for a in range(g.num_classes):
            for b in range(g.num_classes):
                v = bilinear_form(k_basis(g, a), k_basis(g, b))
                expected = (
                    Fraction(1, g.zeta[a]) if b == g.inv_class[a] else 0
                )
                assert v == expected


def test_trace_of_unit():
    for name in ("trivial", "cyclic2", "sym3"):
        g = load_group(name)
        assert trace_g(unit_g(g)) == Fraction(1, g.order)


def test_idempotents_orthogonal():
    for name in ("cyclic2", "sym3", "dihedral8"):
        g = load_group(name)
        table = require_character_table(g)
        k = len(table.rows)
        for i in range(k):
            ei = table.idempotent(i)
            for j in range(k):
                ej = table.idempotent(j)
                prod = convolve_g(ei, ej)
                assert prod == (ei if i == j else ei.scale(0))


def test_trace_on_irreducibles():
    # the trace of an irreducible character is the reciprocal of h
    for name in ("cyclic3", "sym3"):
        g = load_group(name)
        table = require_character_table(g)
        for i in range(len(table.rows)):
            assert trace_g(table.irreducible(i)) == Fraction(1, table.h[i])


def test_tau2_adjointness():
    # <tau2 f, a x b> = <f, a o b> for class-sum test vectors
    for name in ("cyclic2", "sym3"):
        g = load_group(name)
        f = ClassFunctionG(
            g, tuple(Fraction(c + 1, 2) for c in range(g.num_classes))
        )
        t2 = f and pushforward_tau2(f)
        got = t2.as_dict()
        for a in range(g.num_classes):
            for b in range(g.num_classes):
                lhs = sum(
                    coeff
                    * bilinear_form(k_basis(g, key[0]), k_basis(g, a))
                    * bilinear_form(k_basis(g, key[1]), k_basis(g, b))
                    for key, coeff in got.items()
                )
                rhs = bilinear_form(
                    f, convolve_g(k_basis(g, a), k_basis(g, b))
                )
                assert lhs == rhs


def test_tau3_of_irreducible():
    # tau3 of an irreducible gamma is h^2 gamma x gamma x gamma
    g = load_group("cyclic2")
    table = require_character_table(g)
    for i in range(2):
        gam = table.irreducible(i)
        h = table.h[i]
        t3 = pushforward_tauk(gam, 3).as_dict()
        expected = {}
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    v = h * h * gam.values[a] * gam.values[b] * gam.values[c]
                    if v:
                        expected[(a, b, c)] = v
        assert t3 == expected


def test_euler_values():
    # the Euler number equals the number of irreducible characters
    for name in ("trivial", "cyclic2", "cyclic3", "sym3", "dihedral8"):
        g = load_group(name)
        assert euler_number(g) == g.num_classes


def test_euler_class_cyclic2():
    g = load_group("cyclic2")
    chi = euler_class(g)
    assert chi.values == (Fraction(4), Fraction(0))


def test_group_file_roundtrip(tmp_path):
    g = load_group("cyclic3")
    path = tmp_path / "c3.grp"
    lines = [f"order {g.order}"]
    for row in g.mul:
        lines.append(" ".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    loaded = load_group(str(path))
    assert loaded.order == 3
    assert loaded.num_classes == 3
    assert loaded.character_table is None
    with pytest.raises(CharacterTableError):
        require_character_table(loaded)


def test_group_file_is_read_on_every_load(tmp_path):
    path = tmp_path / "g.grp"
    path.write_text("order 2\n0 1\n1 0\n")
    assert load_group(str(path)).order == 2
    path.write_text("order 1\n0\n")
    assert load_group(str(path)).order == 1


def test_unknown_preset():
    with pytest.raises((ValueError, OSError)):
        load_group("nosuchgroup")
