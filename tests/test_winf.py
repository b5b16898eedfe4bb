from fractions import Fraction

import pytest

import classalg.fock as fock
import classalg.winf as winf
from classalg.groups import CharacterTableError, load_group
from classalg.winf import (
    DiffOpElement,
    basis_J,
    basis_L,
    convdiff_poly,
    falling_factorial_poly,
    heis_dict_element,
    lemma_variable_residuals,
    p_l_polynomial,
    p_l_string,
    poly_eval,
    poly_mul,
    poly_shift,
    poly_to_falling,
    psi_scalar,
    realize,
    verify_bracket_laws,
    verify_convdiff,
    verify_vo,
    verify_winf_level_one,
    winf_bracket,
)


def test_poly_helpers():
    # falling factorial [D]_3 = D(D-1)(D-2) = D^3 - 3D^2 + 2D
    assert falling_factorial_poly(3) == (0, 2, -3, 1)
    assert poly_eval((0, 2, -3, 1), 4) == 24
    # shift: f(D+1) for f = D^2
    assert poly_shift((0, 0, 1), 1) == (1, 2, 1)
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)


def test_falling_basis_roundtrip():
    # expanding a polynomial in falling factorials recovers it
    for f in [(5,), (0, 1, 2, 3), (1, 0, 0, 0, 1)]:
        coeffs = poly_to_falling(f)
        back = ()
        from classalg.winf import poly_add, poly_scale

        for l, c in enumerate(coeffs):
            back = poly_add(back, poly_scale(falling_factorial_poly(l), c))
        assert back == tuple(Fraction(x) for x in f)


def test_normally_ordered_polynomials():
    assert p_l_polynomial(1) == {(0,): 1}
    assert p_l_polynomial(2) == {(0, 0): 1, (1,): 1}
    assert p_l_polynomial(3) == {(0, 0, 0): 1, (0, 1): 3, (2,): 1}
    s = p_l_string(3)
    assert s == ":(J0)^3: + 3 :J0 d1J0: + d2J0"


def test_cocycle_values():
    # psi(t^r f, t^s g) = 0 unless r + s = 0
    assert psi_scalar(1, (1,), 2, (1,)) == 0
    # psi(t^r, t^-r) on constants = r
    for r in range(1, 5):
        assert psi_scalar(r, (1,), -r, (1,)) == r
        assert psi_scalar(-r, (1,), r, (1,)) == -r


def test_bracket_central_term():
    g = load_group("trivial")
    a = heis_dict_element(g, 2, 0)
    b = heis_dict_element(g, -2, 0)
    comm = winf_bracket(a, b)
    assert comm.terms == {}
    assert comm.central == 2


def test_bracket_orthogonal_idempotents():
    g = load_group("cyclic2")
    a = basis_J(g, 1, 1, 0)
    b = basis_J(g, 1, -1, 1)
    assert winf_bracket(a, b).is_zero()


def test_bracket_virasoro_relation():
    # [L_m, L_n] = (m - n) L_{m+n} + central, with L_k = -t^k D
    g = load_group("trivial")
    L = lambda k: basis_L(g, 1, k, 0) + basis_J(g, 0, k, 0).scale(
        Fraction(k, 2)
    )
    comm = winf_bracket(L(1), L(-1))
    expected = L(0).scale(2)
    assert comm.terms == expected.terms


def test_bracket_laws():
    for name in ("trivial", "cyclic2"):
        assert verify_bracket_laws(load_group(name), 15) == []


def test_convdiff_poly_first_values():
    # k = 0 coefficient for h = 1 is -D
    assert convdiff_poly(1, 0) == (0, -1)
    # the k-th coefficient has degree k + 1
    for h in (1, 2):
        for k in range(4):
            assert len(convdiff_poly(h, k)) == k + 2


def test_convdiff_realization():
    for name in ("trivial", "cyclic2"):
        assert verify_convdiff(load_group(name), 3, max_k=2) == []


def test_lemma_residuals_vanish():
    for r in lemma_variable_residuals(5, max_d=4):
        assert r.is_zero()


def test_vertex_operator_identity():
    g = load_group("trivial")
    assert verify_vo(g, 0, 2, 3) == []
    g2 = load_group("cyclic2")
    for gi in range(2):
        assert verify_vo(g2, gi, 2, 3) == []


def test_vertex_operator_uncorrected_form():
    # the unscaled form holds when every character has degree dividing
    # the group order trivially (h = 1) but fails otherwise
    g = load_group("trivial")
    assert verify_vo(g, 0, 2, 3, corrected=False) == []
    g2 = load_group("cyclic2")
    assert verify_vo(g2, 0, 2, 3, corrected=False) != []


def test_level_one_realization():
    for name in ("trivial", "cyclic2"):
        assert verify_winf_level_one(load_group(name), 3, 8) == []


def test_realize_central_is_identity():
    from classalg.fock import basis_state
    from classalg.partitions import TypeFunction

    g = load_group("trivial")
    x = DiffOpElement(g, central=Fraction(3))
    v = basis_state(g, TypeFunction.from_label("c0:[2]"))
    assert realize(g, x)(v) == v.scale(3)


def test_diffop_requires_character_table(tmp_path):
    path = tmp_path / "c2.txt"
    path.write_text("order 2\n0 1\n1 0\n")
    g = load_group(str(path))
    with pytest.raises(CharacterTableError):
        DiffOpElement(g)


def test_level_one_catches_wrong_mode_factor(monkeypatch):
    # the mode-1 factor of the first derivative field enters P_2 through
    # :J0 d1J0:, so every J^1_0 column that absorbs a 1-part moves
    g = load_group("trivial")
    original = winf._derivative_mode_factor
    monkeypatch.setattr(
        winf,
        "_derivative_mode_factor",
        lambda a, m: original(a, m) + (1 if (a, m) == (1, 1) else 0),
    )
    assert (1, 0, "c0:[1]") in verify_convdiff(g, 2, 1)
    assert verify_winf_level_one(g, 2, 8) != []


def test_vo_catches_wrong_power_sum(monkeypatch):
    g = load_group("trivial")
    original = fock._xi_class
    monkeypatch.setattr(
        fock,
        "_xi_class",
        lambda grp, n, k, cid: original(grp, n, k, cid).scale(
            2 if (n, k) == (2, 1) else 1
        ),
    )
    # O^1 doubled at level 2 only: the hbar^1 coefficient of O_hbar moves
    # on both level-2 basis states and nowhere else
    assert verify_vo(g, 0, 2, 3) == [(0, "c0:[1,1]"), (0, "c0:[2]")]
