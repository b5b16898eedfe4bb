import json
import random
from fractions import Fraction
from math import factorial

import pytest

import classalg.fock as fock
import classalg.winf as winf
from classalg.cli import run
from classalg.fock import basis_state, to_p_basis
from classalg.groups import CharacterTableError, load_group
from classalg.partitions import enumerate_types_upto
from classalg.scalars import Cyc
from classalg.series import HbarSeries
from classalg.winf import (
    CENTRAL,
    DiffOpElement,
    basis_J,
    convdiff_image,
    convdiff_poly,
    falling_factorial_poly,
    lemma_variable_residuals,
    p_l_polynomial,
    p_l_string,
    psi_scalar,
    realize,
    realize_J_mode,
    sample_elements,
    verify_bracket_laws,
    verify_convdiff,
    verify_vo,
    verify_winf_level_one,
    winf_bracket,
)
from oracles import (
    on_vector,
    oracle_realize_J_mode,
    oracle_winf_bracket,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_shift,
    type_from_label,
)


def test_poly_helpers():
    # falling factorial [D]_3 = D(D-1)(D-2) = D^3 - 3D^2 + 2D
    assert falling_factorial_poly(3) == (0, 2, -3, 1)
    assert poly_eval((0, 2, -3, 1), 4) == 24
    # shift: f(D+1) for f = D^2
    assert poly_shift((0, 0, 1), 1) == (1, 2, 1)
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)


def test_powers_in_the_falling_basis():
    # D^j = sum_l S(j, l) [D]_l, S the Stirling numbers of the second kind
    assert winf._stirling_row(4) == (0, 1, 7, 6, 1)
    for j in range(6):
        back = ()
        for l, s in enumerate(winf._stirling_row(j)):
            back = poly_add(back, poly_scale(falling_factorial_poly(l), s))
        assert back == (0,) * j + (1,)


def test_normally_ordered_polynomials():
    assert p_l_polynomial(1) == {(0,): 1}
    assert p_l_polynomial(2) == {(0, 0): 1, (1,): 1}
    assert p_l_polynomial(3) == {(0, 0, 0): 1, (0, 1): 3, (2,): 1}
    s = p_l_string(3)
    assert s == ":(J0)^3: + 3 :J0 d1J0: + d2J0"


def test_cocycle_values():
    # psi(t^r D^i, t^s D^j) = 0 unless r + s = 0
    assert psi_scalar(1, 0, 2, 0) == 0
    # psi(t^r, t^-r) on constants = r
    for r in range(1, 5):
        assert psi_scalar(r, 0, -r, 0) == r
        assert psi_scalar(-r, 0, r, 0) == -r
    # psi(t^2 D, t^-2 D^2) = (-2)(0)^2 + (-1)(1)^2
    assert psi_scalar(2, 1, -2, 2) == -1
    assert psi_scalar(-2, 2, 2, 1) == 1


def test_bracket_central_term():
    g = load_group("trivial")
    a = basis_J(g, 0, 2, 0)
    b = basis_J(g, 0, -2, 0)
    comm = winf_bracket(a, b)
    assert comm.coeffs == {CENTRAL: 2}
    assert comm.central == 2


def test_bracket_orthogonal_idempotents():
    g = load_group("cyclic2")
    a = basis_J(g, 1, 1, 0)
    b = basis_J(g, 1, -1, 1)
    assert winf_bracket(a, b).is_zero()


def basis_L(group, l, k, gamma_index):
    """L^l_k = -t^k D^l (x) e_gamma."""
    return DiffOpElement(group, {(k, gamma_index, l): -1})


def test_bracket_virasoro_relation():
    # [L_m, L_n] = (m - n) L_{m+n} + central, with L_k = -t^k D
    g = load_group("trivial")
    L = lambda k: basis_L(g, 1, k, 0) + basis_J(g, 0, k, 0).scale(
        Fraction(k, 2)
    )
    comm = winf_bracket(L(1), L(-1))
    expected = L(0).scale(2)
    # the cocycle f(-1) g(0) of f = -(D + 1/2), g = -(D - 1/2)
    assert comm - expected == DiffOpElement(g, {CENTRAL: Fraction(1, 4)})


@pytest.mark.parametrize(
    "name", ["trivial", "cyclic2", "cyclic3", "sym3", "quaternion8"]
)
def test_bracket_matches_the_polynomial_oracle(name):
    # every ordered pair of the sampled pool, central part included
    g = load_group(name)
    pool = sample_elements(g, random.Random(0))
    for x in pool:
        for y in pool:
            assert winf_bracket(x, y) == oracle_winf_bracket(x, y), (x, y)


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


def test_convdiff_poly_matches_the_series_at_integers():
    # sum_k hbar^k/k! poly_k(d) = (q^{h d} - 1)/(q^{-h} - 1) at D = d;
    # the points d = 0..order fix each poly_k, of degree k + 1 <= order
    order = 6
    for h in (1, 2, 3):
        den = HbarSeries.exp_hbar(-h, order) - 1
        for d in range(order + 1):
            series = (HbarSeries.exp_hbar(h * d, order) - 1).divide(den)
            for k in range(order):  # the quotient is known through order - 1
                value = poly_eval(convdiff_poly(h, k), d)
                assert value == series.coeff(k) * factorial(k), (h, d, k)


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


def test_vertex_operator_uncorrected_cells():
    # at h = 2 the printed form fails on every nonvacuum K^rho of level
    # <= 2, for both irreducibles of cyclic2
    g = load_group("cyclic2")
    cells = [
        "c0:[1]", "c1:[1]", "c0:[1]|c1:[1]",
        "c0:[1,1]", "c0:[2]", "c1:[1,1]", "c1:[2]",
    ]
    for gi in range(2):
        assert verify_vo(g, gi, 2, 3, corrected=False) == [(gi, c) for c in cells]


def test_vertex_operator_identity_below_the_level(capsys):
    # an order below the level still compares every hbar coefficient
    # that both sides know; no cell of a true identity may fail
    g = load_group("cyclic2")
    for order in range(4):
        for gi in range(2):
            assert verify_vo(g, gi, 3, order) == [], (order, gi)
    assert run(["all", "--group", "cyclic2", "--level", "3", "--order", "2"]) == 0
    capsys.readouterr()


def test_level_one_realization():
    for name in ("trivial", "cyclic2"):
        assert verify_winf_level_one(load_group(name), 3, 8) == []


def test_realize_central_is_identity():
    from classalg.fock import basis_state

    g = load_group("trivial")
    x = DiffOpElement(g, {CENTRAL: Fraction(3)})
    v = basis_state(g, type_from_label("c0:[2]"))
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


def test_vo_catches_wrong_annihilation_weight(monkeypatch):
    original = winf._partition_weight
    monkeypatch.setattr(
        winf,
        "_partition_weight",
        lambda lam, sign, scale, order: original(lam, sign, scale, order)
        * (2 if (sign, lam.parts) == (-1, (2,)) else 1),
    )
    # the zero mode's p_2 annihilation doubled: only the K^rho with a
    # 2-part move
    assert verify_vo(load_group("trivial"), 0, 3, 4) == [(0, "c0:[2]"), (0, "c0:[2,1]")]


def test_bracket_catches_wrong_cocycle(monkeypatch, capsys):
    original = winf.psi_scalar
    # shifting the r < 0 branch alone breaks psi(r, s) = -psi(s, r)
    monkeypatch.setattr(
        winf,
        "psi_scalar",
        lambda r, f, s, g: original(r, f, s, g) + (1 if (r, s) == (-1, 1) else 0),
    )
    code = run(["winf", "verify", "bracket", "--group", "trivial", "--triples", "10"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert ["antisymmetry", 8] in report["failures"]


@pytest.mark.parametrize(
    "name, level",
    [("trivial", 3), ("cyclic2", 3), ("cyclic3", 2), ("quaternion8", 2), ("sym3", 2)],
)
def test_J_modes_match_the_K_basis_oracle(name, level):
    # realize_J_mode on the p-image of K^rho is the p-image of the
    # K-basis realization, for every l <= 2, |k| <= 2, gamma and K^rho
    g = load_group(name)
    for rho in enumerate_types_upto(g, level):
        v = basis_state(g, rho)
        image = to_p_basis(g, rho)
        for gi in range(g.num_classes):
            for l in range(3):
                for k in range(-2, 3):
                    expected = on_vector(
                        lambda s: to_p_basis(g, s), oracle_realize_J_mode(g, l, k, gi, v)
                    )
                    actual = on_vector(lambda s: realize_J_mode(g, l, k, gi, s), image)
                    assert actual == expected, (l, k, gi, rho.label())


def test_p_basis_heisenberg_algebra():
    # p_{-r}(gamma) adds an r-part at colour gamma with factor 1 and
    # p_r(gamma) removes one with factor r times its multiplicity; the
    # mode k of P_1, the basic field itself, is p_k(gamma)
    g = load_group("cyclic3")
    mono = type_from_label("c1:[2,2,1]|c2:[1]")
    assert realize_J_mode(g, 0, -3, 1, mono) == basis_state(
        g, type_from_label("c1:[3,2,2,1]|c2:[1]")
    )
    assert realize_J_mode(g, 0, 2, 1, mono) == basis_state(
        g, type_from_label("c1:[2,1]|c2:[1]")
    ).scale(4)
    assert realize_J_mode(g, 0, 2, 2, mono).is_zero()


def test_change_of_basis_on_a_one_part_state():
    # K^{(r, c)} = r^{-1} sum_gamma gamma(c^{-1}) / zeta_c p_{-r}(gamma)|0>
    g = load_group("cyclic3")
    rows = g.character_table.rows
    for cid in range(g.num_classes):
        rho = type_from_label(f"c{cid}:[2]")
        expected = {
            type_from_label(f"c{gi}:[2]"): row.values[g.inv_class[cid]]
            * Fraction(1, 2 * g.zeta[cid])
            for gi, row in enumerate(rows)
        }
        assert to_p_basis(g, rho).coeffs == expected


def test_level_one_catches_wrong_annihilation_factor(monkeypatch, capsys):
    # p_r(gamma) scaled by the multiplicity alone: only 2-parts move
    monkeypatch.setattr(winf, "_annihilation_factor", lambda r, m: m)
    code = run(["winf", "verify", "level-one", "--group", "cyclic3", "--level", "2"])
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert code == 1
    assert [0, 0, "c0:[2]"] in failures
    # pair 1 breaks on colour 2 only, which the image of K^{c0:[1]}
    # reaches; the p-monomial of the same label lies on colour 0
    assert [1, "c0:[1]"] in failures
    g = load_group("cyclic3")
    k_cells = winf.verify_winf_level_one(g, 2, 20, 0)
    monkeypatch.setattr(winf, "to_p_basis", basis_state)
    p_cells = winf.verify_winf_level_one(g, 2, 20, 0)
    assert (1, "c0:[1]") in k_cells
    assert (1, "c0:[1]") not in p_cells


def test_level_one_runs_without_cyclotomic_arithmetic(monkeypatch):
    g = load_group("cyclic3")
    calls = []
    for name in ("__mul__", "__add__", "__radd__", "__rmul__"):
        original = getattr(Cyc, name)

        def counted(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Cyc, name, counted)
    assert verify_winf_level_one(g, 2, 4) == []
    assert calls == []
    # the counters see the arithmetic that the change of basis does
    to_p_basis(g, type_from_label("c1:[1]"))
    assert calls


@pytest.mark.parametrize("name", ["cyclic2", "cyclic3"])
def test_J_mode_columns_build_without_fractions(name, monkeypatch):
    # the J-mode operators that realize caches in j_ops build their
    # columns over l + 1 in integer arithmetic
    g = load_group(name)
    j_ops = {}
    for gi in range(g.num_classes):
        x = convdiff_image(g, 2, gi) + basis_J(g, 0, -2, gi) + basis_J(g, 2, 1, gi)
        realize(g, x, j_ops)
    assert {l for l, _, _ in j_ops} == {0, 1, 2, 3}
    types = enumerate_types_upto(g, 3)
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    columns = [op.column(rho) for op in j_ops.values() for rho in types]
    assert made == []
    assert any(col.den > 1 and not col.is_zero() for col in columns)
    # the counter sees the Fractions that reading a column back makes
    dict(next(col for col in columns if col.den > 1 and not col.is_zero()).coeffs)
    assert made


def test_mode_terms_annihilate_only_the_parts_present():
    word = p_l_polynomial(3)  # words of length 1 to 3
    for parts in ((), (1,), (2, 1), (2, 2, 1)):
        for w in word:
            for k in range(-2, 3):
                for removed, created in winf._mode_terms(w, k, parts):
                    rest = list(parts)
                    for r in removed:
                        rest.remove(r)  # raises if r is not a part left
                    assert sum(removed) - sum(created) == k
                    assert len(removed) + len(created) == len(w)
    assert winf._mode_terms((0, 0), 1, ()) == {}


def test_convdiff_builds_each_power_sum_once_per_level(monkeypatch):
    # one O^k(gamma) per (k, gamma): 3 powers, 3 irreducibles, 2 levels
    calls = []
    original = fock.xi_class_function

    def counted(group, n, k, alpha):
        calls.append((n, k))
        return original(group, n, k, alpha)

    monkeypatch.setattr(fock, "xi_class_function", counted)
    assert verify_convdiff(load_group("cyclic3"), 2, 2) == []
    assert len(calls) == 18
    assert {calls.count(key) for key in calls} == {3}


def test_failure_cells_match_the_K_basis_path(monkeypatch):
    # under a fault shared by both paths, the p-basis checks name the
    # same K^rho cells as the checks run wholly in the K basis
    original = winf._derivative_mode_factor
    monkeypatch.setattr(
        winf,
        "_derivative_mode_factor",
        lambda a, m: original(a, m) + (1 if (a, m) == (1, 1) else 0),
    )
    g = load_group("cyclic3")
    cells = (verify_winf_level_one(g, 2, 12), verify_convdiff(g, 2, 1))
    assert cells[0] and cells[1]
    monkeypatch.setattr(
        winf,
        "realize_J_mode",
        lambda group, l, k, gi, rho: oracle_realize_J_mode(
            group, l, k, gi, basis_state(group, rho)
        ),
    )
    monkeypatch.setattr(winf, "to_p_basis", basis_state)
    assert cells == (verify_winf_level_one(g, 2, 12), verify_convdiff(g, 2, 1))



@pytest.mark.parametrize("name", ["cyclic3", "cyclic6"])
def test_operator_columns_hold_no_fraction_numerator(name, monkeypatch):
    # every column a FockOperator computes for the vo and convdiff checks
    # holds int or Cyc numerators: a Cyc sum or product that is an
    # integer comes back as an int
    g = load_group(name)
    numerators = []
    init = fock.FockOperator.__init__

    def recording_init(self, group, column_of):
        def column(rho):
            col = column_of(rho)
            numerators.extend(col.nums.values())
            return col

        init(self, group, column)

    monkeypatch.setattr(fock.FockOperator, "__init__", recording_init)
    assert verify_vo(g, 1, 2, 2) == []
    assert verify_convdiff(g, 2, 2) == []
    fractions = sum(isinstance(v, Fraction) for v in numerators)
    assert fractions == 0, (fractions, len(numerators))
    assert any(isinstance(v, Cyc) for v in numerators)
