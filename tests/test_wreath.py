import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

import classalg.wreath as wreath
from classalg.algebra import convolve_n, k_class
from classalg.cli import run
from classalg.fock import verify_covcomm, xi_class_function
from classalg.groups import PRESETS, load_group, unit_g
from classalg.partitions import class_size, enumerate_types
from classalg.scalars import Cyc, _integral_numerators, zeta
from classalg.wreath import (
    ResourceCapError,
    WreathContext,
    WreathElement,
    canonical_representative,
    enumerate_class,
    enumerate_group,
    type_of,
    wreath_identity,
    wreath_inv,
    wreath_mul,
    wreath_order,
)
from oracles import (
    oracle_power_vec,
    oracle_type_of,
    oracle_wreath_mul,
    permutation_cycles,
    type_from_label,
)


def random_element(group, n, rng):
    g = tuple(rng.randrange(group.order) for _ in range(n))
    sigma = list(range(n))
    rng.shuffle(sigma)
    from classalg.wreath import WreathElement

    return WreathElement(g, tuple(sigma))


def test_group_laws():
    rng = random.Random(7)
    for name, n in (("cyclic2", 3), ("sym3", 2), ("cyclic4", 3)):
        g = load_group(name)
        e = wreath_identity(g, n)
        for _ in range(40):
            x = random_element(g, n, rng)
            y = random_element(g, n, rng)
            z = random_element(g, n, rng)
            assert wreath_mul(g, x, e) == x
            assert wreath_mul(g, e, x) == x
            assert wreath_mul(g, x, wreath_inv(g, x)) == e
            assert wreath_mul(g, wreath_mul(g, x, y), z) == wreath_mul(
                g, x, wreath_mul(g, y, z)
            )


def test_type_is_conjugation_invariant():
    rng = random.Random(11)
    g = load_group("sym3")
    n = 3
    for _ in range(60):
        x = random_element(g, n, rng)
        a = random_element(g, n, rng)
        conj = wreath_mul(g, wreath_mul(g, a, x), wreath_inv(g, a))
        assert type_of(g, conj) == type_of(g, x)


def test_enumeration_matches_order():
    for name, n in (("cyclic2", 3), ("sym3", 2)):
        g = load_group(name)
        elems = list(enumerate_group(g, n))
        assert len(elems) == wreath_order(g, n)
        assert len(set(elems)) == len(elems)


def test_class_sizes_by_enumeration():
    # formula-based class sizes agree with brute-force counting
    for name, n in (("cyclic2", 3), ("cyclic3", 2), ("sym3", 2)):
        g = load_group(name)
        counts = {}
        for x in enumerate_group(g, n):
            rho = type_of(g, x)
            counts[rho] = counts.get(rho, 0) + 1
        for rho in enumerate_types(g, n):
            assert counts[rho] == class_size(rho, g, n)


def test_canonical_representative_types():
    for name in ("cyclic2", "sym3"):
        g = load_group(name)
        for n in range(1, 4):
            for rho in enumerate_types(g, n):
                x = canonical_representative(g, rho, n)
                assert type_of(g, x) == rho


def test_enumerate_class_agrees():
    g = load_group("cyclic2")
    for rho in enumerate_types(g, 3):
        members = list(enumerate_class(g, rho, 3))
        assert len(members) == class_size(rho, g, 3)
        assert all(type_of(g, x) == rho for x in members)


def test_structure_constants_row_sums():
    # sum_t N[r][s][t] |C_t| = |C_r| |C_s|
    g = load_group("cyclic2")
    ctx = WreathContext.get(g, 3)
    sizes = ctx.class_sizes()
    k = len(ctx.types)
    for r in range(k):
        for s in range(k):
            row = ctx.structure_constants(r, s)
            total = sum(row[t] * sizes[t] for t in range(k))
            assert total == sizes[r] * sizes[s]


def test_cycle_structure():
    cycles = permutation_cycles((1, 2, 0, 4, 3, 5))
    assert cycles == ((0, 1, 2), (3, 4), (5,))


KERNEL_LEVELS = (
    [("trivial", n) for n in range(6)]
    + [("cyclic2", n) for n in range(5)]
    + [("sym3", n) for n in range(4)]
    + [("quaternion8", n) for n in range(3)]
)


def _kernel_mismatches(group, n, mul):
    """Where type_of, or ``mul`` on an element of Gamma_n and a class
    representative (either order), differs from its oracle."""
    reps = WreathContext.get(group, n).reps
    out = []
    for x in enumerate_group(group, n):
        if type_of(group, x) != oracle_type_of(group, x):
            out.append(("type_of", x))
        for r in reps:
            for a, b in ((x, r), (r, x)):
                if mul(group, a, b) != oracle_wreath_mul(group, a, b):
                    out.append(("wreath_mul", a, b))
    return out


@pytest.mark.parametrize("name,n", KERNEL_LEVELS)
def test_kernel_matches_oracles(name, n):
    assert _kernel_mismatches(load_group(name), n, wreath_mul) == []


def test_kernel_comparison_catches_swapped_permutation():
    # sigma^{-1} where sigma belongs: (g . sigma(h))_i taken as g_i h_{sigma(i)}
    def swapped(group, x, y):
        g = tuple(group.mul[a][y.g[s]] for a, s in zip(x.g, x.sigma))
        return WreathElement(g, tuple(x.sigma[t] for t in y.sigma))

    assert _kernel_mismatches(load_group("sym3"), 3, swapped)


def test_wreath_mul_level_mismatch():
    g = load_group("cyclic2")
    with pytest.raises(ValueError, match="level mismatch"):
        wreath_mul(g, wreath_identity(g, 2), wreath_identity(g, 3))


def test_resource_cap():
    g = load_group("sym3")
    with pytest.raises(ResourceCapError):
        list(enumerate_group(g, 4, cap=100))


def test_num_classes_z2_level2():
    g = load_group("cyclic2")
    assert len(enumerate_types(g, 2)) == 5


def _levels_up_to(limit):
    """(preset, n) for every preset and every n with |Gamma_n| <= limit."""
    for name in PRESETS:
        group = load_group(name)
        n = 0
        while wreath_order(group, n) <= limit:
            yield name, n
            n += 1


@pytest.mark.parametrize("name, n", list(_levels_up_to(4000)))
def test_character_rows_match_enumerated_table(name, n):
    ctx = WreathContext(load_group(name), n)  # fresh: no row cached yet
    table = ctx._enumerated_structure_constants()
    k = len(ctx.types)
    for r in range(k):
        for s in range(k):
            assert ctx.structure_constants(r, s) == table[r][s], (r, s)


def _scalar(chars, i, t):
    """The character value chars.values[i][t] as an exact scalar."""
    value = chars.values[i][t]
    total = value[0]
    for k in range(1, len(value)):
        total = total + value[k] * zeta(chars.modulus, k)
    return total


@pytest.mark.parametrize(
    "name, n",
    [
        ("trivial", 10),
        ("cyclic2", 6),
        ("sym3", 4),
        ("cyclic3", 3),
        ("quaternion8", 2),
        ("cyclic4", 3),
        ("cyclic5", 2),
        ("cyclic6", 2),
    ],
)
def test_character_table_relations(name, n):
    ctx = WreathContext(load_group(name), n)
    chars = ctx.characters()
    k = len(ctx.types)
    assert len(chars.labels) == k
    x = [[_scalar(chars, i, t) for t in range(k)] for i in range(k)]
    sizes = ctx.class_sizes()
    inv = [ctx.type_index[rho.inverse(ctx.group)] for rho in ctx.types]
    assert sum(d * d for d in chars.degrees()) == ctx.order
    for i in range(k):
        for j in range(k):
            total = sum(sizes[t] * x[i][t] * x[j][inv[t]] for t in range(k))
            assert total == (ctx.order if i == j else 0), (i, j)
    for t in range(k):
        for u in range(k):
            total = sum(x[i][t] * x[i][inv[u]] for i in range(k))
            assert total == (ctx.order // sizes[t] if t == u else 0), (t, u)


def test_contexts_live_and_die_with_the_group(tmp_path):
    path = tmp_path / "c2.txt"
    path.write_text("order 2\n0 1\n1 0\ncharacters\n1, 1\n1, -1\n")
    groups = [load_group(str(path)) for _ in range(5)]
    for g in groups:
        WreathContext.get(g, 2)
        WreathContext.get(g, 3)
        assert sorted(g.wreath_contexts) == [2, 3]
    assert not any(isinstance(v, dict) for v in vars(WreathContext).values())
    g = groups[0]
    rho = type_from_label("c1:[2,1]")
    convolve_n(k_class(g, 3, rho), k_class(g, 3, rho))
    xi_class_function(g, 3, 2, unit_g(g))
    ref = weakref.ref(g)
    del g, groups
    gc.collect()
    assert ref() is None


def test_class_table_does_not_enumerate(monkeypatch):
    g = load_group("cyclic2")
    monkeypatch.setattr(g, "wreath_contexts", {})

    def refuse(group, n, cap=None):
        raise AssertionError(f"Gamma_{n} enumerated")

    monkeypatch.setattr(wreath, "enumerate_group", refuse)
    rho = type_from_label("c0:[2,1]|c1:[2]")
    sigma = type_from_label("c1:[3,1,1]")
    product = convolve_n(k_class(g, 5, rho), k_class(g, 5, sigma))
    mass = sum(v * class_size(nu, g, 5) for nu, v in product.coeffs.items())
    assert mass == class_size(rho, g, 5) * class_size(sigma, g, 5)
    assert verify_covcomm(g, 3, 4) == []


def _flip_rim_hook_sign(monkeypatch, target):
    """Give every hook of the (parts, r) target the wrong sign, in fresh
    contexts for cyclic2."""
    monkeypatch.setattr(load_group("cyclic2"), "wreath_contexts", {})
    original = wreath._rim_hooks

    def hooks(parts, r):
        out = original(parts, r)
        if (parts, r) == target:
            return tuple((left, height + 1) for left, height in out)
        return out

    monkeypatch.setattr(wreath, "_rim_hooks", hooks)


def test_covcomm_catches_flipped_rim_hook_sign(monkeypatch, capsys):
    _flip_rim_hook_sign(monkeypatch, ((5,), 5))
    code = run(["fock", "verify", "covcomm", "--group", "cyclic2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [2, 0, 0, "c0:[4]"] in report["failures"]


def test_non_integral_class_table_entry_is_a_failure(monkeypatch, capsys):
    _flip_rim_hook_sign(monkeypatch, ((2,), 2))
    code = run(["fock", "verify", "covcomm", "--group", "cyclic2", "--level", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["status"] == "fail"
    assert report["failures"] == [[
        "exception",
        "ArithmeticError",
        "class-table entry (10, 3, 1) at n=4 is 5/2, not a nonnegative integer",
    ]]


def _power_sum(m, exponents):
    """sum_k z_m^k over the exponents, as phi(m) ints from the oracle."""
    return tuple(int(sum(c)) for c in zip(*(oracle_power_vec(m, k) for k in exponents)))


def test_lift_rejects_values_that_are_not_algebraic_integers():
    # a character value has numerators only over denominator 1
    for value in [Cyc(3, (Fraction(1, 2), Fraction(1, 2))), Fraction(1, 2)]:
        with pytest.raises(ArithmeticError):
            _integral_numerators([[1, value]])
    # the table goes over the least common conductor, lcm(3, 4) = 12
    assert _integral_numerators([[zeta(3), 1 + zeta(4), Fraction(-2)]]) == (
        12,
        [[_power_sum(12, [4]), _power_sum(12, [0, 3]), _power_sum(12, [6, 6])]],
    )
    assert _integral_numerators([[Fraction(-2), 5]]) == (1, [[(-2,), (5,)]])
