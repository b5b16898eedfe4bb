import operator
import random
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classalg.scalars import (
    Cyc,
    ScalarParseError,
    _phi,
    _solve_columns,
    cyclotomic_poly,
    inverse,
    powers,
    scalar_from_string,
    scalar_to_string,
    zeta,
)
from classalg.scalars import _reduce as reduce_mod_phi
from oracles import (
    OracleRowSpace,
    oracle_canonical,
    oracle_cyclotomic_poly,
    oracle_phi,
    oracle_power_vec,
    oracle_solve_columns,
    poly_divmod,
)


def test_zeta_order():
    for m in (2, 3, 4, 5, 6, 8, 12):
        z = zeta(m)
        power = 1
        for _ in range(m):
            power = power * z
        assert power == 1
        partial = 1
        for j in range(1, m):
            partial = partial * z
            assert partial != 1


def test_zeta_two_is_minus_one():
    assert zeta(2) == -1
    assert zeta(4) * zeta(4) == -1


def test_conductor_reduction():
    # zeta_6^2 lives in the third cyclotomic field
    z = zeta(6, 2)
    assert z == zeta(3)


def test_cyclotomic_poly_degrees():
    # degrees are Euler phi values
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4}
    for m, deg in expected.items():
        assert len(cyclotomic_poly(m)) - 1 == deg


def test_sum_of_roots():
    # sum over all m-th roots of unity vanishes for m > 1
    for m in (2, 3, 4, 5, 6):
        total = sum(zeta(m, k) for k in range(m))
        assert total == 0


def test_inverse_rational():
    assert inverse(Fraction(3, 7)) == Fraction(7, 3)
    assert inverse(4) == Fraction(1, 4)


def test_inverse_cyclotomic():
    for m in (3, 4, 5, 7, 8):
        for k in range(1, m):
            z = zeta(m, k)
            assert z * inverse(z) == 1
    x = 1 + zeta(5) + 2 * zeta(5, 3)
    assert x * inverse(x) == 1


def test_conjugate_is_inverse_on_roots():
    for m in (3, 4, 5, 8):
        assert zeta(m).conjugate() == zeta(m, m - 1)


def test_string_roundtrip():
    values = [
        Fraction(0),
        Fraction(-5, 3),
        zeta(5),
        Fraction(3, 2) * zeta(5, 2) - 1,
        zeta(8) + zeta(8, 3),
    ]
    for v in values:
        conductor = v.m if isinstance(v, Cyc) else 1
        text = scalar_to_string(v)
        back = scalar_from_string(text, conductor)
        assert back == v, (text, v)


def test_string_never_float():
    text = scalar_to_string(Fraction(1, 3))
    assert "." not in text
    assert "0.3" not in text


def test_parse_error():
    with pytest.raises(ScalarParseError):
        scalar_from_string("1.5", 4)
    with pytest.raises(ScalarParseError):
        scalar_from_string("z4^x", 4)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-9, max_value=9, max_denominator=9),
            st.integers(min_value=0, max_value=11),
        ),
        min_size=0,
        max_size=4,
    )
)
def test_field_laws(parts):
    x = sum((c * zeta(12, k) for c, k in parts), Fraction(0))
    y = 1 + zeta(12, 5)
    # commutativity and distributivity against a fixed element
    assert x * y == y * x
    assert (x + y) * y == x * y + y * y
    if x != 0:
        assert x * inverse(x) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.integers(min_value=0, max_value=7),
)
def test_serialization_roundtrip_random(a, b, k):
    v = a + b * zeta(8, k)
    conductor = v.m if isinstance(v, Cyc) else 1
    assert scalar_from_string(scalar_to_string(v), conductor) == v


def test_public_constructor_rejects_non_canonical():
    for m, coeffs in [
        (3, (1, 0)),  # the rational 1
        (3, (1,)),  # wrong length
        (6, (0, 1)),  # zeta_6 lies in Q(zeta_3)
        (6, (1, 1)),
        (8, (0, 0, 1, 0)),  # zeta_8^2 = zeta_4
        (1, (5,)),
        (0, ()),
    ]:
        with pytest.raises(ValueError):
            Cyc(m, coeffs)
    assert Cyc(3, (0, 1)) == zeta(3)
    assert Cyc(8, (1, 1, 0, 0)) == 1 + zeta(8)
    assert hash(Cyc(8, (1, 1, 0, 0))) == hash(1 + zeta(8))


# Oracle for the arithmetic: exact arithmetic in Q[x]/(x^m - 1) (cyclic
# convolution), reduced mod Phi_m by long division over Fraction, then
# canonicalized by the Fraction solver of tests/oracles.py.  An oracle
# value is a Fraction or (conductor, coeffs).

CONDUCTORS = (3, 4, 5, 8, 9, 12, 15, 21)


def _conductor(x):
    return x.m if isinstance(x, Cyc) else 1


def _form(x):
    """A library scalar in the oracle's terms."""
    return (x.m, x.coeffs) if isinstance(x, Cyc) else x


def _value(form):
    """The library scalar of an oracle value."""
    return Cyc(*form) if isinstance(form, tuple) else form


def _oracle_string(form):
    if isinstance(form, tuple):
        return scalar_to_string(SimpleNamespace(m=form[0], coeffs=form[1]))
    return scalar_to_string(form)


def _cyclic(x, m):
    """x as coefficients of 1, z_m, ..., z_m^(m-1); x lies in Q(zeta_d), d | m."""
    w = [Fraction(0)] * m
    if isinstance(x, Cyc):
        step = m // x.m
        for k, c in enumerate(x.coeffs):
            w[step * k] += c
    else:
        w[0] = Fraction(x)
    return w


def _reduce(m, w):
    """w in Q[x]/(x^m - 1) mod Phi_m, as phi(m) Fractions."""
    phi_m = oracle_cyclotomic_poly(m)
    deg = len(phi_m) - 1
    w = list(w)
    for k in range(m - 1, deg - 1, -1):
        c = w[k]
        if c:
            for j, p in enumerate(phi_m):
                w[k - deg + j] -= c * p
    return w[:deg]


def _oracle(m, w):
    return oracle_canonical(m, _reduce(m, w))


def _oracle_add(x, y, sign=1):
    m = lcm(_conductor(x), _conductor(y))
    return _oracle(m, [a + sign * b for a, b in zip(_cyclic(x, m), _cyclic(y, m))])


def _convolve(m, a, b):
    w = [Fraction(0)] * m
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            w[(i + j) % m] += u * v
    return w


def _oracle_mul(x, y):
    m = lcm(_conductor(x), _conductor(y))
    return _oracle(m, _convolve(m, _cyclic(x, m), _cyclic(y, m)))


def _oracle_inverse(x):
    """y with x y = 1, solved on the columns x z^j of Q(zeta_m), each a
    cyclic shift of x reduced mod Phi_m."""
    m = _conductor(x)
    a = _cyclic(x, m)
    cols = [_reduce(m, a[m - j:] + a[:m - j]) for j in range(oracle_phi(m))]
    unit = [Fraction(1)] + [Fraction(0)] * (oracle_phi(m) - 1)
    return oracle_canonical(m, oracle_solve_columns(cols, unit))


def _assert_canonical(v, operands, ints=False):
    if isinstance(v, Cyc):
        assert type(v.nums) is tuple and len(v.nums) == _phi(v.m)
        assert all(type(n) is int for n in v.nums)
        assert type(v.den) is int and v.den > 0 and gcd(v.den, *v.nums) == 1
        assert all(type(c) is Fraction for c in v.coeffs)
        assert v.numerator.den == 1 and v.denominator == v.den
        # not rational, minimal conductor
        assert oracle_canonical(v.m, v.coeffs) == (v.m, v.coeffs)
    elif v.denominator == 1 and (ints or any(isinstance(x, Cyc) for x in operands)):
        assert type(v) is int  # a Cyc operation or inverse returns an integer as an int
    else:
        assert type(v) is Fraction


def _check(result, expected, *operands, ints=False):
    assert _form(result) == expected, (*operands, result, expected)
    assert scalar_to_string(result) == _oracle_string(expected)
    _assert_canonical(result, operands, ints)


def _check_arithmetic(x, y):
    for result, expected in [
        (x + y, _oracle_add(x, y)),
        (y + x, _oracle_add(x, y)),
        (x - y, _oracle_add(x, y, -1)),
        (y - x, _oracle_add(y, x, -1)),
        (x * y, _oracle_mul(x, y)),
        (y * x, _oracle_mul(x, y)),
    ]:
        _check(result, expected, x, y)


RATIONALS = [0, 1, -1, 2, Fraction(0), Fraction(1), Fraction(-1), Fraction(-3, 7)]
SPECIAL = [
    zeta(3), zeta(3, 2), zeta(4), zeta(5, 2), zeta(8), zeta(8, 3), zeta(12),
    zeta(12, 5), 1 + zeta(8), zeta(4) - zeta(8),
]


def test_fast_paths_fall_into_subfields():
    assert zeta(3) * zeta(3, 2) == 1
    assert zeta(8) * zeta(8) == zeta(4)
    assert (zeta(4) - zeta(8)) + zeta(8) == zeta(4)
    z = zeta(5)
    assert z + 0 is z and 0 + z is z
    assert z * 0 == 0 and type(z * 0) is int
    for x in SPECIAL:
        for y in SPECIAL + RATIONALS:
            _check_arithmetic(x, y)


@st.composite
def field_elements(draw):
    m = draw(st.sampled_from(CONDUCTORS))
    w = [Fraction(0)] * m
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        k = draw(st.integers(min_value=0, max_value=m - 1))
        w[k] += draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    return _value(_oracle(m, w))


operands = st.one_of(
    field_elements(), st.sampled_from(SPECIAL), st.sampled_from(RATIONALS)
)


@settings(max_examples=150, deadline=None)
@given(operands, operands)
def test_fast_paths_match_oracle(x, y):
    if isinstance(x, Cyc) or isinstance(y, Cyc):
        _check_arithmetic(x, y)


def test_cyclotomic_table_matches_long_division():
    for m in range(1, 31):
        assert cyclotomic_poly(m) == oracle_cyclotomic_poly(m)
        assert powers(m) == tuple(oracle_power_vec(m, k) for k in range(m))


def test_reduction_matches_long_division():
    rng = random.Random(23)
    for m in range(1, 31):
        phi = oracle_phi(m)
        degrees = [0, phi - 1, phi, m - 1, m, 2 * m, 3 * m]
        for degree in degrees + rng.sample(range(3 * m + 1), 4):
            poly = [rng.randint(-9, 9) for _ in range(degree + 1)]
            _, rem = poly_divmod(poly, oracle_cyclotomic_poly(m))
            assert reduce_mod_phi(m, poly) == list(rem) + [0] * (phi - len(rem)), (m, poly)


def _random_element(rng, m):
    """A random element of Q(zeta_m), through the oracle: a few small
    rational multiples of powers of z_m, never 0."""
    while True:
        w = [Fraction(0)] * m
        for _ in range(rng.randint(1, 4)):
            w[rng.randrange(m)] += Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        form = _oracle(m, w)
        if form:
            return _value(form)


def test_seeded_arithmetic_matches_oracle():
    # sums, products, inverses and quotients over conductors 5 to 21, the
    # second operand from a conductor of the same field or a mixed one
    rng = random.Random(21)
    seen = {"rational": 0, "subfield": 0, "mixed": 0, "integral inverse": 0}
    for m in range(5, 22):
        partners = [d for d in range(3, 22) if lcm(m, d) <= 42]
        for _ in range(6):
            x = _random_element(rng, m)
            y = _random_element(rng, rng.choice(partners))
            inv = _oracle_inverse(y)
            # inverse follows the int rule on a rational argument too
            for result, expected, operands, ints in [
                (x + y, _oracle_add(x, y), (x, y), False),
                (x - y, _oracle_add(x, y, -1), (x, y), False),
                (x * y, _oracle_mul(x, y), (x, y), False),
                (inverse(y), inv, (y,), True),
                (x / y, _oracle_mul(x, _value(inv)), (x, y), False),
            ]:
                _check(result, expected, *operands, ints=ints)
                if not isinstance(expected, tuple):
                    seen["rational"] += 1
                    seen["integral inverse"] += ints and expected.denominator == 1
                elif expected[0] < lcm(_conductor(x), _conductor(y)):
                    seen["subfield"] += 1
            if _conductor(x) != _conductor(y) and isinstance(y, Cyc):
                seen["mixed"] += 1
    assert min(seen.values()) > 5, seen


def test_cyc_sums_and_products_make_no_fraction(monkeypatch):
    # + - * between Cyc of conductors 3, 5 and 8 run on int numerators:
    # no Fraction is made unless the result is a rational that is not an
    # integer, and an integral result is an int, also over a denominator
    # that divides its constant numerator: (1 + z8)/2 + (1 - z8)/2 = 4/4
    half_plus = (1 + zeta(8)) * Fraction(1, 2)
    half_minus = (1 - zeta(8)) * Fraction(1, 2)
    values = [
        zeta(3), zeta(3, 2), 1 + zeta(3) * Fraction(1, 2),
        zeta(5, 2) * Fraction(-3, 4), zeta(5) + zeta(5, 3), zeta(8),
        zeta(8, 3) * Fraction(2, 3), 1 + zeta(8), zeta(4) * Fraction(1, 6),
        half_plus, half_minus,
    ]
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    results = []
    for x in values:
        for y in values:
            for op in (operator.add, operator.sub, operator.mul):
                before = len(made)
                z = op(x, y)
                if isinstance(z, Cyc) or type(z) is int:
                    assert len(made) == before, (op, x, y, z)
                    results.append(z)
                else:
                    assert type(z) is Fraction and z.denominator != 1, (op, x, y, z)
    assert made  # the other rational results, and the counter is live
    cycs = [z for z in results if isinstance(z, Cyc)]
    assert any(z.m == 4 for z in cycs) and any(z.m == 8 for z in cycs)
    assert {z.m for z in cycs} >= {3, 5, 8, 15, 24, 40}
    before = len(made)
    assert type(half_plus + half_minus) is int and half_plus + half_minus == 1
    assert {z for z in results if type(z) is int} >= {-1, 0, 1}
    assert len(made) == before


# -- _solve_columns against Gauss-Jordan over Fraction -------------------


def _random_system(rng):
    """Columns with rational entries, some of them combinations of the
    others, and a target that is one more combination or random."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def combination(cols):
        coefs = [entry() for _ in cols]
        return tuple(sum(a * c[i] for a, c in zip(coefs, cols)) for i in range(nrows))

    cols = []
    for _ in range(ncols):
        if cols and rng.random() < 0.3:
            cols.append(combination(cols))
        else:
            cols.append(tuple(entry() for _ in range(nrows)))
    if rng.random() < 0.5:
        target = combination(cols)
    else:
        target = tuple(entry() for _ in range(nrows))
    return cols, target


def _rank(vectors, dim):
    space = OracleRowSpace(dim)
    return sum(space.insert(v) for v in vectors)


def test_solve_columns_matches_fraction_oracle():
    rng = random.Random(20)
    seen = {"inconsistent": 0, "rank_deficient": 0}
    for _ in range(400):
        cols, target = _random_system(rng)
        solved = _solve_columns(cols, target)
        y = None if solved is None else [Fraction(v, solved[1]) for v in solved[0]]
        assert y == oracle_solve_columns(cols, target)
        if y is None:
            seen["inconsistent"] += 1
        else:
            # ints over one positive int denominator
            assert all(type(v) is int for v in solved[0])
            assert type(solved[1]) is int and solved[1] > 0
            assert all(
                sum(v * c[i] for v, c in zip(y, cols)) == t
                for i, t in enumerate(target)
            )
        if _rank(cols, len(target)) < len(cols):
            seen["rank_deficient"] += 1
    assert seen["inconsistent"] > 20 and seen["rank_deficient"] > 20


def test_solve_columns_inconsistent_is_none():
    # y (1, 1) = (1, 2) has no solution; a zero column leaves y_1 free
    cols = [(Fraction(1), Fraction(1)), (Fraction(0), Fraction(0))]
    target = (Fraction(1), Fraction(2))
    assert _solve_columns(cols, target) is None
    assert oracle_solve_columns(cols, target) is None
    target = (Fraction(1, 2), Fraction(1, 2))
    assert _solve_columns(cols, target) == ([1, 0], 2)
    assert oracle_solve_columns(cols, target) == [Fraction(1, 2), Fraction(0)]
