import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classalg.scalars import (
    Cyc,
    ScalarParseError,
    _make,
    _phi,
    _solve_columns,
    cyclotomic_poly,
    inverse,
    scalar_from_string,
    scalar_to_string,
    zeta,
)
from oracles import OracleRowSpace, oracle_solve_columns


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


# Oracle for the arithmetic fast paths: exact arithmetic in
# Q[x]/(x^m - 1) (cyclic convolution), reduced mod Phi_m by long
# division, then canonicalized by the slow ``_make``.

CONDUCTORS = (3, 4, 5, 8, 12)


def _conductor(x):
    return x.m if isinstance(x, Cyc) else 1


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


def _oracle(m, w):
    phi_m = cyclotomic_poly(m)
    deg = len(phi_m) - 1
    w = list(w)
    for k in range(m - 1, deg - 1, -1):
        c = w[k]
        if c:
            for j, p in enumerate(phi_m):
                w[k - deg + j] -= c * p
    return _make(m, w[:deg])


def _oracle_add(x, y, sign=1):
    m = lcm(_conductor(x), _conductor(y))
    return _oracle(m, [a + sign * b for a, b in zip(_cyclic(x, m), _cyclic(y, m))])


def _oracle_mul(x, y):
    m = lcm(_conductor(x), _conductor(y))
    a, b = _cyclic(x, m), _cyclic(y, m)
    w = [Fraction(0)] * m
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            w[(i + j) % m] += u * v
    return _oracle(m, w)


def _assert_canonical(v):
    if isinstance(v, Cyc):
        assert type(v.coeffs) is tuple and len(v.coeffs) == _phi(v.m)
        assert all(type(c) is Fraction for c in v.coeffs)
        assert _make(v.m, v.coeffs) == v  # not rational, minimal conductor
    else:
        assert type(v) is Fraction


def _check_arithmetic(x, y):
    for result, expected in [
        (x + y, _oracle_add(x, y)),
        (y + x, _oracle_add(x, y)),
        (x - y, _oracle_add(x, y, -1)),
        (y - x, _oracle_add(y, x, -1)),
        (x * y, _oracle_mul(x, y)),
        (y * x, _oracle_mul(x, y)),
    ]:
        assert result == expected, (x, y, result, expected)
        _assert_canonical(result)


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
    assert z * 0 == 0 and type(z * 0) is Fraction
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
    return _oracle(m, w)


operands = st.one_of(
    field_elements(), st.sampled_from(SPECIAL), st.sampled_from(RATIONALS)
)


@settings(max_examples=150, deadline=None)
@given(operands, operands)
def test_fast_paths_match_oracle(x, y):
    if isinstance(x, Cyc) or isinstance(y, Cyc):
        _check_arithmetic(x, y)


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
        y = _solve_columns(cols, target)
        assert y == oracle_solve_columns(cols, target)
        if y is None:
            seen["inconsistent"] += 1
        else:
            assert all(type(v) is Fraction for v in y)
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
    assert _solve_columns(cols, target) == [Fraction(1, 2), Fraction(0)]
    assert oracle_solve_columns(cols, target) == [Fraction(1, 2), Fraction(0)]
