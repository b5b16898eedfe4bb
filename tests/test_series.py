from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classalg.series import HbarSeries, SeriesError

coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def series_strategy(order=5):
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(HbarSeries)


def test_constructors():
    s = HbarSeries.const(Fraction(3), 4)
    assert s.order == 4
    assert s.coeff(0) == 3
    assert s.coeff(4) == 0 and type(s.coeff(4)) is Fraction
    assert HbarSeries.zero(3).is_zero()
    h2 = HbarSeries([0, 0, 1, 0, 0, 0])
    assert h2.coeff(2) == 1 and h2.coeff(1) == 0 and h2.valuation() == 2


def test_exp_identity():
    order = 8
    e = HbarSeries.exp_hbar(1, order)
    em = HbarSeries.exp_hbar(-1, order)
    assert e * em == HbarSeries.const(Fraction(1), order)
    # exp(2h) = exp(h)^2
    assert HbarSeries.exp_hbar(2, order) == e * e


def test_coeff_window():
    s = HbarSeries.const(Fraction(1), 3)
    with pytest.raises(SeriesError):
        s.coeff(4)


def test_coeff_below_hbar0_is_a_fraction_zero():
    c = HbarSeries.const(Fraction(1), 3).coeff(-1)
    assert c == 0 and type(c) is Fraction


def test_division_exact():
    order = 6
    e = HbarSeries.exp_hbar(1, order)
    num = (e - 1) * (e - 1)
    q = num.divide(e - 1)
    assert q.order == order - 1
    assert q == e - 1


def test_division_with_a_pole_raises():
    one = HbarSeries.const(Fraction(1), 6)
    with pytest.raises(SeriesError):
        one.divide(HbarSeries([0, 0, 1, 0, 0, 0, 0]))


def test_division_by_valuation_one_drops_one_order():
    # the lemma's quotient (q^d - 1)/(q^{-1} - 1), q = e^hbar
    order = 6
    den = HbarSeries.exp_hbar(-1, order) - 1
    assert den.valuation() == 1
    num = HbarSeries.exp_hbar(3, order) - 1
    quot = num.divide(den)
    assert quot.order == order - 1
    # -(1 + q + q^2) at hbar^0
    assert quot.coeff(0) == -3
    back = quot * den
    assert back.order == order - 1
    assert back == num


def test_zero_dividend_gives_zero():
    den = HbarSeries.exp_hbar(-1, 5) - 1
    quot = HbarSeries.zero(5).divide(den)
    assert quot.is_zero() and quot.order == 4


def test_equality_window_aware():
    a = HbarSeries([1, 2, 3])
    b = HbarSeries([1, 2, 3, 7])
    # agree on the common order
    assert a == b
    assert a != HbarSeries([1, 2, 4, 7])


@settings(max_examples=50, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + HbarSeries.zero(5) == a
    assert a * HbarSeries.const(Fraction(1), 5) == a


@settings(max_examples=50, deadline=None)
@given(series_strategy())
def test_divide_roundtrip(a):
    d = HbarSeries.exp_hbar(1, 5)  # unit (valuation 0)
    assert (a * d).divide(d) == a


def test_scalar_mixing():
    a = HbarSeries([1, 2, 3])
    assert a + 1 == HbarSeries([2, 2, 3])
    assert 2 * a == HbarSeries([2, 4, 6])
    assert 1 - a == HbarSeries([0, -2, -3])


def test_unhashable():
    with pytest.raises(TypeError):
        hash(HbarSeries.zero(2))
