"""Tests for exact truncated power series.

Oracle values below were computed two independent ways before being
frozen here: by hand from the Mercator series, and by the naive
full-order power computation that `naive_a` reproduces inline.  The
Stirling-number fast path of `taylor_coefficients_a` is also checked
against `power_a`, the series power it replaced.
"""

from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcohom.chern import HClass, KClass, chern_character
from swcohom.series import TruncatedSeries, log_one_minus, taylor_coefficients_a

F = Fraction


def naive_a(p, kappa):
    # independent oracle: expand log(1-xi)^p at full order p+kappa+1
    # by repeated multiplication, then read off the shifted window
    order = p + kappa + 1
    s = log_one_minus(order)
    prod = TruncatedSeries.one(order)
    for _ in range(p):
        prod = prod * s
    return list(prod.coefficients[p : p + kappa + 1])


def power_a(p, kappa):
    # independent oracle: log(1-xi) = -xi u(xi) with u = sum_j xi^j/(j+1),
    # so a(p, 0..kappa) are (-1)^p times the coefficients of u^p mod
    # xi^(kappa+1), multiplied out by squaring (p plain multiplications
    # take 20 s at p = 279, kappa = 120)
    order = kappa + 1
    u = TruncatedSeries(order, [F(1, j + 1) for j in range(order)])
    power = TruncatedSeries.one(order)
    for bit in bin(p)[2:]:
        power = power * power
        if bit == "1":
            power = power * u
    sign = -1 if p % 2 else 1
    return [sign * c for c in power.coefficients]


# -- construction and basic ring laws ---------------------------------


def test_log_one_minus_order_4():
    s = log_one_minus(4)
    assert list(s.coefficients) == [0, F(-1), F(-1, 2), F(-1, 3)]


def test_constructor_validates_length_and_order():
    with pytest.raises(ValueError):
        TruncatedSeries(3, [1, 2])
    with pytest.raises(ValueError):
        TruncatedSeries(0, [])


def test_order_mismatch_raises():
    a = TruncatedSeries.one(3)
    b = TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_immutable():
    s = TruncatedSeries.one(2)
    with pytest.raises(AttributeError):
        s.order = 5


# -- log and the Chern character -----------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 8, 32])
def test_exp_log_roundtrip(order):
    # exp(log(1 - xi)) = 1 - xi, read through the Chern character
    # xi -> 1 - exp(x): the smallest integral multiple n log(1 - xi) maps
    # to n x
    n = lcm(*range(1, order))
    e = KClass.from_series(log_one_minus(order).scale(n))
    assert chern_character(e) == HClass.monomial(order, 1, n)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(0, 6), st.integers(0, 6))
def test_exp_turns_sums_into_products(d, a, b):
    # L = 1 - xi has ch(L) = exp(x), so ch(L^k) is exp(kx), with x^n
    # coefficient k^n/n!, and exp((a+b)x) = exp(ax)exp(bx)
    def exp_kx(k):
        return HClass(d, [F(k**n, factorial(n)) for n in range(d)])

    def ch_of_power(k):
        line = TruncatedSeries(d, [1, -1][:d] + [0] * (d - 2))
        power = TruncatedSeries.one(d)
        for _ in range(k):
            power = power * line
        return chern_character(KClass.from_series(power))

    assert ch_of_power(a + b) == exp_kx(a + b) == exp_kx(a) * exp_kx(b)
    assert ch_of_power(a + b) == ch_of_power(a) * ch_of_power(b)


# -- the a(p, l) coefficients -------------------------------------------


def test_a_p1_is_harmonic():
    # a(1, l) = -1/(l+1)
    assert taylor_coefficients_a(1, 2) == [F(-1), F(-1, 2), F(-1, 3)]
    assert taylor_coefficients_a(1, 5)[5] == F(-1, 6)


def test_a_p2_frozen():
    assert taylor_coefficients_a(2, 2) == [F(1), F(1), F(11, 12)]


def test_a_p3_frozen():
    assert taylor_coefficients_a(3, 2) == [F(-1), F(-3, 2), F(-7, 4)]


def test_a_leading_and_subleading():
    # a(p, 0) = (-1)^p and a(p, 1) = (-1)^p * p/2
    for p in range(1, 9):
        coeffs = taylor_coefficients_a(p, 1)
        sign = (-1) ** p
        assert coeffs[0] == sign
        assert coeffs[1] == F(sign * p, 2)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 11, 16, 20])
@pytest.mark.parametrize("kappa", [0, 1, 3, 6, 10, 15, 20])
def test_a_fast_path_matches_naive_expansion(p, kappa):
    assert taylor_coefficients_a(p, kappa) == naive_a(p, kappa)


# the sizes of the benchmark's plateau bound jobs (k/2 56-58, p 230-250)
# and of its heaviest bound jobs (k/2 up to 120, d up to 400)
@pytest.mark.parametrize("p, kappa", [(2, 120), (240, 57), (279, 120)])
def test_a_fast_path_matches_series_power(p, kappa):
    assert taylor_coefficients_a(p, kappa) == power_a(p, kappa)


def test_a_rejects_bad_arguments():
    with pytest.raises(ValueError):
        taylor_coefficients_a(0, 2)
    with pytest.raises(ValueError):
        taylor_coefficients_a(2, -1)


# -- serialization ------------------------------------------------------


def test_series_string_roundtrip():
    s = TruncatedSeries(3, [F(1, 2), F(-3), F(0)])
    assert s.to_strings() == ["1/2", "-3", "0"]
    assert TruncatedSeries.from_strings(s.to_strings()) == s


# -- property tests -----------------------------------------------------

rationals = st.builds(
    F, st.integers(-100, 100), st.integers(1, 100)
)


def series_of_order(order):
    return st.lists(rationals, min_size=order, max_size=order).map(
        lambda cs: TruncatedSeries(order, cs)
    )


@settings(max_examples=60, deadline=None)
@given(series_of_order(6), series_of_order(6), series_of_order(6))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + TruncatedSeries.zero(6) == a
    assert a * TruncatedSeries.one(6) == a
