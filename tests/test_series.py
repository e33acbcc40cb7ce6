"""Tests for exact truncated power series.

Oracle values below were computed two independent ways before being
frozen here: by hand from the Mercator series, and by the naive
full-order power computation that `naive_a` reproduces inline.  The
Stirling-number fast path of `taylor_coefficients_a` is also checked
against `power_a`, the series power it replaced.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcohom.series import (
    TruncatedSeries,
    compose,
    exp_series,
    log_one_minus,
    taylor_coefficients_a,
)

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


# -- exp / log / compose ------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 8, 32])
def test_exp_log_roundtrip(order):
    got = exp_series(log_one_minus(order))
    want = TruncatedSeries.one(order) - TruncatedSeries.xi(order)
    assert got == want


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        exp_series(TruncatedSeries.one(3))


def test_compose_with_identity_is_identity():
    s = log_one_minus(9)
    assert compose(s, TruncatedSeries.xi(9)) == s


def test_compose_requires_zero_inner_constant():
    s = log_one_minus(4)
    with pytest.raises(ValueError):
        compose(s, TruncatedSeries.one(4))


def test_compose_matches_direct_substitution():
    # outer(inner) with outer = 1 + t + t^2, inner = xi + xi^2
    order = 6
    outer = TruncatedSeries(order, [1, 1, 1, 0, 0, 0])
    inner = TruncatedSeries(order, [0, 1, 1, 0, 0, 0])
    direct = TruncatedSeries.one(order) + inner + inner * inner
    assert compose(outer, inner) == direct


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


@settings(max_examples=30, deadline=None)
@given(series_of_order(7), series_of_order(7))
def test_exp_turns_sums_into_products(a, b):
    # exp(a+b) = exp(a)exp(b) for series with zero constant term
    a = TruncatedSeries(7, (0,) + a.coefficients[1:])
    b = TruncatedSeries(7, (0,) + b.coefficients[1:])
    assert exp_series(a + b) == exp_series(a) * exp_series(b)
