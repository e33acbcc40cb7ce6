"""Tests for the Chern character on projective space.

The brute-force multiplier oracle below tries n = 1, 2, 3, ... directly
against the series, independently of the lcm shortcut under test, and
`substituted` computes ch by its definition, xi = 1 - exp(x), with
series multiplication instead of the Stirling closed form under test.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcohom.chern import (
    HClass,
    KClass,
    chern_character,
    chern_character_inverse_monomial,
    minimal_integral_multiplier,
    one_minus_exp,
)
from swcohom.series import TruncatedSeries, log_one_minus

F = Fraction


def kclasses(d):
    return st.lists(
        st.integers(-20, 20), min_size=d, max_size=d
    ).map(lambda cs: KClass(d, cs))


def substituted(e):
    # sum_j e_j (1 - exp(x))^j, one power of 1 - exp(x) at a time
    t = one_minus_exp(e.d)
    power, total = TruncatedSeries.one(e.d), TruncatedSeries.zero(e.d)
    for e_j in e.coefficients:
        total = total + power.scale(e_j)
        power = power * t
    return HClass(e.d, total.coefficients)


def brute_force_multiplier(p, d):
    series = chern_character_inverse_monomial(1, p, d)
    n = 1
    while True:
        if all((n * c).denominator == 1 for c in series.coefficients):
            return n
        n += 1


# -- types --------------------------------------------------------------


def test_kclass_rejects_non_integers():
    with pytest.raises(ValueError):
        KClass(3, [1, F(1, 2), 0])
    with pytest.raises(ValueError):
        KClass(3, [1, 2.5, 0])


# a float or a string stands for some other rational (0.1 is
# 3602879701896397/36028797018963968), and True is no integer, so each
# is refused, never read
@pytest.mark.parametrize("build, error", [
    (lambda: HClass(2, [0.1, 0]), TypeError),
    (lambda: TruncatedSeries(2, ["1/3", 0]), TypeError),
    (lambda: TruncatedSeries.one(2).scale(0.5), TypeError),
    (lambda: HClass.xi(2) * True, TypeError),
    (lambda: TruncatedSeries.monomial(2, 1, 0.25), TypeError),
    (lambda: KClass.monomial(2, 1, 0.25), TypeError),
    (lambda: KClass(2, [True, 0]), ValueError),
], ids=["float-coefficient", "string-coefficient", "float-factor",
        "bool-factor", "float-monomial", "float-kclass-monomial",
        "bool-kclass"])
def test_coefficients_are_exact(build, error):
    match = "must be an int or a Fraction" if error is TypeError else "non-integer"
    with pytest.raises(error, match=match):
        build()


def test_kclass_accepts_integral_fractions():
    assert KClass(2, [F(4, 2), 0]).coefficients == (2, 0)


def test_json_roundtrips():
    e = KClass(3, [1, -2, 7])
    assert KClass.from_json_list(e.to_json_list()) == e
    h = HClass(3, [F(1, 2), F(-3), 0])
    assert h.to_strings() == ["1/2", "-3", "0"]
    assert HClass.from_strings(h.to_strings()) == h


# the three classes share one ring implementation: each operation keeps
# the class of its left operand, and KClass checks every coefficient
@pytest.mark.parametrize("cls, coefficient_type, half_xi, one_repr", [
    (KClass, int, ValueError, "KClass(3, [1, 0, 0])"),
    (HClass, Fraction, HClass(3, [0, F(1, 2), 0]),
     "HClass(3, [Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)])"),
    (TruncatedSeries, Fraction, TruncatedSeries(3, [0, F(1, 2), 0]),
     "TruncatedSeries(3, [Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)])"),
])
def test_merged_ring_keeps_each_class(cls, coefficient_type, half_xi, one_repr):
    one, xi = cls.one(3), cls.xi(3)
    for value in (one + xi, one - xi, -xi, xi * xi, 2 * xi, xi * 2,
                  xi.scale(3), cls.monomial(3, 2, 5)):
        assert type(value) is cls
        assert {type(c) for c in value.coefficients} == {coefficient_type}
    assert xi * xi == cls(3, [0, 0, 1])
    if half_xi is ValueError:
        with pytest.raises(ValueError):
            xi.scale(F(1, 2))
    else:
        assert xi.scale(F(1, 2)) == half_xi
    for other in {KClass, HClass, TruncatedSeries} - {cls}:
        assert cls(2, [1, 0]) != other(2, [1, 0])
        # different rings never mix, whichever operand is on the left
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(cls(2, [1, 0]), other(2, [1, 0]))
    assert cls(2, [1, 0]) == cls(2, [1, 0])
    assert hash(cls(2, [1, 0])) == hash(cls(2, [1, 0]))
    assert repr(one) == one_repr
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        one.order = 4
    with pytest.raises(ValueError, match="order mismatch"):
        one + cls.one(2)
    if cls is not TruncatedSeries:
        assert one.d == one.order == 3


# -- chern_character ------------------------------------------------------


def test_ch_of_unit_is_unit():
    d = 5
    assert chern_character(KClass.unit(d)) == HClass.monomial(d, 0, 1)


def test_ch_of_xi_order_3():
    # 1 - exp(x) = -x - x^2/2 mod x^3
    got = chern_character(KClass.xi(3))
    assert got == HClass(3, [0, -1, F(-1, 2)])


def test_ch_multiplicative_on_xi_squared():
    d = 6
    xi = KClass.xi(d)
    assert chern_character(xi * xi) == chern_character(xi) * chern_character(xi)


@settings(deadline=None)
@given(st.integers(1, 12).flatmap(kclasses))
def test_ch_matches_direct_substitution(e):
    assert chern_character(e) == substituted(e)


def test_one_minus_exp_leading_terms():
    s = one_minus_exp(5)
    assert list(s.coefficients) == [0, -1, F(-1, 2), F(-1, 6), F(-1, 24)]


# -- inverse on monomials -------------------------------------------------


def test_inverse_monomial_zero_is_zero():
    assert chern_character_inverse_monomial(0, 2, 6) == TruncatedSeries.zero(6)


def test_inverse_monomial_p1_is_log():
    assert chern_character_inverse_monomial(1, 1, 4) == log_one_minus(4)


def test_inverse_monomial_range_check():
    with pytest.raises(ValueError):
        chern_character_inverse_monomial(1, 0, 4)
    with pytest.raises(ValueError):
        chern_character_inverse_monomial(1, 4, 4)


@pytest.mark.parametrize("p,d", [(p, d) for d in range(2, 31) for p in range(1, d)])
def test_integerized_inverse_roundtrips(p, d):
    # scale by the minimal multiplier, reinterpret as a K-class, and map
    # forward again: the image must be exactly n x^p.  The two directions
    # are Stirling numbers of the first and second kind, so this is their
    # orthogonality (Graham, Knuth and Patashnik (6.31)) for every d <= 30
    n = minimal_integral_multiplier(p, d)
    series = chern_character_inverse_monomial(n, p, d)
    e = KClass.from_series(series)
    assert chern_character(e) == HClass.monomial(d, p, n)


# -- minimal multiplier ----------------------------------------------------


def test_multiplier_top_power_is_one():
    for d in (2, 5, 9):
        assert minimal_integral_multiplier(d - 1, d) == 1


def test_multiplier_frozen_values():
    assert minimal_integral_multiplier(1, 4) == 6
    assert minimal_integral_multiplier(2, 5) == 12


def test_multiplier_matches_brute_force():
    for d in range(2, 13):
        for p in range(1, min(d, 7)):
            assert minimal_integral_multiplier(p, d) == brute_force_multiplier(p, d)


# -- ring homomorphism property ---------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8).flatmap(lambda d: st.tuples(kclasses(d), kclasses(d))))
def test_ch_is_ring_homomorphism(pair):
    a, b = pair
    assert chern_character(a + b) == chern_character(a) + chern_character(b)
    assert chern_character(a * b) == chern_character(a) * chern_character(b)
