"""Tests for divisibility bounds and the exact low-degree orders.

The d=4..10 k=4 table below was derived by hand twice (once from the
series powers, once from the l*m product rule) before freezing.
"""

from fractions import Fraction
from math import gcd

import pytest

from swcohom import divisibility
from swcohom.divisibility import (
    MAX_D,
    DivisibilityReport,
    hurewicz_cokernel_order,
    hurewicz_kernel_order,
    sharpness_scan,
    sw_divisibility_lower_bound,
)
from swcohom.fourmanifold import expected_moduli_dimension, k_from_bplus

F = Fraction


# -- kernel and cokernel orders ----------------------------------------


def test_kernel_orders_low_degrees():
    assert hurewicz_kernel_order(2, 0) == 1
    assert hurewicz_kernel_order(2, 1) == 2
    assert hurewicz_kernel_order(3, 1) == 1
    assert hurewicz_kernel_order(6, 2) == 2
    assert hurewicz_kernel_order(7, 2) == 1
    assert hurewicz_kernel_order(9, 4) == 1


def test_kernel_order_degree_three():
    assert hurewicz_kernel_order(4, 3) == 4      # gcd(24, 4)
    assert hurewicz_kernel_order(24, 3) == 24
    assert hurewicz_kernel_order(3, 3) == 12     # gcd(24, 0)/2
    assert hurewicz_kernel_order(5, 3) == 1      # gcd(24, 2)/2
    assert hurewicz_kernel_order(9, 3) == 3      # gcd(24, 6)/2


def test_cokernel_orders():
    assert hurewicz_cokernel_order(4, 0) == 1
    assert hurewicz_cokernel_order(5, 2) == 2
    assert hurewicz_cokernel_order(6, 2) == 1
    assert hurewicz_cokernel_order(4, 4) == 12   # l=4, 48/4
    assert hurewicz_cokernel_order(5, 4) == 12   # l=1, 12/1
    assert hurewicz_cokernel_order(10, 4) == 24  # l=2, 48/2


def test_order_domain_errors():
    with pytest.raises(ValueError):
        hurewicz_kernel_order(1, 0)
    with pytest.raises(ValueError):
        hurewicz_kernel_order(4, 5)
    with pytest.raises(ValueError):
        hurewicz_cokernel_order(4, 3)
    with pytest.raises(ValueError):
        hurewicz_cokernel_order(2, 4)


def test_degree_four_product_rule():
    # l * m = 48 for even d, 12 for odd d, across a wide range
    for d in range(3, 60):
        l = hurewicz_kernel_order(d, 3)
        m = hurewicz_cokernel_order(d, 4)
        assert l * m == (48 if d % 2 == 0 else 12), d


# -- the divisibility bound ---------------------------------------------


def test_bound_d5_k2():
    r = sw_divisibility_lower_bound(5, 2)
    assert (r.p, r.kappa) == (3, 1)
    assert r.a_coeffs == ((-1, 1), (-3, 2))
    assert r.denominators == (1, 2)
    assert r.lower_bound == 2
    assert r.lemma_cokernel_order == 2
    assert r.sharp is True


def test_a_pairs_match_the_closed_forms_for_kappa_up_to_two():
    # a(p, 0..2) = (-1)^p (1, p/2, p(3p + 5)/24), from c(n, n-1) = C(n, 2)
    # and c(n, n-2) = (3n - 1) C(n, 3)/4 (Graham, Knuth and Patashnik,
    # section 6.1): an oracle of the integer source, in lowest terms
    for p in range(1, 1000):
        sign = (-1) ** p
        oracle = [F(sign), F(sign * p, 2), F(sign * p * (3 * p + 5), 24)]
        pairs = [(q.numerator, q.denominator) for q in oracle]
        assert list(divisibility._taylor_pairs(p, 2)) == pairs, p


def test_bound_k0_is_trivial():
    r = sw_divisibility_lower_bound(4, 0)
    assert r.lower_bound == 1
    assert r.sharp is True


def test_bound_d4_k4_not_sharp():
    r = sw_divisibility_lower_bound(4, 4)
    assert r.p == 1
    assert r.denominators == (1, 2, 3)
    assert r.lower_bound == 6
    assert r.lemma_cokernel_order == 12
    assert r.sharp is False


def test_bound_k6_leaves_comparison_empty():
    r = sw_divisibility_lower_bound(9, 6)
    assert r.lower_bound >= 1
    assert r.lemma_cokernel_order is None
    assert r.sharp is None


def test_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        sw_divisibility_lower_bound(5, 3)
    with pytest.raises(ValueError):
        sw_divisibility_lower_bound(5, -2)
    with pytest.raises(ValueError):
        sw_divisibility_lower_bound(3, 4)   # p = 0


def test_k4_table_d4_to_10():
    # (d, lower_bound, cokernel order)
    table = {
        4: (6, 12),
        5: (12, 12),
        6: (4, 8),
        7: (6, 6),
        8: (6, 6),
        9: (4, 4),
        10: (12, 24),
    }
    for d, (bound, order) in table.items():
        r = sw_divisibility_lower_bound(d, 4)
        assert r.lower_bound == bound, d
        assert r.lemma_cokernel_order == order, d
        assert r.sharp is (bound == order), d


def test_k2_bound_is_always_gcd_and_sharp():
    for d in range(3, 80):
        r = sw_divisibility_lower_bound(d, 2)
        assert r.lower_bound == gcd(2, d - 1)
        assert r.sharp is True


def test_bound_divides_exact_order():
    for d in range(2, 60):
        for k in (0, 2, 4):
            if d - 1 - k // 2 < 1:
                continue
            r = sw_divisibility_lower_bound(d, k)
            assert r.lemma_cokernel_order % r.lower_bound == 0, (d, k)


# -- k from b_plus --------------------------------------------------------


def test_k_from_bplus_values():
    assert k_from_bplus(2, 3) == 0
    assert k_from_bplus(5, 3) == 6
    assert k_from_bplus(4, 7) == 0


def test_k_from_bplus_errors():
    with pytest.raises(ValueError):
        k_from_bplus(5, 4)
    with pytest.raises(ValueError):
        k_from_bplus(5, 1)
    with pytest.raises(ValueError):
        k_from_bplus(2, 5)


def test_k_from_bplus_is_the_expected_moduli_dimension():
    # one formula and one b_plus check; k_from_bplus adds only the
    # refusal of a negative k
    for d in range(-2, 12):
        for b_plus in range(-1, 12):
            try:
                k = expected_moduli_dimension(d, b_plus)
            except ValueError as exc:
                with pytest.raises(ValueError) as refused:
                    k_from_bplus(d, b_plus)
                assert str(refused.value) == str(exc)
                continue
            if k < 0:
                with pytest.raises(ValueError, match="negative degree"):
                    k_from_bplus(d, b_plus)
            else:
                assert k_from_bplus(d, b_plus) == k


# -- scan ------------------------------------------------------------------


def test_scan_contents_and_non_sharp_witness():
    reports = sharpness_scan(2, 20)
    # d=2 admits neither k=2 nor k=4; d=3 only k=2
    assert {(r.d, r.k) for r in reports if r.d == 3} == {(3, 2)}
    assert all(r.lemma_cokernel_order % r.lower_bound == 0 for r in reports)
    assert any(r.sharp is False for r in reports)


def test_scan_rows_are_the_bounds():
    # the scan reads every row from one table, a bound builds its own
    reports = sharpness_scan(2, 300)
    assert reports == [sw_divisibility_lower_bound(r.d, r.k) for r in reports]
    assert [(r.d, r.k) for r in reports] == [
        (d, k) for d in range(3, 301) for k in (2, 4) if (d, k) != (3, 4)]


def test_scan_rejects_empty_range():
    with pytest.raises(ValueError):
        sharpness_scan(5, 4)
    with pytest.raises(ValueError):
        sharpness_scan(1, 4)


def test_budget_is_checked_before_any_work(monkeypatch):
    def no_work(p_max, kappa):
        raise AssertionError("a(p, l) computed past the budget")

    monkeypatch.setattr(divisibility, "_stirling_table", no_work)
    message = f"divisibility budget exceeded: d must be at most {MAX_D}"
    with pytest.raises(ArithmeticError, match=message):
        sw_divisibility_lower_bound(MAX_D + 1, 2 * MAX_D - 2)
    with pytest.raises(ArithmeticError, match=message):
        sharpness_scan(2, MAX_D + 1)
    # invalid arguments keep their own errors
    with pytest.raises(ValueError):
        sharpness_scan(MAX_D + 2, MAX_D + 1)
