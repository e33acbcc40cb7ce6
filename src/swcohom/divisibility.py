"""Divisibility lower bounds for the order of the Hurewicz cokernel.

The order m(d, 2*kappa) of the cokernel of the stable Hurewicz map in
degree 2*kappa below the top cell of a stunted projective space is
divisible by every denominator of a(p, 0), ..., a(p, kappa) where
p = d - 1 - kappa.  For k <= 4 the exact kernel and cokernel orders are
known in closed form, which lets us say when the divisibility bound is
attained and when it is strictly weaker.

The bound and the scan take d <= MAX_D = 1000, checked before any work;
a larger d is an ArithmeticError.  Up to it every a(p, l) has numerator
and denominator below 2^d (d-1)!, under 2900 digits, so its text never
reaches Python's default limit of 4300 digits for integer conversion:
|a(p, l)| is at most the coefficient C(p+l-1, l) < 2^d of
(xi/(1-xi))^p, and the denominator divides (p+1)...(p+l), p + l < d.
A scan to d costs about d^2 integer operations, a bound about d k.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .series import taylor_coefficients_a

MAX_D = 1000

__all__ = [
    "DivisibilityReport",
    "sw_divisibility_lower_bound",
    "hurewicz_kernel_order",
    "hurewicz_cokernel_order",
    "k_from_bplus",
    "sharpness_scan",
]


class DivisibilityReport(namedtuple(
        "DivisibilityReport",
        "d k p kappa a_coeffs denominators lower_bound lemma_cokernel_order sharp",
        defaults=(None, None))):
    """Everything the divisibility bound produces for one pair (d, k).

    lower_bound = lcm of the denominators of a(p, 0..kappa) with
    p = d - 1 - k/2 and kappa = k/2.  When k is 0, 2 or 4 the exact
    cokernel order is available and ``sharp`` records whether the bound
    attains it; for larger k both stay None.
    """

    __slots__ = ()


def hurewicz_kernel_order(d: int, k: int) -> int:
    """Order of the kernel of the stable Hurewicz map in degree k above
    the bottom cell, for k = 0..4 (no closed form is implemented beyond).
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if k in (0, 4):
        return 1
    if k in (1, 2):
        return gcd(2, d)
    if k == 3:
        # gcd(24, 0) = 24 covers d = 3, giving order 12
        if d % 2 == 0:
            return gcd(24, d)
        return gcd(24, d - 3) // 2
    raise ValueError(f"kernel order is only known for k in 0..4, got {k}")


def hurewicz_cokernel_order(d: int, k: int) -> int:
    """Order of the cokernel in even degree k = 0, 2 or 4.

    Degree 4 pairs with the degree-3 kernel order l via l*m = 48 for
    even d and l*m = 12 for odd d, and needs d > 2.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if k == 0:
        return 1
    if k == 2:
        return gcd(2, d - 1)
    if k == 4:
        if d <= 2:
            raise ValueError("cokernel order in degree 4 requires d > 2")
        l = hurewicz_kernel_order(d, 3)
        return (48 if d % 2 == 0 else 12) // l
    raise ValueError(f"cokernel order is only known for k in {{0, 2, 4}}, got {k}")


def _check_budget(d: int):
    if d > MAX_D:
        raise ArithmeticError(
            f"divisibility budget exceeded: d must be at most {MAX_D}")


def sw_divisibility_lower_bound(d: int, k: int) -> DivisibilityReport:
    """Divisibility bound for m(d, k): lcm of denominators of a(p, 0..k/2).

    Requires even k >= 0 and p = d - 1 - k/2 >= 1.  For k <= 4 the report
    also carries the exact cokernel order and the sharpness verdict.
    """
    if k < 0 or k % 2 != 0:
        raise ValueError(f"k must be even and nonnegative, got {k}")
    kappa = k // 2
    p = d - 1 - kappa
    if p < 1:
        raise ValueError(f"no positive p for d={d}, k={k} (p = d-1-k/2 = {p})")
    _check_budget(d)
    a = taylor_coefficients_a(p, kappa)
    denominators = tuple(c.denominator for c in a)
    lower_bound = lcm(*denominators)
    cokernel = sharp = None
    if k <= 4:
        cokernel = hurewicz_cokernel_order(d, k)
        sharp = lower_bound == cokernel
    return DivisibilityReport(
        d=d,
        k=k,
        p=p,
        kappa=kappa,
        a_coeffs=tuple(a),
        denominators=denominators,
        lower_bound=lower_bound,
        lemma_cokernel_order=cokernel,
        sharp=sharp,
    )


def k_from_bplus(d: int, b_plus: int) -> int:
    """Degree k = 2d - 2p - 2 = 2d - b_plus - 1 probed by a four-manifold
    with first Betti number 0 and the given odd b_plus = 2p + 1 >= 3:
    expected_moduli_dimension, refused when negative.
    """
    # imported here: bound, hurewicz and sharpscan never get here, and
    # the four-manifold records cost about 1 ms to build
    from .fourmanifold import expected_moduli_dimension
    k = expected_moduli_dimension(d, b_plus)
    if k < 0:
        raise ValueError(f"negative degree k={k} for d={d}, b_plus={b_plus}")
    return k


def sharpness_scan(d_min: int, d_max: int) -> list[DivisibilityReport]:
    """Reports for k = 2 and k = 4 across d in [d_min, d_max], skipping
    pairs with no positive p.  The k=2 bound is always attained; the k=4
    bound already fails to be sharp at d = 4 (6 versus 12).
    """
    if not 2 <= d_min <= d_max:
        raise ValueError(f"need 2 <= d_min <= d_max, got {d_min}..{d_max}")
    _check_budget(d_max)
    reports = []
    for d in range(d_min, d_max + 1):
        for k in (2, 4):
            if d - 1 - k // 2 >= 1:
                reports.append(sw_divisibility_lower_bound(d, k))
    return reports
