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
A bound costs about d k integer operations, and a scan to d about 3 d:
it reads every row from one table with kappa <= 2.

a(p, l) is the xi^(p+l) coefficient of log(1 - xi)^p.  This module is
its one integer source, as (numerator, denominator) pairs in lowest
terms; ``series.taylor_coefficients_a`` is a Fraction view of it, and
the module itself loads no ``fractions``.
"""

from math import gcd, lcm

from .rational import _Record

MAX_D = 1000

__all__ = [
    "DivisibilityReport",
    "sw_divisibility_lower_bound",
    "hurewicz_kernel_order",
    "hurewicz_cokernel_order",
    "sharpness_scan",
]


class DivisibilityReport(_Record):
    """Everything the divisibility bound produces for one pair (d, k).

    lower_bound = lcm of the denominators of a(p, 0..kappa) with
    p = d - 1 - k/2 and kappa = k/2.  ``a_coeffs`` holds a(p, 0..kappa)
    as (numerator, denominator) pairs of ints in lowest terms, with a
    positive denominator.  When k is 0, 2 or 4 the exact
    cokernel order is available and ``sharp`` records whether the bound
    attains it; for larger k both stay None.
    """

    __slots__ = ()
    _fields = ("d", "k", "p", "kappa", "a_coeffs", "denominators",
               "lower_bound", "lemma_cokernel_order", "sharp")

    def __new__(cls, d, k, p, kappa, a_coeffs, denominators, lower_bound,
                lemma_cokernel_order=None, sharp=None):
        return tuple.__new__(cls, (d, k, p, kappa, a_coeffs, denominators,
                                   lower_bound, lemma_cokernel_order, sharp))


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


def _stirling_table(p_max: int, kappa: int):
    """Rows j = 0..kappa of T[j][k] = c(k + j, k), k = 0..p_max, one at
    a time.

    Since log(1 - xi)^p / p! = sum_n (-1)^p c(n, p) xi^n / n! for the
    unsigned Stirling numbers of the first kind c(n, p) (Graham, Knuth and
    Patashnik, *Concrete Mathematics*, section 6.1 and (7.50)),

        a(p, l) = (-1)^p c(p + l, p) / ((p + 1) (p + 2) ... (p + l)),

    so column p of the table gives a(p, 0..kappa) for every p <= p_max.
    The rows obey

        T[j][k] = (k + j - 1) T[j - 1][k] + T[j][k - 1],

    with T[0][k] = 1 and T[j][0] = 0 for j >= 1, which is the recurrence
    c(n + 1, k) = n c(n, k) + c(n, k - 1) at n = k + j - 1.  Each row is
    built from the one before, so a caller that keeps only what it reads
    has two rows of p_max + 1 integers alive.
    """
    row = [1] * (p_max + 1)
    yield row
    for j in range(1, kappa + 1):
        prev, row = row, [0] * (p_max + 1)
        for k in range(1, p_max + 1):
            row[k] = (k + j - 1) * prev[k] + row[k - 1]
        yield row


def _a_pairs(p: int, column) -> tuple:
    # a(p, l) in lowest terms from column[l] = c(p + l, p), l = 0, 1, ...
    sign = -1 if p % 2 else 1
    pairs = []
    rising = 1
    for l, c in enumerate(column):
        if l:
            rising *= p + l
        g = gcd(c, rising)
        pairs.append((sign * c // g, rising // g))
    return tuple(pairs)


def _taylor_pairs(p: int, kappa: int) -> tuple:
    """a(p, 0..kappa) as (numerator, denominator) pairs in lowest terms,
    for p >= 1 and kappa >= 0."""
    return _a_pairs(p, [row[p] for row in _stirling_table(p, kappa)])


def _report(d: int, k: int, a_coeffs) -> DivisibilityReport:
    denominators = tuple(den for _, den in a_coeffs)
    lower_bound = lcm(*denominators)
    cokernel = sharp = None
    if k <= 4:
        cokernel = hurewicz_cokernel_order(d, k)
        sharp = lower_bound == cokernel
    return DivisibilityReport(
        d=d,
        k=k,
        p=d - 1 - k // 2,
        kappa=k // 2,
        a_coeffs=a_coeffs,
        denominators=denominators,
        lower_bound=lower_bound,
        lemma_cokernel_order=cokernel,
        sharp=sharp,
    )


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
    return _report(d, k, _taylor_pairs(p, kappa))


def sharpness_scan(d_min: int, d_max: int) -> list[DivisibilityReport]:
    """Reports for k = 2 and k = 4 across d in [d_min, d_max], skipping
    pairs with no positive p.  The k=2 bound is always attained; the k=4
    bound already fails to be sharp at d = 4 (6 versus 12).
    """
    if not 2 <= d_min <= d_max:
        raise ValueError(f"need 2 <= d_min <= d_max, got {d_min}..{d_max}")
    _check_budget(d_max)
    # one table to the largest p, d_max - 2 at k = 2, serves every row
    table = list(_stirling_table(max(d_max - 2, 0), 2))
    reports = []
    for d in range(d_min, d_max + 1):
        for k in (2, 4):
            p = d - 1 - k // 2
            if p >= 1:
                column = [row[p] for row in table[:k // 2 + 1]]
                reports.append(_report(d, k, _a_pairs(p, column)))
    return reports
