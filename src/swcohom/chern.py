"""K-theory and rational cohomology of complex projective space,
with the Chern character between them.

K(CP^(d-1)) is Z[xi]/(xi^d) and H*(CP^(d-1); Q) is Q[x]/(x^d).  The
Chern character sends xi to 1 - exp(x); it is injective, and rationally
an isomorphism.  Both directions are Stirling numbers (Graham, Knuth
and Patashnik, *Concrete Mathematics*, section 6.1), inverse to each
other by the orthogonality of the two kinds (GKP (6.31)):

- forward, (exp(x) - 1)^j / j! = sum_n S(n, j) x^n / n! with S of the
  second kind (GKP (7.49)), so ch(sum_j e_j xi^j) has x^n coefficient
  sum_{j <= n} (-1)^j j! S(n, j) e_j / n!;
- backward, needed only on monomials n x^p, it is n log(1 - xi)^p,
  whose coefficients are of the first kind (``taylor_coefficients_a``).

Both rings are truncated series: KClass and HClass are TruncatedSeries
with d = order, and KClass admits integer coefficients only.
"""

from fractions import Fraction
from math import factorial, lcm

from .series import TruncatedSeries, taylor_coefficients_a

__all__ = [
    "KClass",
    "HClass",
    "one_minus_exp",
    "chern_character",
    "chern_character_inverse_monomial",
    "minimal_integral_multiplier",
]


def _integer(c) -> int:
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c}")
        return c.numerator
    # bool is an int subclass, but True is no coefficient
    if type(c) is not int:
        raise ValueError(f"non-integer coefficient {c!r}")
    return c


class KClass(TruncatedSeries):
    """An element of Z[xi]/(xi^d): integer coefficients, index = power of xi.

    Integrality is the defining constraint; rejecting non-integers here is
    what makes the divisibility argument a proof rather than a heuristic.
    Every coefficient, including each one an inherited ring operation
    produces, passes the check, so no operation leaves Z silently.
    """

    __slots__ = ()
    _coefficient = staticmethod(_integer)

    @property
    def d(self) -> int:
        return self.order

    @classmethod
    def unit(cls, d: int) -> "KClass":
        return cls.one(d)

    @classmethod
    def from_series(cls, s: TruncatedSeries) -> "KClass":
        """Reinterpret an integral xi-series as a K-class; errors otherwise."""
        return cls(s.order, s.coefficients)

    def to_json_list(self) -> list[int]:
        return list(self.coefficients)

    @classmethod
    def from_json_list(cls, items) -> "KClass":
        return cls(len(items), items)


class HClass(TruncatedSeries):
    """An element of Q[x]/(x^d): rational coefficients, index = power of x."""

    __slots__ = ()

    @property
    def d(self) -> int:
        return self.order


def one_minus_exp(order: int) -> TruncatedSeries:
    """1 - exp(x) = -x - x^2/2 - x^3/6 - ... mod x^order."""
    return TruncatedSeries(
        order, [0] + [Fraction(-1, factorial(n)) for n in range(1, order)])


def chern_character(e: KClass) -> HClass:
    """Substitute xi = 1 - exp(x) into the polynomial of ``e``, mod x^d,
    by the second-kind sum above.  The rows S(n, 0..n) come from
    S(n, j) = j S(n - 1, j) + S(n - 1, j - 1) in integers, and each
    coefficient becomes one Fraction at the end.
    """
    w = [(-1) ** j * factorial(j) * e_j for j, e_j in enumerate(e.coefficients)]
    coeffs, row = [], [1]  # row = S(n, 0..n)
    for n in range(e.d):
        coeffs.append(Fraction(sum(s * w_j for s, w_j in zip(row, w)),
                               factorial(n)))
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, n + 1)] + [1]
    return HClass(e.d, coeffs)


def chern_character_inverse_monomial(n: int, p: int, d: int) -> TruncatedSeries:
    """The unique xi-series mapping to n x^p under the Chern character.

    Since x = log(1 - xi) inverts xi = 1 - exp(x), this is
    n log(1 - xi)^p = n sum_l a(p, l) xi^(p+l), truncated mod xi^d.
    """
    if not 1 <= p <= d - 1:
        raise ValueError(f"p must satisfy 1 <= p <= d-1, got p={p}, d={d}")
    a = taylor_coefficients_a(p, d - 1 - p)
    coeffs = [Fraction(0)] * d
    for l, a_pl in enumerate(a):
        coeffs[p + l] = n * a_pl
    return TruncatedSeries(d, coeffs)


def minimal_integral_multiplier(p: int, d: int) -> int:
    """Smallest n >= 1 for which n log(1 - xi)^p mod xi^d has integer
    coefficients: the lcm of the denominators of a(p, 0), ..., a(p, d-1-p).
    """
    if not 1 <= p <= d - 1:
        raise ValueError(f"p must satisfy 1 <= p <= d-1, got p={p}, d={d}")
    a = taylor_coefficients_a(p, d - 1 - p)
    return lcm(*(c.denominator for c in a))
