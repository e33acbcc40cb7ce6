"""Truncated formal power series with exact rational coefficients.

A series lives in Q[xi]/(xi^order): it carries exactly ``order``
coefficients, index = power of xi.  All arithmetic is exact
arbitrary-precision rational; there is no floating point in this module.
Truncation order is explicit and mixed-order arithmetic is an error,
never a silent promotion.

The one series this package ultimately cares about is

    log(1 - xi)^p  =  sum_{l >= 0}  a(p, l) xi^(p + l),

whose coefficients ``a(p, l)`` :func:`taylor_coefficients_a` gives as
Fractions.  Their integer source is ``swcohom.divisibility``, which
builds them from the closed form

    a(p, l) = (-1)^p p! c(p + l, p) / (p + l)!,

with c the unsigned Stirling numbers of the first kind (Graham, Knuth and
Patashnik, *Concrete Mathematics*, section 6.1 and (7.50)), in integer
arithmetic and without any series multiplication.
"""

from fractions import Fraction

from .divisibility import _taylor_pairs
from .rational import _exact, format_rational, parse_rational

__all__ = [
    "TruncatedSeries",
    "log_one_minus",
    "taylor_coefficients_a",
]


class TruncatedSeries:
    """An element of Q[xi]/(xi^order).

    Immutable; coefficients are stored as a tuple of Fractions of length
    exactly ``order`` (Fraction keeps them canonical: positive denominator,
    coprime).  A coefficient, and the factor of ``scale`` and ``monomial``,
    is an int or a Fraction: anything else, a float or a string included,
    raises TypeError, since it would stand for some other rational.
    Operations between series of different orders raise ValueError, and
    +, - and * between series of different classes raise TypeError.  Ring
    operations return the type of their left operand, so a subclass that
    narrows ``_coefficient``, which every coefficient passes through,
    keeps its ring closed or raises.
    """

    __slots__ = ("order", "coefficients")

    _coefficient = staticmethod(lambda c: _exact(c, "a coefficient"))

    def __init__(self, order: int, coefficients):
        if order < 1:
            raise ValueError(f"order must be a positive integer, got {order}")
        coeffs = tuple(map(self._coefficient, coefficients))
        if len(coeffs) != order:
            raise ValueError(
                f"expected {order} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, (0,) * order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, (1,) + (0,) * (order - 1))

    @classmethod
    def xi(cls, order: int) -> "TruncatedSeries":
        """The generator xi (zero when order == 1, since xi = 0 mod xi)."""
        coeffs = [0] * order
        if order > 1:
            coeffs[1] = 1
        return cls(order, coeffs)

    @classmethod
    def monomial(cls, order: int, power: int, coefficient=1) -> "TruncatedSeries":
        coefficient = _exact(coefficient, "a coefficient")
        coeffs = [0] * order
        if 0 <= power < order:
            coeffs[power] = coefficient
        return cls(order, coeffs)

    # -- ring operations ---------------------------------------------

    def _check_operand(self, other: "TruncatedSeries"):
        # Z[xi]/(xi^d), Q[x]/(x^d) and plain series are different rings
        if type(other) is not type(self):
            raise TypeError(
                f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} != {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_operand(other)
        return type(self)(
            self.order,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_operand(other)
        return type(self)(
            self.order,
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __neg__(self) -> "TruncatedSeries":
        return type(self)(self.order, tuple(-a for a in self.coefficients))

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_operand(other)
        n = self.order
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * n
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return type(self)(n, out)

    __rmul__ = __mul__

    def scale(self, c) -> "TruncatedSeries":
        c = _exact(c, "a factor")
        return type(self)(self.order, tuple(c * a for a in self.coefficients))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.order == other.order
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.order, self.coefficients))

    def __repr__(self):
        return f"{type(self).__name__}({self.order}, {list(self.coefficients)})"

    # -- accessors & serialization -------------------------------------

    @property
    def constant_term(self) -> Fraction:
        return self.coefficients[0]

    def __getitem__(self, power: int) -> Fraction:
        return self.coefficients[power]

    def to_strings(self) -> list[str]:
        """Serialize as a JSON-ready list of "num/den" strings."""
        return [format_rational(c) for c in self.coefficients]

    @classmethod
    def from_strings(cls, items) -> "TruncatedSeries":
        coeffs = [parse_rational(s) for s in items]
        return cls(len(coeffs), coeffs)


def log_one_minus(order: int) -> TruncatedSeries:
    """The Mercator series log(1 - xi) = -sum_{j>=1} xi^j / j, mod xi^order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [Fraction(0)] + [Fraction(-1, j) for j in range(1, order)]
    return TruncatedSeries(order, coeffs)


def taylor_coefficients_a(p: int, kappa: int) -> list[Fraction]:
    """Coefficients a(p, 0..kappa): a(p, l) is the xi^(p+l) coefficient of
    log(1 - xi)^p.

    A Fraction view of the integer source in ``swcohom.divisibility``,
    which builds

        a(p, l) = (-1)^p c(p + l, p) / ((p + 1) (p + 2) ... (p + l))

    from the unsigned Stirling numbers of the first kind c(n, p) by their
    recurrence (Graham, Knuth and Patashnik, *Concrete Mathematics*,
    section 6.1 and (7.50)).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    return [Fraction(num, den) for num, den in _taylor_pairs(p, kappa)]
