"""Parsing and formatting of exact rationals as "num/den" strings.

The wire format everywhere in this package is exact: a rational is the
ASCII string "num/den", with "/den" omitted when the denominator is 1.
No floating-point parsing anywhere, and a rational given in Python is
an int or a Fraction, never a float or a string.
"""

from fractions import Fraction

__all__ = ["parse_rational", "format_rational"]


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or plain "num") into a Fraction.

    The one grammar is ASCII -?[0-9]+(/[0-9]+)? with a nonzero
    denominator: no sign on the denominator, no "+", no spaces, no
    underscores and no other digits.  Raises TypeError when ``text`` is
    not a str (a JSON number, say), and ValueError on anything else that
    does not match, float-looking strings included.
    """
    if not isinstance(text, str):
        raise TypeError(
            f"expected a \"num/den\" string, got {type(text).__name__} {text!r}")
    num, slash, den = text.partition("/")
    # on an ASCII string isdigit() holds for 0-9 only
    if not (text.isascii() and num.removeprefix("-").isdigit()
            and (den.isdigit() or not slash)):
        raise ValueError(f"not an exact rational \"num/den\": {text!r}")
    if slash and int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den) if slash else 1)


def format_rational(q) -> str:
    """Format a Fraction (or int) as "num/den", omitting a unit denominator."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _exact(x, what) -> Fraction:
    # a float or a string would stand for some other rational, so a value
    # given in Python is an int or a Fraction, as JSON input is once parsed
    if type(x) is not int and type(x) is not Fraction:
        raise TypeError(
            f"{what} must be an int or a Fraction, got {type(x).__name__} {x!r}")
    return Fraction(x)
