"""Parsing and formatting of exact rationals as "num/den" strings.

The wire format everywhere in this package is exact: a rational is the
ASCII string "num/den", with "/den" omitted when the denominator is 1.
No floating-point parsing anywhere.
"""

from fractions import Fraction

__all__ = ["parse_rational", "format_rational"]


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or plain "num") into a Fraction.

    Raises TypeError when ``text`` is not a str (a JSON number, say), and
    ValueError on malformed input, including float-looking strings and a
    zero denominator.
    """
    if not isinstance(text, str):
        raise TypeError(
            f"expected a \"num/den\" string, got {type(text).__name__} {text!r}")
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not an exact rational: {text!r}")
    if "/" in s:
        num, _, den = s.partition("/")
        num, den = int(num), int(den)
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def format_rational(q) -> str:
    """Format a Fraction (or int) as "num/den", omitting a unit denominator."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
