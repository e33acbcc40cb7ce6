"""Exact rationals as "num/den" strings, and every rule of JSON input.

The wire format everywhere in this package is exact: a rational is the
ASCII string "num/den", with "/den" omitted when the denominator is 1.
No floating-point parsing anywhere, and a rational given in Python is
an int or a Fraction (or, where _pair reads it, a pair of ints), never
a float or a string.  An integer is an int, and an object holds the
keys of its format, no other.

Inside the package a rational is often a pair (numerator, denominator)
of ints in lowest terms with a positive denominator, the form a
Fraction carries.  Importing this module loads no ``fractions``: only
the functions that build a Fraction import it, and _exact_pair tells
a Fraction by the class of the loaded module, so a job that computes in
pairs alone never pays for it.

_Record is the base of every record type of the package.
"""

import sys
from math import gcd
from operator import itemgetter

__all__ = ["parse_rational", "format_rational"]


class _Record(tuple):
    """A tuple whose items are also read by name: the base of every
    result and input record of the package.

    A record is a class statement that states its ``_fields`` and
    ``__slots__ = ()`` and writes its own ``__new__``, with its real
    parameters and defaults, returning ``tuple.__new__(cls, (...))``.
    Defining one compiles no source at run time: the class statement is
    compiled with its module.  The base gives each field a read-only
    property, the repr ``Name(field=value, ...)``, ``__match_args__``,
    and the arguments that copy and pickle rebuild a record from.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))
        cls.__match_args__ = cls._fields

    def __repr__(self):
        items = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({items})"

    def __getnewargs__(self):
        return tuple(self)


def parse_rational(text: str):
    """Parse "num/den" (or plain "num") into a Fraction.

    The one grammar is ASCII -?[0-9]+(/[0-9]+)? with a nonzero
    denominator: no sign on the denominator, no "+", no spaces, no
    underscores and no other digits.  Raises TypeError when ``text`` is
    not a str (a JSON number, say), and ValueError on anything else that
    does not match, float-looking strings included, and on a numerator or
    denominator longer than Python converts from text.
    """
    numerator, denominator = _parse_pair(text)
    from fractions import Fraction
    return Fraction(numerator, denominator)


def _parse_pair(text: str):
    # the pair parse_rational reads, with its grammar and its messages
    if not isinstance(text, str):
        raise TypeError(
            f"expected a \"num/den\" string, got {type(text).__name__} {text!r}")
    num, slash, den = text.partition("/")
    numerator = _integer(num)
    denominator = _integer(den, signed=False) if slash else 1
    if numerator is None or denominator is None:
        raise ValueError(f"not an exact rational \"num/den\": {text!r}")
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return _lowest(numerator, denominator)


def _integer(text: str, signed: bool = True):
    # the one rule of integer text, ASCII -?[0-9]+ (no sign unless
    # signed): its int, or None off the rule; on an ASCII string
    # isdigit() holds for 0-9 only
    if not (text.isascii()
            and (text.removeprefix("-") if signed else text).isdigit()):
        return None
    try:
        return int(text)
    except ValueError as exc:
        # more digits than Python converts from text
        raise ValueError(f"an integer of {len(text)} characters is longer "
                         "than Python converts") from exc


def format_rational(q) -> str:
    """Format an int or a Fraction as "num/den", omitting a unit
    denominator.

    Only ``q.numerator`` and ``q.denominator`` are read, so anything
    without them, a float or a string included, raises AttributeError.
    """
    return _format_pair(q.numerator, q.denominator)


def _format_pair(numerator: int, denominator: int) -> str:
    # the "num/den" text of a pair in lowest terms with a positive
    # denominator, as an int or a Fraction carries it
    if denominator == 1:
        return str(numerator)
    return f"{numerator}/{denominator}"


def _lowest(numerator: int, denominator: int):
    # num/den as a pair in lowest terms with a positive denominator
    g = gcd(numerator, denominator)
    if denominator < 0:
        g = -g
    return numerator // g, denominator // g


def _not_exact(x, what):
    # a float or a string would stand for some other rational, so a value
    # given in Python is an int or a Fraction, as JSON input is once parsed
    return TypeError(
        f"{what} must be an int or a Fraction, got {type(x).__name__} {x!r}")


def _exact(x, what):
    from fractions import Fraction
    if type(x) not in (int, Fraction):
        raise _not_exact(x, what)
    return Fraction(x)


def _pair(x, what):
    """An int, a Fraction or a pair of ints with a nonzero denominator,
    as a pair in lowest terms with a positive denominator."""
    if type(x) is tuple and len(x) == 2 and type(x[0]) is type(x[1]) is int:
        if not x[1]:
            raise ZeroDivisionError(f"{what} has a zero denominator: {x!r}")
        return _lowest(*x)
    return _exact_pair(x, what)


def _exact_pair(x, what):
    """An int or a Fraction as a pair in lowest terms with a positive
    denominator.

    A Fraction is told by the class of the loaded ``fractions`` module:
    with that module not loaded, nothing is a Fraction, and nothing is
    imported here.
    """
    kind = type(x)
    if kind is int:
        return x, 1
    fractions = sys.modules.get("fractions")
    if fractions is not None and kind is fractions.Fraction:
        return x.numerator, x.denominator
    raise _not_exact(x, what)


def _strict_int(x, what):
    # a float or a bool is refused, never truncated by int()
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {type(x).__name__} {x!r}")
    return x


def _expect(x, kind, what):
    # a JSON string iterates like a list and has "in"; refuse it, and any
    # other type, wherever the format needs a list or a dict
    if type(x) is not kind:
        raise ValueError(f"{what} must be a {kind.__name__}, got {type(x).__name__}")
    return x


def _keys(obj, required, optional, what):
    # obj, a dict with every required key and no key outside required and
    # optional: a key the format does not name is refused, never ignored
    for key in _expect(obj, dict, what):
        if key not in required and key not in optional:
            raise ValueError(f"{what} takes no key {key!r}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    return obj
