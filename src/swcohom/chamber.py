"""Signed preimage counts on a circle and the wall-crossing jump.

A class-n latitude path winds n + 1/2 times around the circle: its lift
runs from angle 0 to (2n+1) pi.  Picking a generic target angle alpha in
(0, 2pi), the signed count of path crossings of alpha's full preimage
set {alpha + 2 pi m} depends only on which half-circle alpha lies in,
and dropping from the first half to the second loses exactly one
crossing.  That +-1 jump between the two chambers is the whole point.

Angles are exact rationals in units of pi, so "the equator at pi/2"
is the number 1/2 and no trigonometry ever happens.  Counting runs on
(numerator, denominator) pairs of ints in lowest terms with a positive
denominator, for angles and times alike, and loads no ``fractions``.
The API still takes ints and Fractions and returns Fractions
(LatitudePath.breakpoints and total_winding, ChamberCount.point_angle),
built from the pairs when they are returned; only there is
``fractions`` imported.  Paths are piecewise linear in
(time, angle) coordinates; monotone canonical representatives are
produced by make_path, but any PL path with a half-integer total
winding is accepted (wiggles cancel in the signed count).

Convention: increasing angle crosses positively, and the first-half
chamber (angles in (0, pi)) receives the larger count n + 1.

make_path takes n <= MAX_N = 10^6, checked before any work; a larger n
is an ArithmeticError.  Every count then has at most seven digits.
"""

from .rational import _exact_pair, _format_pair, _lowest, _Record, _strict_int

MAX_N = 10 ** 6

__all__ = [
    "LatitudePath",
    "ChamberCount",
    "make_path",
    "signed_preimage_count",
    "wall_crossing_jump",
]

FIRST_HALF = "first_half"
SECOND_HALF = "second_half"


def _fraction(pair):
    # the Fraction the API returns for a pair; only here is fractions
    # imported
    from fractions import Fraction
    return Fraction(*pair)


def _winding(points):
    # end angle minus start angle of (time, angle) points, as a pair
    (n0, d0), (n1, d1) = points[0][1], points[-1][1]
    return _lowest(n1 * d0 - n0 * d1, d0 * d1)


def _checked(points):
    # points, (time, angle) pairs of pairs, if they make a path
    if len(points) < 2:
        raise ValueError("need at least two breakpoints")
    if points[0][0] != (0, 1) or points[-1][0] != (1, 1):
        raise ValueError("path must be parametrized over [0, 1]")
    for ((n0, d0), _), ((n1, d1), _) in zip(points, points[1:]):
        if n1 * d0 <= n0 * d1:
            raise ValueError("breakpoint times must be strictly increasing")
    num, den = _winding(points)
    if den != 1 or num % 2 == 0:
        raise ValueError("total winding must be an odd multiple of pi, "
                         f"got {_format_pair(num, den)} pi")
    return points


class LatitudePath:
    """Piecewise-linear lift of a latitude path, in units of pi.

    breakpoints are (time, angle) pairs of ints or Fractions, with times
    strictly increasing from 0 to 1.  The difference end - start must be
    an odd integer +-(2n+1); its sign is the traversal orientation and n
    is the class.  The path keeps them as pairs of ints, and reading
    breakpoints gives them back as Fractions.
    """

    __slots__ = ("_points",)

    def __init__(self, breakpoints):
        points = tuple((_exact_pair(t, "a breakpoint time"),
                        _exact_pair(a, "a breakpoint angle"))
                       for t, a in breakpoints)
        object.__setattr__(self, "_points", _checked(points))

    @classmethod
    def _of(cls, points):
        # the path through (time, angle) pairs of pairs
        path = object.__new__(cls)
        object.__setattr__(path, "_points", _checked(points))
        return path

    def __setattr__(self, name, value):
        raise AttributeError("LatitudePath is immutable")

    @property
    def breakpoints(self):
        """The (time, angle) breakpoints, as Fractions."""
        return tuple((_fraction(t), _fraction(a)) for t, a in self._points)

    @property
    def total_winding(self):
        """End angle minus start angle, an odd integer, as a Fraction."""
        return _fraction(_winding(self._points))

    @property
    def n(self) -> int:
        return (abs(_winding(self._points)[0]) - 1) // 2

    def reversed(self) -> "LatitudePath":
        return LatitudePath._of(tuple(
            ((d - n, d), a) for (n, d), a in reversed(self._points)))

    def __repr__(self):
        return f"LatitudePath({list(self.breakpoints)})"


# point_angle in units of pi, in (0, 2) minus {1}; chamber is FIRST_HALF
# or SECOND_HALF
class ChamberCount(_Record):
    __slots__ = ()
    _fields = ("point_angle", "chamber", "signed_count")

    def __new__(cls, point_angle, chamber, signed_count):
        return tuple.__new__(cls, (point_angle, chamber, signed_count))


def make_path(n: int, breakpoints=None) -> LatitudePath:
    """The canonical monotone class-n path, or a caller-supplied
    representative checked to lie in class n.
    """
    _strict_int(n, "n")
    if n > MAX_N:
        raise ArithmeticError(
            f"chamber budget exceeded: n must be at most {MAX_N}")
    if n < 0:
        raise ValueError(f"class label must be nonnegative, got {n}")
    if breakpoints is None:
        return LatitudePath([(0, 0), (1, 2 * n + 1)])
    path = LatitudePath(breakpoints)
    if path.n != n:
        raise ValueError(f"supplied path lies in class {path.n}, not {n}")
    return path


def _signed_count(path: LatitudePath, alpha):
    """(chamber, signed count) of the path's crossings of the level set
    {alpha + 2m}, for alpha a pair in lowest terms with a positive
    denominator; the one count of the module and of ``swcohom chamber``.

    A segment from angle a to angle b crosses floor((b - alpha)/2) -
    floor((a - alpha)/2) levels with sign: an upward segment counts the
    levels in (a, b] once each, a downward one those in (b, a] with
    sign -1, so a level hit exactly at a local extremum contributes
    zero.  The segments' counts telescope, so the path's count is that
    difference between its last angle and its first, and a wiggle
    cancels.  For theta = tn/td, floor((theta - alpha)/2) is one
    integer floor, (tn ad - an td) // (2 td ad).
    """
    an, ad = alpha
    if not 0 < an < 2 * ad or an == ad:
        raise ValueError(
            f"point angle {_format_pair(an, ad)} pi is a pole or out of range"
        )
    (n0, d0), (n1, d1) = path._points[0][1], path._points[-1][1]
    count = ((n1 * ad - an * d1) // (2 * d1 * ad)
             - (n0 * ad - an * d0) // (2 * d0 * ad))
    return (FIRST_HALF if an < ad else SECOND_HALF), count


def signed_preimage_count(path: LatitudePath, point_angle) -> ChamberCount:
    """Signed count of path crossings of the target angle's preimages.

    point_angle is an int or a Fraction in units of pi and must be
    generic: inside (0, 2) and distinct from 1 (the two poles 0 and pi
    separate the chambers).
    """
    alpha = _exact_pair(point_angle, "a point angle")
    chamber, count = _signed_count(path, alpha)
    return ChamberCount(point_angle=_fraction(alpha), chamber=chamber,
                        signed_count=count)


def wall_crossing_jump(path: LatitudePath) -> int:
    """first-half count minus second-half count; +1 for canonical paths,
    -1 for their reversals.
    """
    return _signed_count(path, (1, 2))[1] - _signed_count(path, (3, 2))[1]
