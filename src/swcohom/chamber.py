"""Signed preimage counts on a circle and the wall-crossing jump.

A class-n latitude path winds n + 1/2 times around the circle: its lift
runs from angle 0 to (2n+1) pi.  Picking a generic target angle alpha in
(0, 2pi), the signed count of path crossings of alpha's full preimage
set {alpha + 2 pi m} depends only on which half-circle alpha lies in,
and dropping from the first half to the second loses exactly one
crossing.  That +-1 jump between the two chambers is the whole point.

Angles are kept as exact Fractions in units of pi, so "the equator at
pi/2" is the number 1/2 and no trigonometry ever happens.  Paths are
piecewise linear in (time, angle) coordinates; monotone canonical
representatives are produced by make_path, but any PL path with a
half-integer total winding is accepted (wiggles cancel in the signed
count).

Convention: increasing angle crosses positively, and the first-half
chamber (angles in (0, pi)) receives the larger count n + 1.

make_path takes n <= MAX_N = 10^6, checked before any work; a larger n
is an ArithmeticError.  Every count then has at most seven digits.
"""

from collections import namedtuple
from fractions import Fraction
from math import floor

from .rational import _exact

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


class LatitudePath:
    """Piecewise-linear lift of a latitude path, in units of pi.

    breakpoints are (time, angle) pairs of ints or Fractions, with times
    strictly increasing from 0 to 1.  The difference end - start must be
    an odd integer +-(2n+1); its sign is the traversal orientation and n
    is the class.
    """

    __slots__ = ("breakpoints",)

    def __init__(self, breakpoints):
        pts = tuple((_exact(t, "a breakpoint time"),
                     _exact(a, "a breakpoint angle")) for t, a in breakpoints)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        if pts[0][0] != 0 or pts[-1][0] != 1:
            raise ValueError("path must be parametrized over [0, 1]")
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if t1 <= t0:
                raise ValueError("breakpoint times must be strictly increasing")
        total = pts[-1][1] - pts[0][1]
        if total.denominator != 1 or total.numerator % 2 == 0:
            raise ValueError(
                f"total winding must be an odd multiple of pi, got {total} pi"
            )
        object.__setattr__(self, "breakpoints", pts)

    def __setattr__(self, name, value):
        raise AttributeError("LatitudePath is immutable")

    @property
    def total_winding(self) -> Fraction:
        return self.breakpoints[-1][1] - self.breakpoints[0][1]

    @property
    def n(self) -> int:
        return (abs(int(self.total_winding)) - 1) // 2

    def reversed(self) -> "LatitudePath":
        return LatitudePath(
            [(1 - t, a) for t, a in reversed(self.breakpoints)]
        )

    def __repr__(self):
        return f"LatitudePath({list(self.breakpoints)})"


# point_angle in units of pi, in (0, 2) minus {1}; chamber is FIRST_HALF
# or SECOND_HALF
ChamberCount = namedtuple("ChamberCount", "point_angle chamber signed_count")


def make_path(n: int, breakpoints=None) -> LatitudePath:
    """The canonical monotone class-n path, or a caller-supplied
    representative checked to lie in class n.
    """
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


def _segment_crossings(theta_a: Fraction, theta_b: Fraction,
                       alpha: Fraction) -> int:
    """Signed crossings of the level set {alpha + 2m} by one segment.

    Upward segments count levels in (theta_a, theta_b] once each,
    downward ones count levels in (theta_b, theta_a] with sign -1; a
    level hit exactly at a local extremum thus contributes zero.  Both
    cases collapse to a floor difference.
    """
    return floor((theta_b - alpha) / 2) - floor((theta_a - alpha) / 2)


def signed_preimage_count(path: LatitudePath, point_angle) -> ChamberCount:
    """Signed count of path crossings of the target angle's preimages.

    point_angle is an int or a Fraction in units of pi and must be
    generic: inside (0, 2) and distinct from 1 (the two poles 0 and pi
    separate the chambers).
    """
    alpha = _exact(point_angle, "a point angle")
    if not 0 < alpha < 2 or alpha == 1:
        raise ValueError(
            f"point angle {alpha} pi is a pole or out of range"
        )
    count = 0
    pts = path.breakpoints
    for (_, a0), (_, a1) in zip(pts, pts[1:]):
        count += _segment_crossings(a0, a1, alpha)
    chamber = FIRST_HALF if alpha < 1 else SECOND_HALF
    return ChamberCount(point_angle=alpha, chamber=chamber, signed_count=count)


def wall_crossing_jump(path: LatitudePath) -> int:
    """first-half count minus second-half count; +1 for canonical paths,
    -1 for their reversals.
    """
    first = signed_preimage_count(path, Fraction(1, 2)).signed_count
    second = signed_preimage_count(path, Fraction(3, 2)).signed_count
    return first - second
