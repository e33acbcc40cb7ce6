"""Chamber counts and the wall-crossing jump."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swcohom.chamber import (
    FIRST_HALF,
    SECOND_HALF,
    LatitudePath,
    _signed_count,
    make_path,
    signed_preimage_count,
    wall_crossing_jump,
)


def oracle_count(path, alpha):
    """Brute-force signed crossings: scan every candidate level of
    {alpha + 2m} against every segment with explicit comparisons.
    """
    alpha = Fraction(alpha)
    angles = [a for _, a in path.breakpoints]
    lo, hi = min(angles), max(angles)
    total = 0
    m = -abs(int(lo)) - abs(int(hi)) - 2
    while alpha + 2 * m <= hi + 2:
        level = alpha + 2 * m
        for (_, a0), (_, a1) in zip(path.breakpoints, path.breakpoints[1:]):
            if a0 < a1 and a0 < level <= a1:
                total += 1
            elif a1 < a0 and a1 < level <= a0:
                total -= 1
        m += 1
    return total


def test_class_zero_counts():
    path = make_path(0)
    assert signed_preimage_count(path, Fraction(1, 2)).signed_count == 1
    assert signed_preimage_count(path, Fraction(3, 2)).signed_count == 0


def test_class_three_counts():
    path = make_path(3)
    assert signed_preimage_count(path, Fraction(1, 2)).signed_count == 4
    assert signed_preimage_count(path, Fraction(3, 2)).signed_count == 3


def test_chamber_labels():
    path = make_path(2)
    assert signed_preimage_count(path, Fraction(1, 3)).chamber == FIRST_HALF
    assert signed_preimage_count(path, Fraction(5, 3)).chamber == SECOND_HALF


def test_counts_depend_only_on_chamber():
    rng = random.Random(7)
    for n in range(21):
        path = make_path(n)
        first = {
            signed_preimage_count(path, Fraction(rng.randrange(1, 97), 97)
                                  ).signed_count
            for _ in range(10)
        }
        second = {
            signed_preimage_count(path, 1 + Fraction(rng.randrange(1, 97), 97)
                                  ).signed_count
            for _ in range(10)
        }
        assert first == {n + 1}
        assert second == {n}


def test_jump_is_plus_one_for_canonical():
    for n in range(21):
        assert wall_crossing_jump(make_path(n)) == 1


def test_jump_is_minus_one_when_reversed():
    for n in range(6):
        assert wall_crossing_jump(make_path(n).reversed()) == -1


def test_reparametrization_invariance():
    # same monotone image, uneven time steps
    path = make_path(2, [(0, 0), (Fraction(1, 10), 1),
                         (Fraction(3, 4), Fraction(7, 2)), (1, 5)])
    for alpha in (Fraction(1, 2), Fraction(9, 10), Fraction(3, 2)):
        assert (signed_preimage_count(path, alpha).signed_count
                == signed_preimage_count(make_path(2), alpha).signed_count)


def test_wiggle_cancels():
    # back-and-forth below the first pole, still class 0
    wiggly = LatitudePath([(0, 0), (Fraction(1, 4), Fraction(3, 4)),
                           (Fraction(1, 2), Fraction(1, 4)), (1, 1)])
    assert wiggly.n == 0
    for alpha in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2)):
        assert (signed_preimage_count(wiggly, alpha).signed_count
                == signed_preimage_count(make_path(0), alpha).signed_count)
    assert wall_crossing_jump(wiggly) == 1


def test_against_oracle_random_paths():
    rng = random.Random(2026)
    for _ in range(40):
        n = rng.randrange(0, 5)
        sign = rng.choice([1, -1])
        # random PL path: random interior breakpoints, endpoints pinned
        k = rng.randrange(0, 4)
        ts = sorted(Fraction(rng.randrange(1, 60), 60) for _ in range(k))
        if len(set(ts)) != k:
            continue
        pts = [(Fraction(0), Fraction(0))]
        for t in ts:
            pts.append((t, Fraction(rng.randrange(-12, 12), 4)))
        pts.append((Fraction(1), Fraction(sign * (2 * n + 1))))
        path = LatitudePath(pts)
        for _ in range(4):
            alpha = Fraction(rng.randrange(1, 120), 60)
            if alpha == 1:
                continue
            assert (signed_preimage_count(path, alpha).signed_count
                    == oracle_count(path, alpha))


def test_pole_angles_rejected():
    path = make_path(1)
    for bad in (0, 1, 2, Fraction(5, 2), -Fraction(1, 2)):
        with pytest.raises(ValueError):
            signed_preimage_count(path, bad)


def test_path_validation():
    with pytest.raises(ValueError):
        LatitudePath([(0, 0)])
    with pytest.raises(ValueError):
        LatitudePath([(0, 0), (1, 2)])          # even winding
    with pytest.raises(ValueError):
        LatitudePath([(0, 0), (Fraction(1, 2), 1)])  # does not reach t=1
    with pytest.raises(ValueError):
        LatitudePath([(0, 0), (0, 1), (1, 3)])  # times not increasing
    with pytest.raises(ValueError):
        make_path(-1)
    with pytest.raises(ValueError):
        make_path(2, [(0, 0), (1, 3)])          # class mismatch


@pytest.mark.parametrize("bad", [0.5, "1/2", "0.5", True, (1, 2)],
                         ids=["float", "rational-string", "decimal-string", "bool",
                              "tuple"])
def test_angles_and_times_are_exact(bad):
    # a float would stand for some other rational (0.3 is
    # 5404319552844595/18014398509481984) and a string for a parse, so an
    # angle or a time given in Python is an int or a Fraction
    kind = type(bad).__name__
    with pytest.raises(TypeError, match=f"^a point angle must be an int or a "
                                        f"Fraction, got {kind} "):
        signed_preimage_count(make_path(2), bad)
    with pytest.raises(TypeError, match="^a breakpoint time must be"):
        LatitudePath([(0, 0), (bad, 1), (1, 3)])
    with pytest.raises(TypeError, match="^a breakpoint angle must be"):
        make_path(1, [(0, 0), (Fraction(1, 2), bad), (1, 3)])


ANGLES = st.one_of(st.integers(-12, 12),
                   st.fractions(min_value=-12, max_value=12, max_denominator=12))


@st.composite
def pl_paths(draw):
    # a PL path from any start angle, with Fraction breakpoints between
    # its pinned end times and an odd total winding of either sign
    n = draw(st.integers(0, 4))
    sign = draw(st.sampled_from([1, -1]))
    start = draw(ANGLES)
    times = draw(st.lists(st.fractions(min_value=0, max_value=1,
                                       max_denominator=60),
                          max_size=4, unique=True))
    times = sorted(t for t in times if 0 < t < 1)
    points = [(0, start)]
    points += [(t, draw(ANGLES)) for t in times]
    points.append((1, start + sign * (2 * n + 1)))
    return LatitudePath(points)


@settings(deadline=None)
# ends, and a turn, exactly on a level of {alpha + 2m}
@example(LatitudePath([(0, Fraction(1, 2)), (1, Fraction(7, 2))]),
         Fraction(1, 2))
@example(LatitudePath([(0, Fraction(-3, 2)), (Fraction(1, 3), Fraction(5, 2)),
                       (1, Fraction(-9, 2))]), Fraction(1, 2))
@given(pl_paths(),
       st.one_of(st.integers(-3, 4),
                 st.fractions(min_value=-3, max_value=4, max_denominator=60)))
def test_pair_count_matches_oracle(path, alpha):
    # the integer pair core against the Fraction brute force, and the
    # pole and out-of-range message with the angle as str(Fraction) writes it
    pair = (Fraction(alpha).numerator, Fraction(alpha).denominator)
    if 0 < alpha < 2 and alpha != 1:
        chamber = FIRST_HALF if alpha < 1 else SECOND_HALF
        assert _signed_count(path, pair) == (chamber, oracle_count(path, alpha))
        c = signed_preimage_count(path, alpha)
        assert c == (alpha, chamber, oracle_count(path, alpha))
    else:
        message = (f"^point angle {re.escape(str(Fraction(alpha)))} pi is a "
                   "pole or out of range$")
        with pytest.raises(ValueError, match=message):
            _signed_count(path, pair)
        with pytest.raises(ValueError, match=message):
            signed_preimage_count(path, alpha)
    assert wall_crossing_jump(path) == (oracle_count(path, Fraction(1, 2))
                                        - oracle_count(path, Fraction(3, 2)))


def test_public_values_are_fractions():
    # the path counts on integer pairs, and hands back Fractions
    path = make_path(1, [(0, 0), (Fraction(1, 2), Fraction(5, 4)), (1, 3)])
    assert path.breakpoints == ((0, 0), (Fraction(1, 2), Fraction(5, 4)),
                                (1, 3))
    assert {type(x) for point in path.breakpoints for x in point} == {Fraction}
    assert type(path.total_winding) is Fraction
    assert type(path.reversed().total_winding) is Fraction
    assert (path.total_winding, path.reversed().total_winding) == (3, -3)
    count = signed_preimage_count(path, Fraction(1, 2))
    assert type(count.point_angle) is Fraction
    assert repr(path) == (
        "LatitudePath([(Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(1, 2), Fraction(5, 4)), (Fraction(1, 1), Fraction(3, 1))])")
    assert repr(path.reversed()) == (
        "LatitudePath([(Fraction(0, 1), Fraction(3, 1)), "
        "(Fraction(1, 2), Fraction(5, 4)), (Fraction(1, 1), Fraction(0, 1))])")
    assert repr(make_path(0)) == (
        "LatitudePath([(Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(1, 1), Fraction(1, 1))])")
    with pytest.raises(AttributeError, match="^LatitudePath is immutable$"):
        path.breakpoints = ()


@pytest.mark.parametrize("bad", [True, Fraction(3, 1), 2.5, "3"],
                         ids=["bool", "fraction", "float", "string"])
def test_class_label_is_an_int(bad):
    # a bool or an integral Fraction is refused, never read as its value
    with pytest.raises(ValueError, match=f"^n must be an integer, got "
                                         f"{type(bad).__name__} "):
        make_path(bad)
