"""Chamber counts and the wall-crossing jump."""

import random
from fractions import Fraction

import pytest

from swcohom.chamber import (
    FIRST_HALF,
    SECOND_HALF,
    LatitudePath,
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


@pytest.mark.parametrize("bad", [0.5, "1/2", "0.5", True],
                         ids=["float", "rational-string", "decimal-string", "bool"])
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
