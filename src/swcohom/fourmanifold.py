"""Topological bookkeeping for smooth closed spin^c 4-manifolds.

Turns (b1, b_plus, b_minus, c^2) into the complex Dirac index d, the
expected dimension k of the monopole moduli space, the applicable
divisibility constraint on the integer Seiberg-Witten invariant, and the
lattice-side index used by the Donaldson-type obstruction.

Only the b1 = 0, b_plus = 2p+1 odd regime is wired to the divisibility
corollary.  The general moduli dimension ind_R(D) + b1 - b2 is not
implemented: which flavor of b2 it means is ambiguous in the b1 > 0
case, and nothing downstream needs it.

expected_moduli_dimension takes |d| and b_plus up to MAX_DIM_INPUT =
10^6, checked before any work; a larger one is an ArithmeticError.
"""

from .rational import _Record

MAX_DIM_INPUT = 10 ** 6

__all__ = [
    "FourManifoldData",
    "DonaldsonVerdict",
    "dirac_index_d",
    "expected_moduli_dimension",
    "k_from_bplus",
    "divisibility_constraint",
    "donaldson_k",
]


class FourManifoldData(_Record):
    """Betti data plus the self-intersection of the spin^c determinant class."""

    __slots__ = ()
    _fields = ("b1", "b_plus", "b_minus", "c_squared")

    def __new__(cls, b1, b_plus, b_minus, c_squared):
        for name, value in (("b1", b1), ("b_plus", b_plus), ("b_minus", b_minus)):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
        return tuple.__new__(cls, (b1, b_plus, b_minus, c_squared))

    @property
    def signature(self) -> int:
        return self.b_plus - self.b_minus


# Index k = (-c^2 - b2)/8 and whether the inequality -c^2 >= b2 holds.
class DonaldsonVerdict(_Record):
    __slots__ = ()
    _fields = ("k", "admissible")

    def __new__(cls, k, admissible):
        return tuple.__new__(cls, (k, admissible))


def dirac_index_d(c_squared: int, signature: int) -> int:
    """Complex index d = (c^2 - signature)/8 of the spin^c Dirac operator.

    A characteristic class on a 4-manifold satisfies c^2 = signature
    mod 8, so non-divisibility means the input data is inconsistent.
    """
    num = c_squared - signature
    if num % 8 != 0:
        raise ValueError(
            f"c_squared - signature = {num} is not divisible by 8; "
            "not a characteristic class for this intersection form"
        )
    return num // 8


def expected_moduli_dimension(d: int, b_plus: int) -> int:
    """Expected dimension k = 2d - b_plus - 1 of the monopole moduli space
    when b1 = 0 and b_plus = 2p + 1 is odd and at least 3.

    May be negative; callers decide whether that is an error.
    """
    if abs(d) > MAX_DIM_INPUT or b_plus > MAX_DIM_INPUT:
        raise ArithmeticError(
            f"dim budget exceeded: |d| and b_plus must be at most "
            f"{MAX_DIM_INPUT}")
    if b_plus < 3 or b_plus % 2 == 0:
        raise ValueError(f"b_plus must be odd and >= 3, got {b_plus}")
    return 2 * d - b_plus - 1


def k_from_bplus(d: int, b_plus: int) -> int:
    """Degree k = 2d - 2p - 2 = 2d - b_plus - 1 probed by a four-manifold
    with first Betti number 0 and the given odd b_plus = 2p + 1 >= 3:
    expected_moduli_dimension, refused when negative.
    """
    k = expected_moduli_dimension(d, b_plus)
    if k < 0:
        raise ValueError(f"negative degree k={k} for d={d}, b_plus={b_plus}")
    return k


def divisibility_constraint(m: FourManifoldData):
    """The DivisibilityReport of the bound that applies to the integer
    Seiberg-Witten invariant of a manifold with this data: the invariant
    is divisible by the report's lower_bound.

    Requires b1 = 0 and odd b_plus > 1 (so that the invariant is defined
    as an integer and the stable-homotopy comparison applies), d >= 2 and
    even k >= 0.
    """
    # imported here: the index, dim and lattice subcommands run the other
    # functions, and need no divisibility layer
    from .divisibility import sw_divisibility_lower_bound
    if m.b1 != 0:
        raise ValueError(f"constraint requires b1 = 0, got b1 = {m.b1}")
    if m.b_plus <= 1 or m.b_plus % 2 == 0:
        raise ValueError(f"constraint requires odd b_plus > 1, got {m.b_plus}")
    d = dirac_index_d(m.c_squared, m.signature)
    if d < 2:
        raise ValueError(f"constraint requires d >= 2, got d = {d}")
    k = k_from_bplus(d, m.b_plus)
    return sw_divisibility_lower_bound(d, k)


def donaldson_k(c_squared: int, b2: int) -> DonaldsonVerdict:
    """Index k = (-c_squared - b2)/8 attached to a characteristic vector c
    of a negative definite unimodular form of rank b2.

    For such a form arising as the intersection form of a closed oriented
    4-manifold, every characteristic vector must have k >= 0, i.e.
    -c^2 >= b2; a violation obstructs smooth realizability.
    """
    if b2 < 1:
        raise ValueError(f"b2 must be positive, got {b2}")
    num = -c_squared - b2
    if num % 8 != 0:
        raise ValueError(
            f"-c_squared - b2 = {num} is not divisible by 8; "
            "c is not characteristic for a unimodular form of this rank"
        )
    k = num // 8
    return DonaldsonVerdict(k=k, admissible=k >= 0)
