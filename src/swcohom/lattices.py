"""Negative definite unimodular lattices and their characteristic vectors.

The admissibility question: does every characteristic vector c satisfy
-c^2 >= rank?  A violation obstructs realizing the form as the
intersection pairing of a closed oriented smooth 4-manifold; -E8 is the
standard inadmissible example, diag(-1,...,-1) the admissible one.

Characteristic vectors form a single coset c0 + 2L.  All enumeration is
exact: LDL^T over Fraction gives Fincke-Pohst coordinate ranges whose
endpoints are certified with integer square roots, never floats.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .linalg import bareiss_leading_minors, ldl, solve_mod2

__all__ = [
    "GramMatrix",
    "LatticeVector",
    "ValidationResult",
    "AdmissibilityVerdict",
    "validate",
    "is_characteristic",
    "find_characteristic",
    "enumerate_coset_by_norm",
    "donaldson_admissible",
    "diagonal_witness",
    "minus_identity",
    "e8_gram",
]


class GramMatrix(namedtuple("GramMatrix", "n entries")):
    """Integer Gram matrix of a rank-n bilinear form.

    The constructor checks only shape and integrality; symmetry,
    unimodularity and negative definiteness are the job of validate(),
    so that invalid forms can be constructed and reported on.  Entries
    must be ints: a float or a bool is refused, never truncated.
    """

    __slots__ = ()

    def __new__(cls, entries):
        if (not isinstance(entries, (list, tuple)) or not entries
                or any(not isinstance(row, (list, tuple))
                       or len(row) != len(entries) for row in entries)):
            raise ValueError("entries must form a nonempty square matrix")
        rows = tuple(tuple(row) for row in entries)
        for row in rows:
            for x in row:
                if type(x) is not int:
                    raise ValueError(
                        f"entries must be integers, got {type(x).__name__} {x!r}")
        return super().__new__(cls, len(rows), rows)

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which takes entries only
        return (self.entries,)

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


class LatticeVector(namedtuple("LatticeVector", "coords")):
    __slots__ = ()

    def __new__(cls, coords):
        return super().__new__(cls, tuple(int(x) for x in coords))

    def to_json(self) -> list[int]:
        return list(self.coords)


ValidationResult = namedtuple("ValidationResult", "valid failure", defaults=(None,))
AdmissibilityVerdict = namedtuple("AdmissibilityVerdict", "admissible min_norm witness")


def validate(g: GramMatrix) -> ValidationResult:
    """Check symmetry, |det| = 1, and negative definiteness, in that order.

    Definiteness is decided by the leading principal minors of -G, all of
    which must be positive; they come from fraction-free elimination, so
    the verdict is exact.
    """
    e = g.entries
    for i in range(g.n):
        for j in range(i):
            if e[i][j] != e[j][i]:
                return ValidationResult(False, "not symmetric")
    neg = [[-x for x in row] for row in e]
    minors = bareiss_leading_minors(neg)
    if any(m <= 0 for m in minors):
        return ValidationResult(False, "not negative definite")
    # det(-G) = last minor; |det G| = |det(-G)|
    if minors[-1] != 1:
        return ValidationResult(False, f"not unimodular (|det| = {minors[-1]})")
    return ValidationResult(True)


def _require_valid(g: GramMatrix):
    v = validate(g)
    if not v.valid:
        raise ValueError(f"invalid Gram matrix: {v.failure}")


def _norm(g: GramMatrix, coords) -> int:
    # -c^T G c, a nonnegative integer for negative definite G
    total = 0
    for i, ci in enumerate(coords):
        if ci:
            row = g.entries[i]
            total += ci * sum(rj * cj for rj, cj in zip(row, coords) if cj)
    return -total


def is_characteristic(g: GramMatrix, c: LatticeVector) -> bool:
    """True iff <c, e_i> = <e_i, e_i> mod 2 for every basis vector e_i."""
    if len(c.coords) != g.n:
        raise ValueError(f"dimension mismatch: {len(c.coords)} != {g.n}")
    for i in range(g.n):
        row = g.entries[i]
        if (sum(a * b for a, b in zip(row, c.coords)) - row[i]) % 2:
            return False
    return True


def find_characteristic(g: GramMatrix) -> LatticeVector:
    """Some characteristic vector, from solving G c = diag(G) over GF(2).

    Unimodularity makes G invertible mod 2, so a solution always exists
    for a valid Gram matrix.
    """
    _require_valid(g)
    diag = [g.entries[i][i] for i in range(g.n)]
    x = solve_mod2([list(row) for row in g.entries], diag)
    if x is None:
        raise ValueError("no characteristic vector; matrix is not unimodular")
    c = LatticeVector(x)
    assert is_characteristic(g, c)
    return c


def _fincke_pohst(a_rows, shift, bound: Fraction):
    """All integer vectors z with (z + shift)^T A (z + shift) <= bound,
    for A symmetric positive definite with rational entries.

    Coordinate ranges come from the LDL^T split: with y = L^T (z + shift),
    the form is sum_i d_i y_i^2, processed from the last coordinate down.
    Range endpoints are certified by isqrt on exact rationals.
    """
    n = len(a_rows)
    if bound < 0:
        return
    L, d = ldl(a_rows)
    z = [0] * n
    # partial[i] = sum over j > i of d_j y_j^2, maintained during descent
    def descend(i, remaining: Fraction):
        if i < 0:
            yield tuple(z)
            return
        # y_i = z_i + shift_i + sum_{j>i} L[j][i] (z_j + shift_j)
        tail = sum(
            (L[j][i] * (z[j] + shift[j]) for j in range(i + 1, n)), Fraction(0)
        )
        e = Fraction(shift[i]) + tail
        # condition: d_i (z_i + e)^2 <= remaining
        r2 = remaining / d[i]
        m = e.denominator
        a0 = e.numerator
        # w = m z_i + a0 must satisfy w^2 <= r2 m^2; w integer, so compare
        # against the floor of the rational right-hand side
        cap = (r2.numerator * m * m) // r2.denominator
        w_max = isqrt(cap)
        z_lo = -((w_max + a0) // m)
        z_hi = (w_max - a0) // m
        for zi in range(z_lo, z_hi + 1):
            z[i] = zi
            y = zi + e
            yield from descend(i - 1, remaining - d[i] * y * y)
        z[i] = 0

    yield from descend(n - 1, Fraction(bound))


def _canonical_sign(coords):
    for x in coords:
        if x > 0:
            return tuple(coords)
        if x < 0:
            return tuple(-y for y in coords)
    return tuple(coords)


def enumerate_coset_by_norm(g: GramMatrix, c0: LatticeVector, bound: int):
    """All characteristic vectors c in c0 + 2L with -c^2 <= bound, one
    representative per sign pair, sorted by (-c^2, coordinates).
    """
    _require_valid(g)
    if not is_characteristic(g, c0):
        raise ValueError("c0 is not characteristic")
    if bound < 0:
        return []
    a_rows = [[Fraction(-x) for x in row] for row in g.entries]
    shift = [Fraction(x, 2) for x in c0.coords]
    seen = set()
    for zz in _fincke_pohst(a_rows, shift, Fraction(bound, 4)):
        c = tuple(c0_i + 2 * z_i for c0_i, z_i in zip(c0.coords, zz))
        seen.add(_canonical_sign(c))
    results = []
    for coords in seen:
        norm = _norm(g, coords)
        # van der Blij: any characteristic vector has -c^2 = n mod 8
        assert (norm - g.n) % 8 == 0, (coords, norm, g.n)
        results.append((norm, coords))
    results.sort()
    return [LatticeVector(coords) for _, coords in results]


def donaldson_admissible(g: GramMatrix) -> AdmissibilityVerdict:
    """Admissible iff every characteristic c has -c^2 >= rank; when it
    fails, a concrete minimizing witness is attached.

    One coset enumeration at bound n - 8 decides it.  By Elkies' theorem
    (N. Elkies, "A characterization of the Z^n lattice", Math. Res.
    Lett. 2, 1995) the minimum characteristic norm of a definite
    unimodular lattice of rank n is at most n, with equality only for
    Z^n; by van der Blij's congruence (F. van der Blij, "An invariant of
    quadratic forms mod 8", Indag. Math. 21, 1959) every characteristic
    norm is = n mod 8.  So the minimum is either n, and the coset has no
    vector of norm <= n - 8, or it is at most n - 8, and the first
    enumerated vector, sorted by (norm, coordinates), is the minimizer.
    """
    _require_valid(g)
    found = enumerate_coset_by_norm(g, find_characteristic(g), g.n - 8)
    if not found:
        return AdmissibilityVerdict(True, g.n, None)
    witness = found[0]
    return AdmissibilityVerdict(False, _norm(g, witness.coords), witness)


def diagonal_witness(g: GramMatrix, max_rank: int = 8):
    """The n pairwise orthogonal vectors of norm -1 when g is diagonal,
    else None.

    In a definite lattice two norm -1 vectors u != +-v are orthogonal,
    since Cauchy-Schwarz gives |u.v| < 1.  So the norm -1 shell, taken up
    to sign, is an orthogonal set of at most n vectors.  It has exactly n
    when g is diagonal: n of them span a sublattice with Gram -I_n and
    determinant of the same absolute value as g, so by unimodularity they
    are a basis.  The shell is returned sorted when it is full, and None
    otherwise (e.g. for an even lattice, which has no norm -1 vectors).
    """
    _require_valid(g)
    if g.n > max_rank:
        raise ValueError(f"rank {g.n} exceeds the enumeration budget {max_rank}")
    a_rows = [[Fraction(-x) for x in row] for row in g.entries]
    zero_shift = [Fraction(0)] * g.n
    shell = sorted({_canonical_sign(zz)
                    for zz in _fincke_pohst(a_rows, zero_shift, Fraction(1))
                    if _norm(g, zz) == 1})
    if len(shell) != g.n:
        return None
    return [LatticeVector(v) for v in shell]


def minus_identity(n: int) -> GramMatrix:
    return GramMatrix([[-int(i == j) for j in range(n)] for i in range(n)])


def e8_gram() -> GramMatrix:
    """The negative definite even unimodular rank 8 form: the negated
    E8 Cartan matrix (nodes numbered with the branch at the fourth).
    """
    edges = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
    m = [[0] * 8 for _ in range(8)]
    for i in range(8):
        m[i][i] = -2
    for i, j in edges:
        m[i][j] = m[j][i] = 1
    return GramMatrix(m)
