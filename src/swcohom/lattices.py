"""Negative definite unimodular lattices and their characteristic vectors.

The admissibility question: does every characteristic vector c satisfy
-c^2 >= rank?  A violation obstructs realizing the form as the
intersection pairing of a closed oriented smooth 4-manifold; -E8 is the
standard inadmissible example, diag(-1,...,-1) the admissible one.

Characteristic vectors form a single coset c0 + 2L.  One elimination
serves every question: the fraction-free Bareiss rows U_k of A = -G,
in reversed coordinates, with -diag(G) carried as one more column, by
linalg._bareiss.  G is negative definite exactly when each row k pivots
on column k with a positive minor (Sylvester); back substitution in the
rows solves G x = -diag(G) in integers (exactly, since det(-G) = 1), and
x mod 2 is c0, the one characteristic vector with coordinates 0 and 1.
Every search is one walk in integers on the same rows.  With the leading minors
d_k = U_kk (d_{-1} = 1) they split the form as
x^T A x = sum_k (U_k . x)^2 / (d_{k-1} d_k), the
fraction-free LDL^T (E. Bareiss, Math. Comp. 22, 1968).  Scaled by
lcm_k d_{k-1} d_k every term is an integer, so each Fincke-Pohst
coordinate range costs one integer square root, never a float or a
Fraction.  A walk stops with an ArithmeticError once it has tried
MAX_NODES coordinate values, each weighted 1 + (b // 512)^2 for a scale
of b bits, as a node's integer work grows with b; and a form of rank
over MAX_RANK is refused before its elimination.
"""

from itertools import chain
from math import isqrt, lcm

from .linalg import _bareiss, _kernel_vector
from .rational import _keys, _Record, _strict_int

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


class GramMatrix(_Record):
    """Integer Gram matrix of a rank-n bilinear form.

    The constructor checks only shape and integrality; symmetry,
    unimodularity and negative definiteness are the job of validate(),
    so that invalid forms can be constructed and reported on.  Entries
    must be ints: a float or a bool is refused, never truncated.
    """

    __slots__ = ()
    _fields = ("n", "entries")

    def __new__(cls, entries):
        if (not isinstance(entries, (list, tuple)) or not entries
                or any(not isinstance(row, (list, tuple))
                       or len(row) != len(entries) for row in entries)):
            raise ValueError("entries must form a nonempty square matrix")
        rows = tuple(tuple(_strict_int(x, "an entry") for x in row)
                     for row in entries)
        return tuple.__new__(cls, (len(rows), rows))

    @classmethod
    def from_json(cls, doc) -> "GramMatrix":
        """The matrix of a JSON document, bare or as {"gram": matrix}."""
        if type(doc) is dict:
            doc = _keys(doc, ("gram",), (), "the top level")["gram"]
        return cls(doc)

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which takes entries only
        return (self.entries,)

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


class LatticeVector(_Record):
    """Coordinates in the basis of a form: a list or tuple of ints, like a
    GramMatrix row; a float, bool or string is refused, never truncated.
    """

    __slots__ = ()
    _fields = ("coords",)

    def __new__(cls, coords):
        if not isinstance(coords, (list, tuple)):
            raise ValueError(f"coords must be a list or tuple, got {coords!r}")
        return tuple.__new__(
            cls, (tuple(_strict_int(x, "a coordinate") for x in coords),))

    def to_json(self) -> list[int]:
        return list(self.coords)


class ValidationResult(_Record):
    __slots__ = ()
    _fields = ("valid", "failure")

    def __new__(cls, valid, failure=None):
        return tuple.__new__(cls, (valid, failure))


class AdmissibilityVerdict(_Record):
    __slots__ = ()
    _fields = ("admissible", "min_norm", "witness", "basis")

    def __new__(cls, admissible, min_norm, witness, basis):
        return tuple.__new__(cls, (admissible, min_norm, witness, basis))


# coordinate values one walk may try before it gives up, on forms whose
# scaled integers stay within 511 bits; each costs more on larger ones
MAX_NODES = 1 << 20
# the largest rank eliminated; the elimination's cost grows as the cube
MAX_RANK = 64


def _eliminate(g: GramMatrix):
    """(failure, rows): the first check g fails, or None, and the Bareiss
    rows of -G in reversed coordinates (None when g is not symmetric);
    by Sylvester's criterion the order does not change the verdict.  Each
    row ends with one more column, -diag(G) eliminated alongside, the
    right-hand side _characteristic solves for.
    """
    if g.n > MAX_RANK:
        raise ArithmeticError(
            f"lattice budget exceeded: rank must be at most {MAX_RANK}")
    e = g.entries
    for i in range(g.n):
        for j in range(i):
            if e[i][j] != e[j][i]:
                return "not symmetric", None
    rows, pivots = _bareiss([[-x for x in reversed(e[i])] + [-e[i][i]]
                             for i in reversed(range(g.n))])
    if (pivots != list(range(g.n))
            or any(row[k] <= 0 for k, row in enumerate(rows))):
        return "not negative definite", rows
    # det(-G) = last minor; |det G| = |det(-G)|
    det = rows[-1][g.n - 1]
    if det != 1:
        return f"not unimodular (|det| = {det})", rows
    return None, rows


def validate(g: GramMatrix) -> ValidationResult:
    """Check symmetry, negative definiteness, and |det| = 1, in that order.

    Definiteness is decided by the leading principal minors of -G in
    reversed coordinates, all of which must be positive; they are the
    diagonal of its fraction-free Bareiss rows, so the verdict is exact.
    """
    failure, _ = _eliminate(g)
    return ValidationResult(failure is None, failure)


def _require_valid(g: GramMatrix):
    """The Bareiss rows of -G, for a valid g; else ValueError."""
    failure, rows = _eliminate(g)
    if failure is not None:
        raise ValueError(f"invalid Gram matrix: {failure}")
    return rows


def is_characteristic(g: GramMatrix, c: LatticeVector) -> bool:
    """True iff <c, e_i> = <e_i, e_i> mod 2 for every basis vector e_i."""
    if len(c.coords) != g.n:
        raise ValueError(f"dimension mismatch: {len(c.coords)} != {g.n}")
    for i in range(g.n):
        row = g.entries[i]
        if (sum(a * b for a, b in zip(row, c.coords)) - row[i]) % 2:
            return False
    return True


def _characteristic(g: GramMatrix, rows):
    # find_characteristic's coordinates, from the Bareiss rows of a valid
    # g: the integer solution of G x = -diag(G), the kernel vector that
    # is 1 at the carried column (det(-G) = 1 scales it), taken mod 2
    n = g.n
    y = _kernel_vector(rows, range(n), n, n + 1)
    x = [yk % 2 for yk in reversed(y[:n])]
    assert is_characteristic(g, LatticeVector(x))
    return x


def find_characteristic(g: GramMatrix) -> LatticeVector:
    """The characteristic vector with every coordinate 0 or 1.

    G c = diag(G) has one integer solution, since det G = +-1, and it is
    characteristic; mod 2 it is the only solution, since G is invertible
    mod 2, so taking it mod 2 gives the one 0/1 vector of the coset.
    """
    return LatticeVector(_characteristic(g, _require_valid(g)))


def _short_vectors(rows, bound: int, residue, step: int):
    """(x^T A x, x) for each integer x = residue (mod step) with
    x^T A x <= bound, in lexicographic order, one per sign pair +-x: the
    one whose first nonzero coordinate is positive.  A is positive
    definite with Bareiss rows `rows` in reversed coordinates y_k =
    x_{n-1-k}, and bound >= 0.

    With d_k = rows[k][k] and d_{-1} = 1 the form is
    sum_k (U_k . y)^2 / (d_{k-1} d_k); times scale = lcm_k d_{k-1} d_k
    each term is the integer w_k (U_k . y)^2.  Coordinates are fixed from
    the last y down, so x_0 first (U. Fincke and M. Pohst, Math. Comp. 44,
    1985): given y_{k+1}, ..., with t = sum_{j>k} U_kj y_j, y_k ascends
    through every value with |d_k y_k + t| <= isqrt(remaining // w_k),
    and y_k >= 0 while every coordinate before it is 0.
    """
    n = len(rows)
    d = [row[k] for k, row in enumerate(rows)]
    pairs = [p * q for p, q in zip([1] + d, d)]
    scale = lcm(*pairs)
    w = [scale // p for p in pairs]
    # a node multiplies and takes integer square roots of numbers the size
    # of scale, work that grows faster than their bits do: past 512 bits
    # each node counts for more than one, quadratically in the bits
    weight = 1 + (scale.bit_length() >> 9) ** 2
    y = [0] * n
    residue = residue[::-1]
    nodes = 0

    def descend(k, remaining, signed):
        nonlocal nodes
        if k < 0:
            yield bound - remaining // scale, tuple(reversed(y))
            return
        row, dk = rows[k], d[k]
        t = sum(row[j] * y[j] for j in range(k + 1, n))
        r = isqrt(remaining // w[k])
        # ceil((-r - t) / d_k), or 0 while t = 0 and no sign is fixed,
        # raised into the residue class
        lo = -((r + t) // dk) if signed else 0
        lo += (residue[k] - lo) % step
        for yk in range(lo, (r - t) // dk + 1, step):
            nodes += weight
            if nodes > MAX_NODES:
                raise ArithmeticError("lattice search budget exceeded")
            y[k] = yk
            s = dk * yk + t
            yield from descend(k - 1, remaining - w[k] * s * s,
                               signed or yk != 0)

    yield from descend(n - 1, scale * bound, False)


def enumerate_coset_by_norm(g: GramMatrix, c0: LatticeVector, bound: int):
    """All characteristic vectors c in c0 + 2L with -c^2 <= bound, one
    representative per sign pair, sorted by (-c^2, coordinates).
    """
    _strict_int(bound, "bound")
    rows = _require_valid(g)
    if not is_characteristic(g, c0):
        raise ValueError("c0 is not characteristic")
    if bound < 0:
        return []
    found = sorted(_short_vectors(rows, bound, c0.coords, 2))
    # van der Blij: any characteristic vector has -c^2 = n mod 8
    assert all((norm - g.n) % 8 == 0 for norm, _ in found), found
    return [LatticeVector(coords) for _, coords in found]


def _unit_basis(rows):
    # diagonal_witness, from the Bareiss rows
    shell = tuple(LatticeVector(z) for norm, z
                  in _short_vectors(rows, 1, (0,) * len(rows), 1) if norm == 1)
    return shell if len(shell) == len(rows) else None


def donaldson_admissible(g: GramMatrix) -> AdmissibilityVerdict:
    """Admissible iff every characteristic c has -c^2 >= rank; a failure
    carries a minimizing witness, a success the basis of diagonal_witness.

    By Elkies' theorem (N. Elkies, "A characterization of the Z^n
    lattice", Math. Res. Lett. 2, 1995) the minimum characteristic norm
    of a definite unimodular lattice of rank n is at most n, with
    equality only for Z^n; by van der Blij's congruence (F. van der Blij,
    "An invariant of quadratic forms mod 8", Indag. Math. 21, 1959) every
    characteristic norm is = n mod 8.  So a full norm -1 shell decides
    the admissible forms; for the rest the coset is walked at bounds
    n mod 8, n mod 8 + 8, ..., n - 8, and the first vector found is the
    witness: its bound is the minimum, and it comes first by coordinates
    among the vectors there.  All walks share one elimination.
    """
    return _verdict(g, _require_valid(g))


def _verdict(g: GramMatrix, rows) -> AdmissibilityVerdict:
    # donaldson_admissible, from the Bareiss rows of a valid g
    basis = _unit_basis(rows)
    if basis is not None:
        return AdmissibilityVerdict(True, g.n, None, basis)
    c0 = _characteristic(g, rows)
    # Elkies: the bound n - 8 always holds a vector
    norm, witness = next(chain.from_iterable(
        _short_vectors(rows, b, c0, 2) for b in range(g.n % 8, g.n - 7, 8)))
    return AdmissibilityVerdict(False, norm, LatticeVector(witness), None)


def _decide(g: GramMatrix):
    """(failure, verdict): validate's failure, and donaldson_admissible's
    verdict when there is none (else None), from one elimination.
    """
    failure, rows = _eliminate(g)
    if failure is not None:
        return failure, None
    return None, _verdict(g, rows)


def diagonal_witness(g: GramMatrix):
    """The n pairwise orthogonal vectors of norm -1 when g is diagonal,
    else None.

    In a definite lattice two norm -1 vectors u != +-v are orthogonal,
    since Cauchy-Schwarz gives |u.v| < 1.  So the norm -1 shell, taken up
    to sign, is an orthogonal set of at most n vectors.  It has exactly n
    when g is diagonal: n of them span a sublattice with Gram -I_n and
    determinant of the same absolute value as g, so by unimodularity they
    are a basis.  The shell is returned, in lexicographic order, when it is
    full, and None otherwise (e.g. for an even lattice, which has no norm
    -1 vectors).
    """
    return _unit_basis(_require_valid(g))


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
