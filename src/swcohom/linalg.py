"""Small exact linear algebra, with the package's one elimination.

Matrices are lists of row lists.  _bareiss is fraction-free elimination
in integers: the lattice layer runs it as it is, and det and nullspace
run it on rows cleared of their denominators.  Nothing here touches
floating point, and only the functions that build a Fraction import
fractions, so the lattice layer never loads it.
"""

from math import lcm, prod

__all__ = [
    "identity",
    "transpose",
    "mat_mul",
    "vec_dot",
    "vec_add",
    "vec_sub",
    "vec_scale",
    "det",
    "nullspace",
    "invert",
    "gram_schmidt",
]


def identity(n: int):
    from fractions import Fraction
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[vec_dot(row, col) for col in bt] for row in a]


def vec_dot(u, v):
    from fractions import Fraction
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} != {len(v)}")
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def vec_scale(c, u):
    return [c * x for x in u]


def _bareiss(a):
    """(rows, pivots): Bareiss elimination of an integer matrix without
    row exchanges (E. Bareiss, Math. Comp. 22, 1968).

    Each row pivots on its first nonzero entry once the rows before it
    are eliminated, and a row that is then zero is dropped.  rows[k] is
    zero before pivots[k] and at pivots[:k], and rows[k][pivots[k]] is
    the minor of the first k + 1 kept rows on the columns pivots[:k + 1];
    every entry is a minor, so every division is exact.  Columns past the
    square part carry right-hand sides through the same elimination.
    """
    m = [list(row) for row in a]
    width = len(m[0]) if m else 0
    rows, pivots = [], []
    prev, lo = 1, 0
    for k, row in enumerate(m):
        p = next((j for j in range(lo, width) if row[j]), None)
        if p is None:
            continue
        rows.append(row)
        pivots.append(p)
        while lo in pivots:
            lo += 1
        # columns before lo are pivot columns, zero in every row below;
        # an indexed loop, as a comprehension costs more on short rows
        pivot = row[p]
        for below in m[k + 1:]:
            f = below[p]
            for j in range(lo, width):
                below[j] = (below[j] * pivot - f * row[j]) // prev
            below[p] = 0
        prev = pivot
    return rows, pivots


def _kernel_vector(rows, pivots, free: int, n_cols: int):
    """d x for the x with (rows) x = 0 that is 1 at column free and 0 at
    the other columns no row pivots on, d the last pivot (1 with no rows):
    integral by Cramer's rule, so every quotient below is exact.
    """
    y = [0] * n_cols
    y[free] = rows[-1][pivots[-1]] if rows else 1
    for row, p in zip(reversed(rows), reversed(pivots)):
        y[p] = -sum(row[j] * y[j] for j in range(p + 1, n_cols)) // row[p]
    return y


def _cleared(a):
    # each row of a times the lcm of its denominators, and the product of
    # those positive multipliers
    lcms = [lcm(*(x.denominator for x in row)) for row in a]
    return ([[x.numerator * (d // x.denominator) for x in row]
             for row, d in zip(a, lcms)], prod(lcms))


def det(a):
    """Exact determinant of a square matrix of ints or Fractions, as a
    Fraction: the last Bareiss pivot of the cleared rows, signed by the
    order of its pivot columns, over the multipliers that cleared them.
    """
    from fractions import Fraction
    cleared, scale = _cleared(a)
    rows, pivots = _bareiss(cleared)
    if len(rows) < len(a):
        return Fraction(0)
    odd = sum(p > q for k, p in enumerate(pivots) for q in pivots[k + 1:]) % 2
    last = rows[-1][pivots[-1]] if rows else 1
    return Fraction(-last if odd else last, scale)


def nullspace(a, n_cols: int):
    """Basis of {x in Q^n_cols : a x = 0} as a list of vectors (empty if
    trivial); with no rows it is the standard basis.  For each column no
    row pivots on, in order, the vector is 1 there and 0 at the others,
    the basis the reduced row echelon form gives.
    """
    from fractions import Fraction
    rows, pivots = _bareiss(_cleared(a)[0])
    basis = []
    for free in range(n_cols):
        if free not in pivots:
            y = _kernel_vector(rows, pivots, free, n_cols)
            basis.append([Fraction(z, y[free]) for z in y])
    return basis


def invert(a):
    # the kernel of [a | -I] is {(x, a x)}: a is invertible exactly when
    # the tails a x of its basis are e_0, e_1, ..., and the heads x are
    # then the columns of the inverse
    n = len(a)
    basis = nullspace([list(row) + [-int(i == j) for j in range(n)]
                       for i, row in enumerate(a)], 2 * n)
    if [v[n:] for v in basis] != identity(n):
        raise ValueError("matrix is singular")
    return transpose([v[:n] for v in basis])


def gram_schmidt(vectors):
    """Orthogonalize (no normalization) with the standard inner product,
    dropping vectors that fall in the span of the previous ones.
    """
    from fractions import Fraction
    basis = []
    for v in vectors:
        w = [Fraction(x) for x in v]
        for b in basis:
            coeff = vec_dot(w, b) / vec_dot(b, b)
            w = vec_sub(w, vec_scale(coeff, b))
        if any(w):
            basis.append(w)
    return basis
