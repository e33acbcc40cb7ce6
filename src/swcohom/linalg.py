"""Small exact linear algebra in integers, with the package's one
elimination.

Matrices are lists of row lists of ints.  _bareiss is fraction-free
elimination: the lattice layer runs it as it is, and det and nullspace
run it on rows their callers cleared of denominators, which changes
neither the sign of a determinant (each row is scaled by a positive
integer) nor a kernel.  Nothing here touches floating point or loads
fractions.
"""

from .rational import _lowest

__all__ = ["transpose", "det", "nullspace"]


def transpose(a):
    return [list(col) for col in zip(*a)]


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


def det(a):
    """Determinant of a square integer matrix: the last Bareiss pivot,
    signed by the order of its pivot columns, and 0 when a row is dropped.
    """
    rows, pivots = _bareiss(a)
    if len(rows) < len(a):
        return 0
    odd = sum(p > q for k, p in enumerate(pivots) for q in pivots[k + 1:]) % 2
    last = rows[-1][pivots[-1]] if rows else 1
    return -last if odd else last


def nullspace(a, n_cols: int):
    """Basis of {x in Q^n_cols : a x = 0} for integer rows a, as vectors
    of (numerator, denominator) pairs in lowest terms (empty if trivial);
    with no rows it is the standard basis.  For each column no row pivots
    on, in order, the vector is 1 there and 0 at the others, the basis
    the reduced row echelon form gives.
    """
    rows, pivots = _bareiss(a)
    basis = []
    for free in range(n_cols):
        if free not in pivots:
            y = _kernel_vector(rows, pivots, free, n_cols)
            basis.append([_lowest(z, y[free]) for z in y])
    return basis
