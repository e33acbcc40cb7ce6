"""Small exact linear algebra toolkit over Fraction.

Matrices are lists of row lists.  Everything here is exact Gaussian
elimination over Fraction.  Nothing in this module touches floating
point; certification elsewhere depends on that.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "mat_fractions",
    "identity",
    "transpose",
    "mat_mul",
    "vec_dot",
    "vec_add",
    "vec_sub",
    "vec_scale",
    "det",
    "rref",
    "nullspace",
    "invert",
    "gram_schmidt",
]


def mat_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[vec_dot(row, col) for col in bt] for row in a]


def vec_dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} != {len(v)}")
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def vec_scale(c, u):
    return [c * x for x in u]


def det(a) -> Fraction:
    """Exact determinant by fraction Gaussian elimination with pivoting."""
    n = len(a)
    m = mat_fractions(a)
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            result = -result
        pivot = m[col][col]
        result *= pivot
        for r in range(col + 1, n):
            factor = m[r][col] / pivot
            if factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return result


def rref(a):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = mat_fractions(a)
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        m[r] = [x / pivot for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def nullspace(a, n_cols: int):
    """Basis of {x in Q^n_cols : a x = 0} as a list of vectors (empty if
    trivial); with no rows it is the standard basis."""
    reduced, pivots = rref(a)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(v)
    return basis


def invert(a):
    n = len(a)
    aug = [list(map(Fraction, row)) + ident_row
           for row, ident_row in zip(a, identity(n))]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def gram_schmidt(vectors):
    """Orthogonalize (no normalization) with the standard inner product,
    dropping vectors that fall in the span of the previous ones.
    """
    basis = []
    for v in vectors:
        w = [Fraction(x) for x in v]
        for b in basis:
            coeff = vec_dot(w, b) / vec_dot(b, b)
            w = vec_sub(w, vec_scale(coeff, b))
        if any(w):
            basis.append(w)
    return basis
