"""Small exact linear algebra toolkit over Fraction.

Matrices are lists of row lists.  Everything here is exact: Gaussian
elimination over Fraction, and fraction-free Bareiss over the integers,
whose echelon rows U_k give the integer LDL^T split
x^T A x = sum_k (U_k . x)^2 / (U_{k-1,k-1} U_kk) of a symmetric positive
definite A (U_{-1,-1} = 1).  Nothing in this module touches floating
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
    "bareiss",
    "rref",
    "nullspace",
    "invert",
    "gram_schmidt",
    "solve_mod2",
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


def bareiss(a) -> list[list[int]]:
    """Fraction-free echelon rows of an integer matrix, by Bareiss
    elimination without pivoting (E. Bareiss, Math. Comp. 22, 1968).

    Row k is the pivot row at step k: zero before column k, and its
    diagonal entry is the leading principal minor det(a[:k+1][:k+1]).
    A zero pivot stops the elimination, and the rows up to and including
    it are returned; fine for definiteness checks, where a zero minor
    already decides.
    """
    n = len(a)
    m = [[int(x) for x in row] for row in a]
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0:
            return m[:k + 1]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return m


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


def solve_mod2(a, b):
    """One solution of a x = b over GF(2), or None if inconsistent.

    Input entries are integers taken mod 2; free variables are set to 0.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    m = [[x & 1 for x in row] + [bi & 1] for row, bi in zip(a, b)]
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(n_rows):
            if i != r and m[i][c]:
                m[i] = [(x + y) & 1 for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n_rows):
        if m[i][n_cols]:
            return None
    x = [0] * n_cols
    for row_idx, c in enumerate(pivots):
        x[c] = m[row_idx][n_cols]
    return x
