"""The one elimination, linalg._bareiss, against Fraction Gauss-Jordan.

The oracle is the elimination det and nullspace ran before they ran
Bareiss in integers: Gaussian elimination over Fraction with row
exchanges, and the reduced row echelon form whose free columns give the
kernel basis.  det and nullspace here are the Fraction views in
problem_factory of linalg's integer det and nullspace.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from problem_factory import _cleared, det, identity, invert, mat_mul, nullspace
from swcohom import linalg
from swcohom.linalg import _bareiss

F = Fraction


def gauss_det(a):
    n = len(a)
    m = [[F(x) for x in row] for row in a]
    result = F(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return F(0)
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
    m = [[F(x) for x in row] for row in a]
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


def rref_nullspace(a, n_cols):
    reduced, pivots = rref(a)
    basis = []
    for f in range(n_cols):
        if f not in pivots:
            v = [F(0)] * n_cols
            v[f] = F(1)
            for r, c in enumerate(pivots):
                v[c] = -reduced[r][f]
            basis.append(v)
    return basis


# zeros often, so that rows pivot out of column order
ENTRIES = st.one_of(st.just(0), st.sampled_from((-3, -2, -1, 1, 2, 3)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def matrices(draw, square=False):
    """Rows of rationals, up to 5 x 5, of every rank: up to `rank` drawn
    rows, and the others zero, repeated or sums of multiples of drawn
    ones, in any order; then a column or none is zeroed.
    """
    n_cols = draw(st.integers(1, 5))
    n_rows = n_cols if square else draw(st.integers(0, 5))
    rank = draw(st.sampled_from(range(min(n_rows, n_cols) + 1)))
    rows = [draw(st.lists(ENTRIES, min_size=n_cols, max_size=n_cols))
            for _ in range(rank)]
    for _ in range(n_rows - rank):
        kind = draw(st.sampled_from(("zero", "repeat", "mix")))
        if kind == "zero" or not rows:
            rows.append([0] * n_cols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(ENTRIES), draw(ENTRIES)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    rows = draw(st.permutations(rows))
    for c in draw(st.sets(st.integers(0, n_cols - 1), max_size=1)):
        for row in rows:
            row[c] = 0
    return rows


@given(matrices(), matrices(square=True))
def test_elimination_matches_gauss_jordan(a, square):
    basis = nullspace(a, len(a[0]) if a else 0)
    assert basis == rref_nullspace(a, len(a[0]) if a else 0)
    assert all(type(x) is F for v in basis for x in v)
    # linalg.nullspace gives each entry in lowest terms, as Fraction does
    pairs = linalg.nullspace(_cleared(a)[0], len(a[0]) if a else 0)
    assert pairs == [[(x.numerator, x.denominator) for x in v] for v in basis]
    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a for v in basis)
    d = det(square)
    assert d == gauss_det(square) and type(d) is F


def test_bareiss_pivots_on_each_row_in_order():
    # no row exchange: the hyperbolic plane pivots on column 1 first
    assert _bareiss([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], [1, 0])
    assert det([[0, 1], [1, 0]]) == -1
    # a row that eliminates to zero is dropped, and later rows go on
    rows, pivots = _bareiss([[1, 2, 3], [2, 4, 6], [0, 0, 5]])
    assert (rows, pivots) == ([[1, 2, 3], [0, 0, 5]], [0, 2])
    # the pivots of a definite form are its leading principal minors
    rows, pivots = _bareiss([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert pivots == [0, 1, 2] and [rows[k][k] for k in range(3)] == [2, 3, 4]
    assert _bareiss([]) == ([], [])


def test_invert_on_the_kernel():
    a = [[2, 1, 0], [1, 1, F(1, 2)], [0, 3, 1]]
    assert mat_mul(a, invert(a)) == identity(3)
    for singular in ([[1, 2], [2, 4]], [[0, 0], [0, 1]], [[0]]):
        with pytest.raises(ValueError, match="singular"):
            invert(singular)
