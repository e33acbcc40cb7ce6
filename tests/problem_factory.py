"""Random reduction problems with a provable expected degree.

Construction: f = L x + c(x) with L a random invertible integer matrix
and c a random polynomial multiplied by the C^1 cutoff (1 - |x|^2/r^2)^2,
zero outside |x| <= r.  On |x| >= max(r, |L^-1|_F) the compact part is
gone and |L x| >= |x| / |L^-1|_F >= 1, so that radius works as
bound_radius, and the straight-line homotopy to L (which never vanishes
there) pins the degree at sign(det L).

The Fraction linear algebra the factories and the test oracles read is
here too: swcohom.linalg computes in integers, and det and nullspace
below are Fraction views of its elimination on rows cleared of their
denominators.
"""

import random
from fractions import Fraction
from math import isqrt, lcm, prod

from swcohom import linalg
from swcohom.linalg import transpose
from swcohom.reduction import (
    PiecewisePolynomialMap,
    PolynomialMap,
    ReductionProblem,
)

F = Fraction


# -- Fraction linear algebra -------------------------------------------------


def identity(n: int):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[vec_dot(row, col) for col in bt] for row in a]


def vec_dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} != {len(v)}")
    return sum((x * y for x, y in zip(u, v)), F(0))


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def vec_scale(c, u):
    return [c * x for x in u]


def _cleared(a):
    # each row of a times the lcm of its denominators, and the product of
    # those positive multipliers
    a = [[F(x) for x in row] for row in a]
    lcms = [lcm(*(x.denominator for x in row)) for row in a]
    return ([[x.numerator * (d // x.denominator) for x in row]
             for row, d in zip(a, lcms)], prod(lcms))


def det(a):
    """Exact determinant of a square matrix of ints or Fractions, as a
    Fraction: linalg.det of the cleared rows over their multipliers."""
    cleared, scale = _cleared(a)
    return F(linalg.det(cleared), scale)


def nullspace(a, n_cols: int):
    """linalg.nullspace of the cleared rows, as Fractions."""
    return [[F(*x) for x in v]
            for v in linalg.nullspace(_cleared(a)[0], n_cols)]


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
    basis = []
    for v in vectors:
        w = [F(x) for x in v]
        for b in basis:
            coeff = vec_dot(w, b) / vec_dot(b, b)
            w = vec_sub(w, vec_scale(coeff, b))
        if any(w):
            basis.append(w)
    return basis


# -- problems ----------------------------------------------------------------


def _poly_mul(a, b, dim):
    out = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            key = tuple(x + y for x, y in zip(pa, pb))
            out[key] = out.get(key, F(0)) + ca * cb
    return out


def _cutoff_squared(dim, r2):
    # (1 - |x|^2/r^2)^2 as an exponent-dict polynomial
    zero = (0,) * dim
    q = {}
    for i in range(dim):
        powers = tuple(2 if j == i else 0 for j in range(dim))
        q[powers] = F(-1, 1) / r2
    base = dict(q)
    base[zero] = base.get(zero, F(0)) + 1
    return _poly_mul(base, base, dim)


def random_problem(rng: random.Random, dim: int):
    """One problem plus its provable degree sign(det L)."""
    while True:
        l_rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        d = det(l_rows)
        if d != 0:
            break
    r = F(rng.randint(1, 2))
    cutoff = _cutoff_squared(dim, r * r)
    components = []
    for _ in range(dim):
        raw = {}
        for _ in range(rng.randint(1, 3)):
            powers = tuple(rng.randint(0, 2) for _ in range(dim))
            raw[powers] = raw.get(powers, F(0)) + F(rng.randint(-2, 2))
        capped = _poly_mul(raw, cutoff, dim)
        components.append([(c, p) for p, c in capped.items() if c])
    inside = PolynomialMap(dim, components)
    outside = PolynomialMap(dim, [[] for _ in range(dim)])
    compact = PiecewisePolynomialMap([(r * r, inside), (None, outside)])

    inv = invert(l_rows)
    frob2 = sum(x * x for row in inv for x in row)
    radius = max(r, F(isqrt(frob2.numerator // frob2.denominator) + 1))
    problem = ReductionProblem(dim, dim, l_rows, compact, radius)
    expected = 1 if d > 0 else -1
    return problem, expected


def _poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, F(0)) + v
    return out


def zero_linear_problem(rng: random.Random, dim: int, m: int):
    """z^m - 1 on R^2, or (z^m - 1, s x3) on R^3 with s = +-1, with zero
    linear part and z conjugated at random.

    Radius 2 bounds the zeros: |z^m - 1| >= 1 once |z| >= 2^(1/m), and a
    point of R^3 with |x| >= 2 and |z| < 2^(1/2) has |x3| >= 1.
    """
    sign = -1 if rng.random() < 0.5 else 1
    re, im = {(0, 0): F(1)}, {}
    for _ in range(m):
        # (re + i im)(x + i sign y)
        re, im = (
            _poly_add(_poly_mul(re, {(1, 0): F(1)}, 2),
                      _poly_mul(im, {(0, 1): F(-sign)}, 2)),
            _poly_add(_poly_mul(im, {(1, 0): F(1)}, 2),
                      _poly_mul(re, {(0, 1): F(sign)}, 2)),
        )
    re = _poly_add(re, {(0, 0): F(-1)})
    components = [[(c, p + (0,) * (dim - 2)) for p, c in part.items() if c]
                  for part in (re, im)]
    if dim == 3:
        components.append([(F(rng.choice((-1, 1))), (0, 0, 1))])
    zero = [[0] * dim for _ in range(dim)]
    return ReductionProblem(dim, dim, zero, PolynomialMap(dim, components), 2)


def _unimodular(rng: random.Random, dim: int):
    # three row operations row_i += c row_j and a sign: det = +-1
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(3):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        rows[0] = [-a for a in rows[0]]
    return rows


def _ceil_frobenius(rows) -> int:
    # the least integer k with k^2 >= |rows|_F^2
    frob2 = sum(x * x for row in rows for x in row)
    k = isqrt(frob2.numerator // frob2.denominator)
    return k if k * k >= frob2 else k + 1


def skewed_problem(rng: random.Random, dim: int, m: int, eps):
    """f(x) = A F(B x), plus its degree, proved from the construction.

    F(z, w) = (z^m - 1 + eps z, L w) on R^2 x R^(dim - 2), with z^m
    conjugated at random; B and U are unimodular, L is a nonzero integer
    (dim 3 only) and A = k U with the integer k >= |U^-1|_F, so that
    |A y| >= |y|.  For 0 <= eps <= 1/4 and |z| >= 3, |z^m - 1 + eps z| >= 1,
    and |L w| >= 1 once |w| >= |L^-1|_F; so |f(x)| >= 1 once
    |x| >= (3 + ceil |L^-1|_F) ceil |B^-1|_F, the bound radius.  The
    straight-line homotopy to z^m (or conj(z)^m) keeps F from 0 there,
    so deg f = sign det A * sign det B * (+-m) * sign L.  The linear part
    is A diag(eps, eps, L) B and the compact part A (z^m - 1, 0)(B x),
    expanded in integers.
    """
    eps = F(eps)
    b, u = _unimodular(rng, dim), _unimodular(rng, dim)
    k = _ceil_frobenius(invert(u))
    a = [[k * x for x in row] for row in u]
    tail = [rng.choice((-2, -1, 1, 2)) for _ in range(dim - 2)]
    conj = rng.random() < 0.5
    radius = ((3 + _ceil_frobenius([[F(1, x) for x in tail]]))
              * _ceil_frobenius(invert(b)))

    # z = y0 + i s y1 for the linear polynomials y = B x, and
    # re + i im = z^m - 1
    unit = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    y = [{unit[j]: F(c) for j, c in enumerate(row) if c} for row in b]
    s = -1 if conj else 1
    sy1 = {e: s * c for e, c in y[1].items()}
    minus_sy1 = {e: -c for e, c in sy1.items()}
    re, im = {(0,) * dim: F(1)}, {}
    for _ in range(m):
        re, im = (_poly_add(_poly_mul(re, y[0], dim), _poly_mul(im, minus_sy1, dim)),
                  _poly_add(_poly_mul(im, y[0], dim), _poly_mul(re, sy1, dim)))
    re = _poly_add(re, {(0,) * dim: F(-1)})
    components = []
    for row in a:
        part = _poly_add({e: row[0] * c for e, c in re.items()},
                         {e: row[1] * c for e, c in im.items()})
        components.append([(c, e) for e, c in part.items() if c])

    # A diag(eps, eps, L) B
    middle = [[eps * (i == j) if i < 2 else 0 for j in range(dim)]
              for i in range(dim)]
    for i, x in enumerate(tail):
        middle[2 + i][2 + i] = x
    linear = [[sum(a[i][r] * middle[r][c] * b[c][j]
                   for r in range(dim) for c in range(dim))
               for j in range(dim)] for i in range(dim)]
    problem = ReductionProblem(dim, dim, linear,
                               PolynomialMap(dim, components), radius)
    sign = 1
    for factor in (det(u), det(b), *tail):
        sign *= 1 if factor > 0 else -1
    return problem, sign * (-m if conj else m)
