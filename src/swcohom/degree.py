"""Brouwer degree in dimensions one to three, counted exactly.

The boundary of the domain is a polytope (segment endpoints, a square,
an octahedron) so every sample point is X/S with integers X and S > 0,
and g returns integer images over a denominator > 0.  In dimensions 2
and 3 one loop refines the boundary cells (the segments of the square,
the triangles of the octahedron) until the images of the two ends of
every cell edge have a positive dot product.  Every boundary vertex is
an integer vector P on one dyadic grid, the point P u with
u = side / 2^MAX_DEPTH, so midpoints (P + Q) / 2 are exact integer
vectors as long as no cell is split more than MAX_DEPTH = 24 times; the
image cache and the table of split edges are keyed by integer tuples,
and g sees P u as (P num, den), u = num/den.  Two budgets end the
refinement with an ArithmeticError: MAX_CELLS = 4096 cells in all, and
MAX_DEPTH splits of one cell, which a zero of the map at a non-dyadic
point of the boundary reaches after a few evaluations per level.  The
degree is then an integer count over the image of the refined boundary:
the sign change between the two endpoints in dimension 1, and in
dimensions 2 and 3 the signed number of image cells met by one ray from
0, after the hanging vertices of the dimension-3 surface are closed
(Stenger, Numer. Math. 25, 1975; Kearfott, Numer. Math. 32, 1979).  No
floating point and no interval arithmetic is involved.  The boundary
between two samples is not certified: the count is the degree of the
piecewise-linear boundary through the sampled images.

Callers promise that all zeros of the map lie strictly inside the
Euclidean ball of the given radius and that none lie between that sphere
and the circumscribing polytope boundary (automatic in the common case
of zeros well inside the ball).
"""

from itertools import combinations
from operator import mul

from .rational import _format_pair, _lowest, _pair

__all__ = ["brouwer_degree"]

# refinement stops once image steps subtend less than a right angle; this
# cap on the cells of one refinement bounds the work before giving up
MAX_CELLS = 1 << 12
# no cell is split more often than this, so every vertex stays on the
# integer grid of step side / 2^MAX_DEPTH
MAX_DEPTH = 24
# directions (1, k) or (1, k, k^2) tried by the ray count; each image cell
# rules out at most six of them
MAX_RAYS = 64


def _evaluate(g, X, S):
    """g's numerators at x = X/S: over a positive denominator they span
    the ray of the image, so every sign the degree count reads is kept."""
    image = g(X, S)[0]
    if not any(image):
        coords = ", ".join(_format_pair(*_lowest(x, S)) for x in X)
        raise ValueError(f"map vanishes on the boundary at ({coords})")
    return image


def _degree_dim1(g, radius) -> int:
    num, den = radius
    left = _evaluate(g, [-num], den)[0]
    right = _evaluate(g, [num], den)[0]
    sign = lambda v: (v > 0) - (v < 0)
    return (sign(right) - sign(left)) // 2


def _square_segments():
    # corners and edge midpoints of the square [-1, 1]^2 in grid units,
    # counterclockwise
    s = 1 << MAX_DEPTH
    points = [(s, -s), (s, 0), (s, s), (0, s),
              (-s, s), (-s, 0), (-s, -s), (0, -s)]
    return list(zip(points, points[1:] + points[:1]))


def _octahedron_faces():
    # faces of the octahedron of L1-radius 1 in grid units
    s = 1 << MAX_DEPTH
    faces = []
    for s1 in (s, -s):
        for s2 in (s, -s):
            for s3 in (s, -s):
                a, b, c = (s1, 0, 0), (0, s2, 0), (0, 0, s3)
                # outward orientation: det[a b c] = s1 s2 s3 must be > 0
                faces.append((a, b, c) if s1 * s2 * s3 > 0 else (a, c, b))
    return faces


def _midpoint(p, q, midpoints):
    # exact while the edge has been split fewer than MAX_DEPTH times
    m = tuple((x + y) >> 1 for x, y in zip(p, q))
    midpoints[(p, q) if p < q else (q, p)] = m
    return m


def _split(cell, midpoints):
    """Halves of a segment or quarters of a triangle; the midpoint of
    each split edge goes into ``midpoints`` under its unordered ends."""
    if len(cell) == 2:
        a, b = cell
        m = _midpoint(a, b, midpoints)
        return [(a, m), (m, b)]
    a, b, c = cell
    mab = _midpoint(a, b, midpoints)
    mbc = _midpoint(b, c, midpoints)
    mca = _midpoint(c, a, midpoints)
    return [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]


def _budget_exceeded():
    return ArithmeticError(
        "boundary refinement budget exceeded; map may vanish on or near "
        "the boundary"
    )


def _refined(g, cells, unit):
    """Accepted cells of the adaptive split, the image of every vertex
    the split evaluated, and the midpoint of every split edge.

    Cells are segments or triangles of integer vertices P, and g is
    evaluated at P * unit as (P num, den) for the pair unit = (num, den).
    A cell is accepted when the images of the two ends of each of its
    edges have a positive dot product, and split in two or in four
    otherwise.  The split is depth first, within MAX_CELLS cells and
    MAX_DEPTH splits of any one cell.
    """
    num, den = unit
    cache = {}
    midpoints = {}

    def image(p):
        if p not in cache:
            cache[p] = _evaluate(g, [x * num for x in p], den)
        return cache[p]

    pending = [(cell, 0) for cell in cells]
    accepted = []
    while pending:
        if len(pending) + len(accepted) > MAX_CELLS:
            raise _budget_exceeded()
        cell, depth = pending.pop()
        images = [image(p) for p in cell]
        if all(_dot(u, v) > 0 for u, v in combinations(images, 2)):
            accepted.append(cell)
        elif depth == MAX_DEPTH:
            raise _budget_exceeded()
        else:
            pending.extend((c, depth + 1) for c in _split(cell, midpoints))
    return accepted, cache, midpoints


def _closed_surface(accepted, midpoints):
    """Triangles of a closed surface through the accepted triangles.

    Each triangle was split on its own, so a coarser triangle meets the
    split side of an edge at hanging vertices.  An edge (p, q) is walked
    through its midpoint while it was split, which gives the vertices
    the neighbour put on it, and the polygon around each accepted
    triangle is fanned from its first corner.
    """
    def chain(p, q):
        m = midpoints.get((p, q) if p < q else (q, p))
        if m is None:
            return [p]
        return chain(p, m) + chain(m, q)

    closed = []
    for a, b, c in accepted:
        ring = chain(a, b) + chain(b, c) + chain(c, a)
        closed.extend((ring[0], ring[i], ring[i + 1])
                      for i in range(1, len(ring) - 1))
    return closed


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum(map(mul, u, v))


def _cofactors(cell):
    """Vectors n_i with d . n_i = det of the cell's vectors with d in
    place of the i-th: 2x2 cofactors for a segment, cross products for a
    triangle."""
    if len(cell) == 2:
        a, b = cell
        return ((b[1], -b[0]), (-a[1], a[0]))
    a, b, c = cell
    return (_cross(b, c), _cross(c, a), _cross(a, b))


def _ray_count(cells) -> int:
    """Signed number of image cells met by a ray from 0.

    ``cells`` are segments or triangles of integer image vectors forming
    a closed curve or surface in dimension 2 or 3.  The ray t d, t > 0,
    meets the triangle (a, b, c) inside exactly when d = la + mb + nc
    with l, m, n > 0; with D = det[a b c] these coefficients are
    det[d b c]/D, det[a d c]/D and det[a b d]/D, and likewise for a
    segment (a, b) with D = det[a b].  Directions d = (1, k) or
    (1, k, k^2) are tried for k = 1, 2, ... until one meets no image
    vertex or edge and lies in no flat cell's span.
    """
    prepared = []
    for cell in cells:
        normals = _cofactors(cell)
        a = cell[0]
        det = _dot(a, normals[0])
        if det == 0:
            plane = next((n for n in normals if any(n)), None)
            if plane is not None:
                # the cell spans a line or a plane, and these are the
                # coefficients of the one linear relation of its vectors
                weights = [_dot(n, plane) for n in normals]
                meets_origin = min(weights) >= 0 or max(weights) <= 0
            else:
                # a, b, c lie on one line through 0; the span is cut out
                # by the rows of the cross-product matrix of a
                b, c = cell[1:]
                meets_origin = min(_dot(a, b), _dot(b, c), _dot(c, a)) < 0
                normals = ((0, a[2], -a[1]), (-a[2], 0, a[0]),
                           (a[1], -a[0], 0))
            if meets_origin:
                raise ArithmeticError("boundary image passes through 0")
        prepared.append((det, normals))

    dim = len(cells[0][0])
    for k in range(1, MAX_RAYS + 1):
        d = tuple(k ** i for i in range(dim))
        count = 0
        for det, normals in prepared:
            s = [_dot(d, n) for n in normals]
            if det == 0:
                if not any(s):
                    break  # d lies in the span of a flat cell
                continue
            if det < 0:
                s = [-x for x in s]
            if min(s) < 0:
                continue
            if min(s) == 0:
                break  # the ray meets an edge or a vertex
            count += 1 if det > 0 else -1
        else:
            return count
    raise ArithmeticError(
        f"no ray from 0 among {MAX_RAYS} directions misses every image "
        "vertex and edge"
    )


def brouwer_degree(g, dim: int, radius) -> int:
    """Degree of g around 0 over a boundary enclosing the radius-ball.

    g(X, S) returns the map at x = X/S, for ``dim`` integers X and S > 0,
    as (``dim`` integer numerators, one denominator > 0), the contract of
    evaluate_scaled on a PolynomialMap and of the reduced map's g, each a
    walk of one point on the reduction's integer polynomial; the map must
    be nonvanishing on the
    enclosing boundary polytope.  dim 1 is a sign comparison at the two
    endpoints.  In dims 2 and 3 one loop refines the segments of the
    square or the triangles of the octahedron on an integer grid of step
    side / 2^MAX_DEPTH, within MAX_CELLS = 4096 cells and MAX_DEPTH = 24
    splits of any one cell (either budget raises ArithmeticError), the
    dim-3 surface is closed at its hanging vertices, and the degree is
    the signed count of image cells met by a ray from 0.  All are exact
    integer counts; the boundary between samples is not certified.
    The radius is exact: an int, a Fraction or a (numerator, denominator)
    pair, and a float, a string or a bool raises TypeError.
    """
    num, den = _pair(radius, "radius")
    if num <= 0:
        raise ValueError(
            f"radius must be positive, got {_format_pair(num, den)}")
    if dim == 1:
        return _degree_dim1(g, (num, den))
    if dim == 2:
        cells = _square_segments()
    elif dim == 3:
        # octahedron of L1-radius 7r/4 circumscribes the Euclidean r-ball
        cells, num, den = _octahedron_faces(), 7 * num, 4 * den
    else:
        raise ValueError(f"degree computation supports dim 1..3, got {dim}")
    unit = _lowest(num, den << MAX_DEPTH)
    accepted, cache, midpoints = _refined(g, cells, unit)
    if dim == 3:
        accepted = _closed_surface(accepted, midpoints)
    return _ray_count([tuple(cache[p] for p in cell) for cell in accepted])
