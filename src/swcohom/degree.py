"""Brouwer degree in dimensions one to three, counted exactly.

The boundary of the domain is a polytope (segment endpoints, a square,
an octahedron) so every sample point has exact rational coordinates, and
polynomial evaluators return exact rational images.  The boundary is
refined until neighbouring images have a positive dot product; the
degree is then an integer count over the image of the refined boundary:
the sign change between the two endpoints in dimension 1, the signed
crossings of the positive x-axis by the closed image polygon in
dimension 2, and the signed hits of one ray from 0 on the closed image
surface in dimension 3 (Stenger, Numer. Math. 25, 1975; Kearfott,
Numer. Math. 32, 1979).  No floating point and no interval arithmetic
is involved.  The boundary between two samples is not certified: the
count is the degree of the piecewise-linear boundary through the
sampled images.

Callers promise that all zeros of the map lie strictly inside the
Euclidean ball of the given radius and that none lie between that sphere
and the circumscribing polytope boundary (automatic in the common case
of zeros well inside the ball).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = ["brouwer_degree"]

# refinement stops once image steps subtend less than a right angle; these
# caps bound the total work before giving up
MAX_LOOP_POINTS = 1 << 15
MAX_TRIANGLES = 1 << 16
# directions (1, k, k^2) tried by the ray count; each image triangle rules
# out at most six of them
MAX_RAYS = 64


def _evaluate(g, point):
    image = [Fraction(y) for y in g(list(point))]
    if not any(image):
        raise ValueError(f"map vanishes on the boundary at {point}")
    return image


def _degree_dim1(g, radius: Fraction) -> int:
    left = _evaluate(g, (-radius,))[0]
    right = _evaluate(g, (radius,))[0]
    sign = lambda v: (v > 0) - (v < 0)
    return (sign(right) - sign(left)) // 2


def _midpoint(p, q):
    return tuple((a + b) / 2 for a, b in zip(p, q))


def _degree_dim2(g, radius: Fraction) -> int:
    r = Fraction(radius)
    corners = [(r, -r), (r, r), (-r, r), (-r, -r)]
    points = []
    for i in range(4):
        points.append(corners[i])
        points.append(_midpoint(corners[i], corners[(i + 1) % 4]))
    images = [_evaluate(g, p) for p in points]

    # refine until consecutive images subtend an angle below pi/2,
    # witnessed exactly by a positive dot product
    while True:
        refined_points, refined_images = [], []
        clean = True
        for i, (p, img) in enumerate(zip(points, images)):
            q = points[(i + 1) % len(points)]
            img_q = images[(i + 1) % len(images)]
            refined_points.append(p)
            refined_images.append(img)
            if img[0] * img_q[0] + img[1] * img_q[1] <= 0:
                m = _midpoint(p, q)
                refined_points.append(m)
                refined_images.append(_evaluate(g, m))
                clean = False
        points, images = refined_points, refined_images
        if clean:
            break
        if len(points) > MAX_LOOP_POINTS:
            raise ArithmeticError(
                "boundary refinement budget exceeded; map may vanish on "
                "or near the boundary"
            )

    # no image edge passes through 0, so the winding number is the signed
    # count of crossings of the positive x-axis; a vertex on the axis
    # counts as lying above it
    winding = 0
    for i, (x0, y0) in enumerate(images):
        x1, y1 = images[(i + 1) % len(images)]
        cross = x0 * y1 - y0 * x1
        if y0 < 0 <= y1 and cross > 0:
            winding += 1
        elif y1 < 0 <= y0 and cross < 0:
            winding -= 1
    return winding


def _octahedron_faces(radius_l1: Fraction):
    zero = Fraction(0)
    faces = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                a = (s1 * radius_l1, zero, zero)
                b = (zero, s2 * radius_l1, zero)
                c = (zero, zero, s3 * radius_l1)
                # outward orientation: det[a b c] = s1 s2 s3 must be > 0
                if s1 * s2 * s3 > 0:
                    faces.append((a, b, c))
                else:
                    faces.append((a, c, b))
    return faces


def _refined_octahedron(g, radius: Fraction):
    """Accepted triangles of the adaptive split, and the image of every
    vertex the split evaluated."""
    # octahedron of L1-radius 7r/4 circumscribes the Euclidean r-ball
    faces = _octahedron_faces(7 * Fraction(radius) / 4)
    cache = {}

    def image(p):
        if p not in cache:
            cache[p] = tuple(_evaluate(g, p))
        return cache[p]

    def well_separated(tri):
        imgs = [image(p) for p in tri]
        for i in range(3):
            u, v = imgs[i], imgs[(i + 1) % 3]
            if sum(x * y for x, y in zip(u, v)) <= 0:
                return False
        return True

    pending = list(faces)
    accepted = []
    while pending:
        if len(pending) + len(accepted) > MAX_TRIANGLES:
            raise ArithmeticError(
                "surface refinement budget exceeded; map may vanish on "
                "or near the boundary"
            )
        tri = pending.pop()
        if well_separated(tri):
            accepted.append(tri)
            continue
        a, b, c = tri
        mab, mbc, mca = _midpoint(a, b), _midpoint(b, c), _midpoint(c, a)
        pending.extend(
            [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        )
    return accepted, cache


def _closed_surface(accepted, cache):
    """Triangles of a closed surface through the accepted triangles.

    Each triangle was split on its own, so a coarser triangle meets the
    split side of an edge at hanging vertices.  An edge (p, q) is walked
    through _midpoint(p, q) while that midpoint was evaluated, which
    gives the vertices the neighbour put on it, and the polygon around
    each accepted triangle is fanned from its first corner.
    """
    def chain(p, q):
        m = _midpoint(p, q)
        if m not in cache:
            return [p]
        return chain(p, m) + chain(m, q)

    closed = []
    for a, b, c in accepted:
        ring = chain(a, b) + chain(b, c) + chain(c, a)
        closed.extend((ring[0], ring[i], ring[i + 1])
                      for i in range(1, len(ring) - 1))
    return closed


def _integer_direction(v):
    # a positive multiple of v with integer entries: it spans the same ray,
    # so every sign below is unchanged
    scale = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (scale // x.denominator) for x in v)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _ray_count(triangles) -> int:
    """Signed number of image triangles met by a ray from 0.

    ``triangles`` are triples of integer image vectors forming a closed
    surface.  The ray t d, t > 0, meets the triangle (a, b, c) inside
    exactly when d = la + mb + nc with l, m, n > 0; with D = det[a b c]
    these coefficients are det[d b c]/D, det[a d c]/D and det[a b d]/D.
    Directions d = (1, k, k^2) are tried for k = 1, 2, ... until one
    meets no image vertex or edge and lies in no flat triangle's span.
    """
    prepared = []
    for a, b, c in triangles:
        normals = (_cross(b, c), _cross(c, a), _cross(a, b))
        det = _dot(a, normals[0])
        if det == 0:
            plane = next((n for n in normals if any(n)), None)
            if plane is not None:
                # a, b, c span a plane, and these are the coefficients of
                # their one linear relation
                weights = [_dot(n, plane) for n in normals]
                meets_origin = min(weights) >= 0 or max(weights) <= 0
            else:
                # a, b, c lie on one line through 0; the span is cut out
                # by the rows of the cross-product matrix of a
                meets_origin = min(_dot(a, b), _dot(b, c), _dot(c, a)) < 0
                normals = ((0, a[2], -a[1]), (-a[2], 0, a[0]),
                           (a[1], -a[0], 0))
            if meets_origin:
                raise ArithmeticError("boundary image passes through 0")
        prepared.append((det, normals))

    for k in range(1, MAX_RAYS + 1):
        d = (1, k, k * k)
        count = 0
        for det, normals in prepared:
            s = [_dot(d, n) for n in normals]
            if det == 0:
                if not any(s):
                    break  # d lies in the span of a flat triangle
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


def _degree_dim3(g, radius: Fraction) -> int:
    accepted, cache = _refined_octahedron(g, radius)
    direction = {p: _integer_direction(img) for p, img in cache.items()}
    return _ray_count([tuple(direction[p] for p in tri)
                       for tri in _closed_surface(accepted, cache)])


def brouwer_degree(g, dim: int, radius) -> int:
    """Degree of g around 0 over a boundary enclosing the radius-ball.

    g maps a list of ``dim`` Fractions to a list of ``dim`` Fractions and
    must be nonvanishing on the enclosing boundary polytope.  dim 1 is a
    sign comparison at the two endpoints, dim 2 the signed crossing count
    of the positive x-axis by the refined image polygon, dim 3 the signed
    count of triangles of the refined and closed image surface met by a
    ray from 0.  All three are exact integer counts; the boundary between
    samples is not certified.
    """
    r = Fraction(radius)
    if r <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if dim == 1:
        return _degree_dim1(g, r)
    if dim == 2:
        return _degree_dim2(g, r)
    if dim == 3:
        return _degree_dim3(g, r)
    raise ValueError(f"degree computation supports dim 1..3, got {dim}")
