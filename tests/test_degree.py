"""Degree tests against independent oracles.

For dim 2 the oracle is an exact signed-crossing count of the positive
x-axis by a uniformly and finely sampled image polygon, which shares
neither the refinement nor the ray count with the implementation under
test.  For linear maps the
oracle is the sign of the determinant.  For dim 3 the oracle is a float
Van Oosterom-Strackee sum of solid angles over the triangles the exact
ray count uses: it shares no arithmetic with the count.  The mesh of
Fraction vertices that the integer grid replaced is kept as the oracle
for the points the refinement hands to g.  The maps are written on
Fractions and handed to brouwer_degree through one adapter, ``exact``.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from problem_factory import det, random_problem
from swcohom import degree
from swcohom.degree import (
    MAX_DEPTH,
    MAX_RAYS,
    _closed_surface,
    _dot,
    _octahedron_faces,
    _ray_count,
    _refined,
    _square_segments,
    brouwer_degree,
)
from swcohom.reduction import PolynomialMap
from swcohom.rational import format_rational

F = Fraction


def exact(f):
    """f, a map of Fraction lists, under the contract of brouwer_degree:
    (X, S) goes to the numerators of f(X / S) over their lcm."""
    def g(X, S):
        image = [F(y) for y in f([F(x, S) for x in X])]
        den = math.lcm(*(y.denominator for y in image))
        return [y.numerator * (den // y.denominator) for y in image], den
    return g


def crossing_winding(images):
    # signed crossings of the positive x-axis by the closed polygon.
    # half-open convention so a vertex exactly on the axis counts once.
    w = 0
    for i, p in enumerate(images):
        q = images[(i + 1) % len(images)]
        cross = p[0] * q[1] - p[1] * q[0]
        if p[1] < 0 <= q[1] and cross > 0:
            w += 1
        elif p[1] >= 0 > q[1] and cross < 0:
            w -= 1
    return w


def winding_oracle(g, radius, per_edge=64):
    r = F(radius)
    corners = [(r, -r), (r, r), (-r, r), (-r, -r)]
    images = []
    for i in range(4):
        p, q = corners[i], corners[(i + 1) % 4]
        for j in range(per_edge):
            t = F(j, per_edge)
            point = [a + t * (b - a) for a, b in zip(p, q)]
            images.append(g(point))
    return crossing_winding(images)


def complex_poly(roots, conjugate_roots=()):
    # product of (z - r) factors and conjugated factors, exact over Q[i]
    def g(x):
        a, b = F(x[0]), F(x[1])
        ra, rb = F(1), F(0)
        for r0, r1 in roots:
            fa, fb = a - r0, b - r1
            ra, rb = ra * fa - rb * fb, ra * fb + rb * fa
        for r0, r1 in conjugate_roots:
            fa, fb = a - r0, -(b - r1)
            ra, rb = ra * fa - rb * fb, ra * fb + rb * fa
        return [ra, rb]

    return g


# -- anchors ------------------------------------------------------------


def test_identity_all_dims():
    for dim in (1, 2, 3):
        assert brouwer_degree(exact(lambda x: x), dim, 2) == 1


def test_antipodal_all_dims():
    for dim, expected in ((1, -1), (2, 1), (3, -1)):
        g = exact(lambda x: [-v for v in x])
        assert brouwer_degree(g, dim, 2) == expected


def test_dim1_degrees():
    assert brouwer_degree(exact(lambda x: [x[0] ** 3 - x[0]]), 1, 2) == 1
    assert brouwer_degree(exact(lambda x: [F(1) - x[0] * x[0]]), 1, 2) == 0
    assert brouwer_degree(exact(lambda x: [x[0] * x[0] + 1]), 1, 2) == 0


def test_dim1_zero_on_boundary():
    with pytest.raises(ValueError):
        brouwer_degree(exact(lambda x: [x[0] - 2]), 1, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_z_to_k(k):
    g = complex_poly([(0, 0)] * k)
    assert brouwer_degree(exact(g), 2, 2) == k
    assert winding_oracle(g, 2) == k


def test_z_squared_minus_one():
    g = complex_poly([(1, 0), (-1, 0)])
    assert brouwer_degree(exact(g), 2, 3) == 2
    assert winding_oracle(g, 3) == 2


def test_dim2_matches_crossing_oracle_on_mixed_maps():
    cases = [
        complex_poly([(F(1, 2), F(1, 2))]),
        complex_poly([], [(0, 0)]),                       # conj z: degree -1
        complex_poly([(1, 0)], [(-1, 0)]),                # one of each: 0
        complex_poly([(0, 1), (0, -1), (F(1, 2), 0)]),    # three roots
    ]
    for g in cases:
        assert brouwer_degree(exact(g), 2, 3) == winding_oracle(g, 3)


def test_zero_on_dim2_boundary_detected():
    # (2, 0) is the midpoint of the right edge, one of the first samples
    with pytest.raises(ValueError) as exc:
        brouwer_degree(exact(lambda x: [x[0] - 2, x[1]]), 2, 2)
    assert "(2, 0)" in str(exc.value)
    assert "Fraction(" not in str(exc.value)


def z_power_minus_one(m, dim):
    # z^m - 1 = sum_k C(m, k) x^(m-k) (iy)^k - 1, and x3 in dim 3
    pad = (0,) * (dim - 2)
    re, im = [(F(-1), (0, 0) + pad)], []
    for k in range(m + 1):
        term = (F(math.comb(m, k) * (-1) ** (k // 2)), (m - k, k) + pad)
        (im if k % 2 else re).append(term)
    return PolynomialMap(dim, [re, im] + [[(F(1), (0, 0, 1))]] * (dim - 2))


def sampled_misses(dim, m, reported):
    # the boundary between samples is not certified (ROADMAP item 2): the
    # sampled count reports a wrong degree for these; item 2 flips them
    return pytest.param(dim, m, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason=f"ROADMAP item 2: sampled count gives {reported}"))


@pytest.mark.parametrize("dim, m", [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
    (3, 1), (3, 2), (3, 4),
    sampled_misses(2, 6, 2), sampled_misses(2, 7, -1),
    sampled_misses(2, 8, 0),
    sampled_misses(3, 3, 1), sampled_misses(3, 5, 3),
    sampled_misses(3, 6, 2), sampled_misses(3, 7, -1),
    sampled_misses(3, 8, 0),
])
def test_degree_table_of_z_power_minus_one(dim, m):
    # the m roots of unity lie inside radius 2, each of local degree +1;
    # the map is handed over as its integer evaluator
    g = z_power_minus_one(m, dim).evaluate_scaled
    assert brouwer_degree(g, dim, 2) == m


# -- linear maps vs determinant sign -------------------------------------


def linear_map(m):
    return lambda x: [sum(F(mij) * xj for mij, xj in zip(row, x)) for row in m]


def test_linear_dim2_random_matrices():
    rng = random.Random(17)
    for _ in range(12):
        m = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        d = det(m)
        if d == 0:
            continue
        expected = 1 if d > 0 else -1
        assert brouwer_degree(exact(linear_map(m)), 2, 1) == expected
        assert winding_oracle(linear_map(m), 1) == expected


def test_linear_dim3_random_matrices():
    rng = random.Random(23)
    checked = 0
    while checked < 8:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        d = det(m)
        if d == 0:
            continue
        expected = 1 if d > 0 else -1
        assert brouwer_degree(exact(linear_map(m)), 3, 1) == expected
        checked += 1


# -- structural properties -------------------------------------------------


def test_additivity_over_separated_zeros():
    # (z - a)(conj z + conj-side a): local degrees +1 and -1, total 0
    g = complex_poly([(F(3, 2), 0)], [(F(-3, 2), 0)])
    assert brouwer_degree(exact(g), 2, 3) == 0
    # around each zero separately: translate it to the origin
    around_pos = lambda x: g([x[0] + F(3, 2), x[1]])
    around_neg = lambda x: g([x[0] - F(3, 2), x[1]])
    assert brouwer_degree(exact(around_pos), 2, F(1, 2)) == 1
    assert brouwer_degree(exact(around_neg), 2, F(1, 2)) == -1


def test_product_map_multiplies_degrees():
    g1 = lambda x: [x[0]]          # degree 1
    g2 = lambda x: [-x[0]]         # degree -1
    product = lambda x: [g1([x[0]])[0], g2([x[1]])[0]]
    d1 = brouwer_degree(exact(g1), 1, 2)
    d2 = brouwer_degree(exact(g2), 1, 2)
    assert brouwer_degree(exact(product), 2, 2) == d1 * d2


def test_dim3_two_clusters():
    # f(x) = ((x0-2)(x0+2), x1, x2): zeros at (±2, 0, 0), both local +1..
    # local degree at (2,0,0) has jacobian diag(4,1,1): +1; at (-2,0,0)
    # diag(-4,1,1): -1; total 0
    g = lambda x: [(x[0] - 2) * (x[0] + 2), x[1], x[2]]
    assert brouwer_degree(exact(g), 3, 4) == 0
    shifted = lambda x: g([x[0] + 2, x[1], x[2]])
    assert brouwer_degree(exact(shifted), 3, 1) == 1


def test_invalid_arguments():
    with pytest.raises(ValueError):
        brouwer_degree(exact(lambda x: x), 4, 1)
    with pytest.raises(ValueError):
        brouwer_degree(exact(lambda x: x), 2, 0)


@pytest.mark.parametrize("radius", [2.0, "2", True],
                         ids=["float", "string", "bool"])
def test_radius_must_be_exact(radius):
    # a float or a string stands for some other rational, and True is not
    # the radius 1; z^2 - 1 has degree 2 within radius 2
    g = exact(complex_poly([(1, 0), (-1, 0)]))
    with pytest.raises(TypeError,
                       match="^radius must be an int or a Fraction, got "):
        brouwer_degree(g, 2, radius)
    assert (brouwer_degree(g, 2, 2) == brouwer_degree(g, 2, F(2))
            == brouwer_degree(g, 2, (4, 2)) == 2)


# -- the Fraction mesh, kept as the oracle ----------------------------------


def fraction_midpoint(p, q):
    return tuple((a + b) / 2 for a, b in zip(p, q))


def fraction_square_segments(r):
    corners = [(r, -r), (r, r), (-r, r), (-r, -r)]
    points = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        points += [a, fraction_midpoint(a, b)]
    return list(zip(points, points[1:] + points[:1]))


def fraction_octahedron_faces(radius_l1):
    zero = F(0)
    faces = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                a = (s1 * radius_l1, zero, zero)
                b = (zero, s2 * radius_l1, zero)
                c = (zero, zero, s3 * radius_l1)
                faces.append((a, b, c) if s1 * s2 * s3 > 0 else (a, c, b))
    return faces


def fraction_split(cell):
    if len(cell) == 2:
        a, b = cell
        m = fraction_midpoint(a, b)
        return [(a, m), (m, b)]
    a, b, c = cell
    mab, mbc, mca = (fraction_midpoint(a, b), fraction_midpoint(b, c),
                     fraction_midpoint(c, a))
    return [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]


def fraction_evaluate(g, point):
    # a positive integer multiple of g(point), as brouwer_degree read the
    # Fraction images of g before g returned integer numerators
    image = [F(y) for y in g(point)]
    if not any(image):
        coords = ", ".join(format_rational(x) for x in point)
        raise ValueError(f"map vanishes on the boundary at ({coords})")
    scale = math.lcm(*(y.denominator for y in image))
    return tuple(y.numerator * (scale // y.denominator) for y in image)


def fraction_mesh_degree(g, dim, radius):
    """The degree over a mesh of Fraction vertices: midpoints computed in
    Fractions, the image cache keyed by Fraction tuples, and an edge
    walked in the closure while its midpoint was evaluated."""
    r = F(radius)
    cells = (fraction_square_segments(r) if dim == 2
             else fraction_octahedron_faces(7 * r / 4))
    cache = {}
    pending, accepted = list(cells), []
    while pending:
        cell = pending.pop()
        for p in cell:
            if p not in cache:
                cache[p] = fraction_evaluate(g, list(p))
        images = [cache[p] for p in cell]
        if all(_dot(u, v) > 0 for u, v in itertools.combinations(images, 2)):
            accepted.append(cell)
        else:
            pending.extend(fraction_split(cell))
    if dim == 3:
        def chain(p, q):
            m = fraction_midpoint(p, q)
            return chain(p, m) + chain(m, q) if m in cache else [p]

        closed = []
        for a, b, c in accepted:
            ring = chain(a, b) + chain(b, c) + chain(c, a)
            closed += [(ring[0], ring[i], ring[i + 1])
                       for i in range(1, len(ring) - 1)]
        accepted = closed
    return _ray_count([tuple(cache[p] for p in cell) for cell in accepted])


def recorded(g):
    calls = []

    def wrapper(*args):
        calls.append(args)
        return g(*args)
    return wrapper, calls


def assert_same_points_as_fraction_mesh(g, dim, radius):
    g_grid, grid_calls = recorded(exact(g))
    g_oracle, oracle_calls = recorded(g)
    assert (brouwer_degree(g_grid, dim, radius)
            == fraction_mesh_degree(g_oracle, dim, radius))
    # g receives int coordinates over an int S > 0, at the mesh's points
    assert all(type(x) is int for X, _ in grid_calls for x in X)
    assert all(type(S) is int and S > 0 for _, S in grid_calls)
    assert ([[F(x, S) for x in X] for X, S in grid_calls]
            == [list(p) for p, in oracle_calls])


def refined(g, dim, radius):
    """The integer-grid refinement brouwer_degree runs on the Fraction map
    g, and its unit."""
    r = F(radius)
    if dim == 2:
        unit = r / 2 ** MAX_DEPTH
        cells = _square_segments()
    else:
        unit = 7 * r / 4 / 2 ** MAX_DEPTH
        cells = _octahedron_faces()
    # _refined takes the unit as a pair
    pair = (unit.numerator, unit.denominator)
    return _refined(exact(g), cells, pair), unit


# -- dim 2: the refined segments and the ray count -------------------------


def z_cubed_minus_one(x):
    return [x[0] ** 3 - 3 * x[0] * x[1] ** 2 - 1,
            3 * x[0] ** 2 * x[1] - x[1] ** 3]


def assert_closed_loop(segments):
    starts = Counter(p for p, _ in segments)
    ends = Counter(q for _, q in segments)
    assert set(starts.values()) == {1}
    assert starts == ends


def segment_lengths(segments, unit):
    return {(abs(p[0] - q[0]) + abs(p[1] - q[1])) * unit for p, q in segments}


def test_dim2_segments_close_up_under_uneven_refinement():
    g = complex_poly([(1, 0), (F(3, 2), 0)])
    (accepted, _, _), unit = refined(g, 2, 2)
    assert len(accepted) == 14
    assert len(segment_lengths(accepted, unit)) == 3
    assert_closed_loop(accepted)
    assert brouwer_degree(exact(g), 2, 2) == 2


@pytest.mark.parametrize("radius", [2, 3, 5])
def test_dim2_segments_close_up_under_even_refinement(radius):
    (accepted, _, _), unit = refined(z_cubed_minus_one, 2, radius)
    assert len(accepted) == 16
    assert segment_lengths(accepted, unit) == {F(radius, 2)}
    assert_closed_loop(accepted)
    assert brouwer_degree(exact(z_cubed_minus_one), 2, radius) == 3


@pytest.mark.parametrize("m", [[[2, -1], [1, 0]], [[0, 1], [1, 0]]])
def test_dim2_vertex_on_first_ray_moves_the_search_on(m):
    # both maps send the square corner (1, 1) onto the ray through (1, 1),
    # which is the first direction tried
    g = linear_map(m)
    (_, cache, _), _ = refined(g, 2, 1)
    assert any(img[0] == img[1] > 0 for img in cache.values())
    assert brouwer_degree(exact(g), 2, 1) == (1 if det(m) > 0 else -1)


# -- dim 3: the closed surface and the ray count ---------------------------


def z_squared_minus_one_x3(s):
    # (z^2 - 1, s x3): zeros at (+-1, 0, 0), degree 2 s
    return lambda x: [x[0] * x[0] - x[1] * x[1] - 1, 2 * x[0] * x[1],
                      s * x[2]]


def test_closed_surface_pairs_every_edge():
    (accepted, _, midpoints), _ = refined(z_squared_minus_one_x3(1), 3, 2)
    closed = _closed_surface(accepted, midpoints)
    # the refinement is not uniform, so the accepted triangles alone
    # leave hanging vertices that the closure has to pick up
    assert len(closed) > len(accepted)
    edges = Counter((tri[i], tri[(i + 1) % 3])
                    for tri in closed for i in range(3))
    assert set(edges.values()) == {1}
    assert all(edges[(q, p)] == 1 for p, q in edges)


def test_dim3_count_does_not_depend_on_the_ray():
    # a signed permutation of the target keeps every dot product, so the
    # refinement stays and only the ray moves; at radius 3 the accepted
    # triangles of (z^3 - 1, x3) leave cracks that some of these rays
    # pass through
    def g(x):
        re = x[0] ** 3 - 3 * x[0] * x[1] ** 2 - 1
        return [re, 3 * x[0] ** 2 * x[1] - x[1] ** 3, x[2]]

    base = brouwer_degree(exact(g), 3, 3)
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = [[signs[i] * (j == perm[i]) for j in range(3)]
                 for i in range(3)]
            moved = lambda x: [sum(a * y for a, y in zip(row, g(x)))
                               for row in m]
            assert brouwer_degree(exact(moved), 3, 3) == det(m) * base


@pytest.mark.parametrize("sign", [1, -1])
def test_vertex_on_first_ray_moves_the_search_on(sign):
    # the octahedron corner (sign 7/4, 0, 0) maps onto the ray through
    # (1, 1, 1), which is the first direction tried
    m = [[sign, 0, 0], [sign, 1, 0], [sign, 0, 1]]
    g = linear_map(m)
    (_, cache, _), _ = refined(g, 3, 1)
    assert any(tuple(img) == (img[0],) * 3 and img[0] > 0
               for img in cache.values())
    assert brouwer_degree(exact(g), 3, 1) == (1 if det(m) > 0 else -1)


def _solid_angle(a, b, c):
    # Van Oosterom-Strackee: tan(Omega/2) = det[a b c] / D
    a, b, c = ([float(x) for x in v] for v in (a, b, c))
    dot = lambda u, v: sum(x * y for x, y in zip(u, v))
    na, nb, nc = (math.sqrt(dot(v, v)) for v in (a, b, c))
    triple = (a[0] * (b[1] * c[2] - b[2] * c[1])
              - a[1] * (b[0] * c[2] - b[2] * c[0])
              + a[2] * (b[0] * c[1] - b[1] * c[0]))
    d = na * nb * nc + dot(a, b) * nc + dot(b, c) * na + dot(c, a) * nb
    return 2 * math.atan2(triple, d)


def assert_solid_angles_agree(g, radius):
    (accepted, cache, midpoints), _ = refined(g, 3, radius)
    degree = brouwer_degree(exact(g), 3, radius)
    for triangles in (accepted, _closed_surface(accepted, midpoints)):
        total = sum(_solid_angle(*(cache[p] for p in tri))
                    for tri in triangles)
        assert abs(total / (4 * math.pi) - degree) < 0.25
    return degree


@pytest.mark.parametrize("sign", [1, -1])
def test_dim3_count_matches_solid_angles_on_z_squared(sign):
    assert assert_solid_angles_agree(z_squared_minus_one_x3(sign), 2) == 2 * sign


def test_dim3_count_matches_solid_angles_on_factory_problems():
    rng = random.Random(31)
    for _ in range(8):
        p, expected = random_problem(rng, 3)
        assert assert_solid_angles_agree(p.f, F(*p.bound_radius)) == expected


def test_dim3_count_matches_solid_angles_on_linear_maps():
    rng = random.Random(37)
    checked = 0
    while checked < 6:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        d = det(m)
        if d == 0:
            continue
        assert assert_solid_angles_agree(linear_map(m), 1) == (1 if d > 0 else -1)
        checked += 1


# -- the integer grid against the Fraction mesh ----------------------------


def test_dim2_points_match_fraction_mesh():
    rng = random.Random(17)
    matrices = [[[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
                for _ in range(12)]
    cases = [(lambda x: x, 2), (lambda x: [-v for v in x], 2),
             (z_cubed_minus_one, 2), (z_cubed_minus_one, 3),
             (z_cubed_minus_one, 5),
             (complex_poly([(1, 0), (F(3, 2), 0)]), 2),
             (complex_poly([(1, 0), (-1, 0)]), 3),
             (complex_poly([(F(1, 2), F(1, 2))]), 3),
             (complex_poly([], [(0, 0)]), 3),
             (complex_poly([(1, 0)], [(-1, 0)]), 3),
             (complex_poly([(0, 1), (0, -1), (F(1, 2), 0)]), 3),
             (complex_poly([(F(3, 2), 0)], [(F(-3, 2), 0)]), 3),
             (linear_map([[2, -1], [1, 0]]), 1),
             (linear_map([[0, 1], [1, 0]]), 1)]
    cases += [(complex_poly([(0, 0)] * k), 2) for k in range(1, 6)]
    cases += [(linear_map(m), 1) for m in matrices if det(m)]
    for g, radius in cases:
        assert_same_points_as_fraction_mesh(g, 2, radius)


def test_dim3_points_match_fraction_mesh():
    def z_cubed_x3(x):
        return z_cubed_minus_one(x[:2]) + [x[2]]

    cases = [(lambda x: x, 2), (lambda x: [-v for v in x], 2),
             (z_squared_minus_one_x3(1), 2), (z_squared_minus_one_x3(-1), 2),
             (z_cubed_x3, 3),
             (lambda x: [(x[0] - 2) * (x[0] + 2), x[1], x[2]], 4),
             (linear_map([[1, 0, 0], [1, 1, 0], [1, 0, 1]]), 1),
             (linear_map([[-1, 0, 0], [-1, 1, 0], [-1, 0, 1]]), 1)]
    rng = random.Random(31)
    for _ in range(4):
        p, _ = random_problem(rng, 3)
        cases.append((p.f, F(*p.bound_radius)))
    for g, radius in cases:
        assert_same_points_as_fraction_mesh(g, 3, radius)


# -- the two refinement budgets ---------------------------------------------


@pytest.mark.parametrize("dim, zero, bound", [
    # (2, 2/3) on the right edge of the square of radius 2
    (2, (2, F(2, 3)), 8 + 2 * MAX_DEPTH),
    # (7/6, 7/6, 7/6) on a face of the octahedron of L1-radius 7/2
    (3, (F(7, 6),) * 3, 6 + 4 * MAX_DEPTH),
])
def test_zero_off_the_grid_trips_the_depth_budget(dim, zero, bound):
    # no dyadic midpoint reaches the zero, so the cells around it split
    # until one would leave the grid; a few evaluations per level
    g, calls = recorded(exact(lambda x: [a - b for a, b in zip(x, zero)]))
    with pytest.raises(ArithmeticError, match="refinement budget exceeded"):
        brouwer_degree(g, dim, 2)
    assert len(calls) <= bound


def test_cell_budget(monkeypatch):
    # z^3 - 1 needs 16 segments at radius 2 (see above)
    monkeypatch.setattr(degree, "MAX_CELLS", 15)
    g, calls = recorded(exact(z_cubed_minus_one))
    with pytest.raises(ArithmeticError, match="refinement budget exceeded"):
        brouwer_degree(g, 2, 2)
    assert len(calls) <= 16


def test_ray_count_refuses_an_image_through_origin():
    with pytest.raises(ArithmeticError):
        _ray_count([((1, 0, 0), (-1, 1, 0), (-1, -1, 0))])
    with pytest.raises(ArithmeticError):
        _ray_count([((1, 0, 0), (2, 0, 0), (-1, 0, 0))])
    with pytest.raises(ArithmeticError):
        _ray_count([((2, 1), (-4, -2))])


def test_ray_search_is_capped():
    # the image vertex (1, k, k^2) blocks the k-th direction
    rays = [(1, k, k * k) for k in range(1, MAX_RAYS + 1)]
    with pytest.raises(ArithmeticError):
        _ray_count([(v, v, v) for v in rays])
    assert _ray_count([(v, v, v) for v in rays[:-1]]) == 0
    # and (1, k) in dimension 2
    rays = [(1, k) for k in range(1, MAX_RAYS + 1)]
    with pytest.raises(ArithmeticError):
        _ray_count([(v, v) for v in rays])
    assert _ray_count([(v, v) for v in rays[:-1]]) == 0
