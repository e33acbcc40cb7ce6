"""Finite-dimensional reduction of maps f = l + c and their degree.

The infinite-dimensional picture: l linear Fredholm of index 0, c
compact, and preimages of bounded sets bounded.  Pick a subspace V of
the target that contains a complement of im(l) and comes within epsilon
of every value of c; then f restricted to l^-1(V), followed by
projection to V, carries the same degree as f itself, with an
orientation correction from the complementary linear part.  This module
executes that construction in ambient dimension at most 4, reduced
dimension at most 3, entirely in exact rational arithmetic except for
the certified interval work inside brouwer_degree.

Bases are handled as lists of vectors (lists of Fractions).  Every basis
used internally is orthogonalized and rescaled so each vector has
squared length within [8/9, 9/8]; the scale factor is found with one
float square root but applied as an exact rational, so no floating
point ever enters a computed value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .degree import brouwer_degree
from .linalg import (
    det,
    gram_schmidt,
    nullspace,
    transpose,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)
from .rational import format_rational, parse_rational

__all__ = [
    "PolynomialMap",
    "PiecewisePolynomialMap",
    "ReductionProblem",
    "DegreeReport",
    "MissVerdict",
    "StabilityVerdict",
    "ProperDemoReport",
    "builtin_compact",
    "compact_from_json",
    "halton_ball",
    "choose_reduction_subspace",
    "verify_miss_condition",
    "reduce_and_degree",
    "stability_check",
    "proper_not_bounded_demo",
]


# -- compact part evaluators ---------------------------------------------


def _strict_int(x, what):
    # JSON floats and booleans are refused, never truncated by int()
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {type(x).__name__} {x!r}")
    return x


class PolynomialMap:
    """Exact polynomial map Q^m -> Q^k.

    components[j] is a list of (coefficient, exponent tuple) terms; the
    j-th output is the sum of coeff * prod(x_i ** e_i).
    """

    def __init__(self, input_dim, components):
        self.input_dim = input_dim
        self.components = [
            [(Fraction(c), tuple(_strict_int(e, "exponent") for e in powers))
             for c, powers in comp]
            for comp in components
        ]
        for comp in self.components:
            for _, powers in comp:
                if len(powers) != input_dim or any(e < 0 for e in powers):
                    raise ValueError(f"bad exponent tuple {powers}")

    def __call__(self, x):
        out = []
        for comp in self.components:
            total = Fraction(0)
            for coeff, powers in comp:
                term = coeff
                for xi, e in zip(x, powers):
                    if e:
                        term *= Fraction(xi) ** e
                total += term
            out.append(total)
        return out

    def to_json(self):
        return {
            "components": [
                [[format_rational(c), list(p)] for c, p in comp]
                for comp in self.components
            ]
        }


class PiecewisePolynomialMap:
    """First-match piecewise polynomial: pieces are (threshold, map) pairs
    and a piece applies when |x|^2 <= threshold (None matches always).
    Continuity across thresholds is the author's responsibility.
    """

    def __init__(self, pieces):
        self.pieces = []
        for threshold, poly in pieces:
            t = None if threshold is None else Fraction(threshold)
            self.pieces.append((t, poly))
        if not self.pieces:
            raise ValueError("need at least one piece")

    def __call__(self, x):
        norm2 = sum(Fraction(xi) ** 2 for xi in x)
        for threshold, poly in self.pieces:
            if threshold is None or norm2 <= threshold:
                return poly(x)
        raise ValueError(f"no piece covers |x|^2 = {norm2}")

    def covers_norm2(self, norm2_bound: Fraction) -> bool:
        return any(t is None or t >= norm2_bound for t, _ in self.pieces)

    def to_json(self):
        return {
            "pieces": [
                {
                    "if_norm2_le": None if t is None else format_rational(t),
                    **poly.to_json(),
                }
                for t, poly in self.pieces
            ]
        }


def builtin_compact(name, dim, params=None):
    """Registered compact parts: "zero", "constant" (takes a vector),
    and "complex_square_minus_one" (z^2 - 1 on R^2).
    """
    params = params or {}
    if name == "zero":
        m = PolynomialMap(dim, [[] for _ in range(dim)])
    elif name == "constant":
        vector = [Fraction(v) for v in params["vector"]]
        m = PolynomialMap(
            dim, [[(v, (0,) * dim)] for v in vector]
        )
    elif name == "complex_square_minus_one":
        if dim != 2:
            raise ValueError("complex_square_minus_one needs dimension 2")
        m = PolynomialMap(
            2,
            [
                [(Fraction(1), (2, 0)), (Fraction(-1), (0, 2)), (Fraction(-1), (0, 0))],
                [(Fraction(2), (1, 1))],
            ],
        )
    else:
        raise ValueError(f"unknown builtin compact part {name!r}")
    m.builtin_name = name
    m.builtin_params = params
    return m


def compact_from_json(obj, input_dim):
    if "builtin" in obj:
        params = {k: v for k, v in obj.items() if k != "builtin"}
        if "vector" in params:
            params["vector"] = [parse_rational(v) for v in params["vector"]]
        return builtin_compact(obj["builtin"], input_dim, params)
    if "pieces" in obj:
        pieces = []
        for piece in obj["pieces"]:
            t = piece.get("if_norm2_le")
            threshold = None if t is None else parse_rational(t)
            comps = [
                [(parse_rational(c), tuple(p)) for c, p in comp]
                for comp in piece["components"]
            ]
            pieces.append((threshold, PolynomialMap(input_dim, comps)))
        return PiecewisePolynomialMap(pieces)
    if "components" in obj:
        comps = [
            [(parse_rational(c), tuple(p)) for c, p in comp]
            for comp in obj["components"]
        ]
        return PolynomialMap(input_dim, comps)
    raise ValueError("compact_part must give a builtin, pieces, or components")


def compact_to_json(c):
    name = getattr(c, "builtin_name", None)
    if name is not None:
        out = {"builtin": name}
        params = getattr(c, "builtin_params", {})
        if "vector" in params:
            out["vector"] = [format_rational(Fraction(v)) for v in params["vector"]]
        return out
    return c.to_json()


# -- the problem ----------------------------------------------------------


@dataclass(frozen=True)
class ReductionProblem:
    """f = linear_part + compact_part on R^domain_dim -> R^target_dim,
    with the author's certificate that |f(x)| >= 1 once |x| >= bound_radius.

    The compact part must be evaluable on the ball of radius
    2 * bound_radius: net construction and boundary work sample there.
    """

    domain_dim: int
    target_dim: int
    linear_part: tuple
    compact_part: object
    bound_radius: Fraction

    def __init__(self, domain_dim, target_dim, linear_part, compact_part,
                 bound_radius):
        if not 1 <= domain_dim <= 4 or not 1 <= target_dim <= 4:
            raise ValueError("dimensions must be between 1 and 4")
        rows = tuple(
            tuple(Fraction(x) for x in row) for row in linear_part
        )
        if len(rows) != target_dim or any(len(r) != domain_dim for r in rows):
            raise ValueError(
                f"linear_part must be {target_dim}x{domain_dim}"
            )
        r = Fraction(bound_radius)
        if r <= 0:
            raise ValueError("bound_radius must be positive")
        if hasattr(compact_part, "covers_norm2"):
            if not compact_part.covers_norm2(4 * r * r):
                raise ValueError(
                    "compact_part does not cover the ball of radius 2R"
                )
        object.__setattr__(self, "domain_dim", domain_dim)
        object.__setattr__(self, "target_dim", target_dim)
        object.__setattr__(self, "linear_part", rows)
        object.__setattr__(self, "compact_part", compact_part)
        object.__setattr__(self, "bound_radius", r)

    def f(self, x):
        lx = [vec_dot(list(row), list(x)) for row in self.linear_part]
        return vec_add(lx, [Fraction(v) for v in self.compact_part(x)])

    def index(self) -> int:
        return self.domain_dim - self.target_dim

    @classmethod
    def from_json(cls, obj) -> "ReductionProblem":
        linear = [
            [parse_rational(x) for x in row] for row in obj["linear_part"]
        ]
        domain_dim = _strict_int(obj["domain_dim"], "domain_dim")
        return cls(
            domain_dim=domain_dim,
            target_dim=_strict_int(obj["target_dim"], "target_dim"),
            linear_part=linear,
            compact_part=compact_from_json(obj["compact_part"], domain_dim),
            bound_radius=parse_rational(str(obj["bound_radius"])),
        )

    def to_json(self):
        return {
            "domain_dim": self.domain_dim,
            "target_dim": self.target_dim,
            "linear_part": [
                [format_rational(x) for x in row] for row in self.linear_part
            ],
            "compact_part": compact_to_json(self.compact_part),
            "bound_radius": format_rational(self.bound_radius),
        }


@dataclass(frozen=True)
class DegreeReport:
    subspace_V: tuple
    reduced_dim: int
    degree: int
    epsilon: Fraction


@dataclass(frozen=True)
class MissVerdict:
    ok: bool
    worst_distance_squared: Fraction
    samples_checked: int


@dataclass(frozen=True)
class StabilityVerdict:
    degree_small: int
    degree_large: int
    equal: bool


# -- sampling and bases -----------------------------------------------------

_HALTON_BASES = (2, 3, 5, 7)


def _radical_inverse(i: int, base: int) -> Fraction:
    num, denom = 0, 1
    while i:
        num = num * base + (i % base)
        denom *= base
        i //= base
    return Fraction(num, denom)


def halton_ball(dim: int, radius, count: int, max_attempts: int = 8192):
    """First ``count`` Halton cube points that land in the ball, exact
    rational coordinates, deterministic.  Always includes the origin.
    """
    r = Fraction(radius)
    points = [[Fraction(0)] * dim]
    i = 1
    while len(points) < count:
        if i > max_attempts:
            raise ValueError("sampling budget exceeded")
        p = [
            r * (2 * _radical_inverse(i, _HALTON_BASES[k]) - 1)
            for k in range(dim)
        ]
        if vec_dot(p, p) <= r * r:
            points.append(p)
        i += 1
    return points


def _unit_rescale(v):
    # exact rational rescale into 8/9 <= |v|^2 <= 9/8; the float sqrt only
    # guides the choice of the (exact) scale factor
    q = vec_dot(v, v)
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    s = Fraction(1, 2 ** e) if e >= 0 else Fraction(2 ** (-e))
    q0 = q * s * s
    t = Fraction(1 / math.sqrt(float(q0))).limit_denominator(10 ** 6)
    scale = s * t
    q2 = q * scale * scale
    if not Fraction(8, 9) <= q2 <= Fraction(9, 8):
        raise ArithmeticError(f"conditioning failed: |v|^2 rescaled to {q2}")
    return vec_scale(scale, v)


def _prepared_basis(vectors):
    return [_unit_rescale(b) for b in gram_schmidt(vectors)]


def _project_coeffs(orth_basis, y):
    return [vec_dot(y, b) / vec_dot(b, b) for b in orth_basis]


def _project(orth_basis, y):
    out = [Fraction(0)] * len(y)
    for b in orth_basis:
        out = vec_add(out, vec_scale(vec_dot(y, b) / vec_dot(b, b), b))
    return out


def _complement_basis(orth_basis, dim):
    if not orth_basis:
        return _prepared_basis([[Fraction(int(i == j)) for j in range(dim)]
                                for i in range(dim)])
    return _prepared_basis(nullspace([list(b) for b in orth_basis]))


def _coker_complement(p: ReductionProblem):
    # orthogonal complement of im(l): nullspace of l^T
    lt = transpose([list(r) for r in p.linear_part])
    return _prepared_basis(nullspace(lt))


def _preimage_basis(p: ReductionProblem, v_basis, u_basis):
    # l^-1(V) = kernel of x -> (projections of l x onto V-perp)
    rows = [
        [vec_dot(u, [row[j] for row in p.linear_part]) for j in range(p.domain_dim)]
        for u in u_basis
    ]
    if not rows:
        return _prepared_basis(
            [[Fraction(int(i == j)) for j in range(p.domain_dim)]
             for i in range(p.domain_dim)]
        )
    return _prepared_basis(nullspace(rows))


def _span_samples(basis, radius, count, ambient_dim):
    """Deterministic sample points of span(basis) with |x| <= radius."""
    if not basis:
        return [[Fraction(0)] * ambient_dim]
    dim = len(basis)
    # |x|^2 >= (8/9)|t|^2, so |t| <= (9/8)^(1/2) radius < (17/16) radius
    t_radius = Fraction(17, 16) * Fraction(radius)
    points = []
    i = 1
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 16 * count + 8192:
            break
        t = [
            t_radius * (2 * _radical_inverse(i, _HALTON_BASES[k]) - 1)
            for k in range(dim)
        ]
        i += 1
        x = [Fraction(0)] * len(basis[0])
        for tk, b in zip(t, basis):
            x = vec_add(x, vec_scale(tk, b))
        if vec_dot(x, x) <= Fraction(radius) ** 2:
            points.append(x)
    points.append([Fraction(0)] * len(basis[0]))
    return points


# -- the reduction operations ------------------------------------------------


def choose_reduction_subspace(p: ReductionProblem, epsilon=Fraction(1, 4),
                              samples: int = 128):
    """Basis of V = span(complement of im(l), epsilon-net of the sampled
    compact-part image).

    Net construction is greedy: while some sampled value of c sits
    farther than epsilon from span(V), the worst offender is adjoined.
    Working with distance to the span (rather than to finitely many
    centers) is what the miss margin actually consumes, and it needs at
    most target_dim adjoins.  Samples are Halton points in the ball of
    radius 2R, a superset of the region the degree computation touches.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= Fraction(1, 4):
        raise ValueError(f"epsilon must be in (0, 1/4], got {epsilon}")
    basis = _coker_complement(p)
    sample_points = halton_ball(p.domain_dim, 2 * p.bound_radius, samples)
    images = [[Fraction(v) for v in p.compact_part(x)] for x in sample_points]
    while True:
        worst_dist2, worst = Fraction(0), None
        for img in images:
            resid = vec_sub(img, _project(basis, img))
            dist2 = vec_dot(resid, resid)
            if dist2 > worst_dist2:
                worst_dist2, worst = dist2, img
        if worst is None or worst_dist2 <= eps * eps:
            return [list(b) for b in basis]
        basis = _prepared_basis([list(b) for b in basis] + [worst])


def verify_miss_condition(p: ReductionProblem, v_basis,
                          samples: int = 160) -> MissVerdict:
    """Sampled check that f(l^-1(V) intersect ball(2R)) keeps distance at
    least 1/2 from the unit sphere of V-perp.

    The distance test is exact: dist^2 >= 1/4 rearranges to
    (|y|^2 + 3/4)^2 >= 4 |pr_perp y|^2 with both sides rational.  The
    reported worst distance-squared is a certified rational lower bound
    (distance itself involves a square root).
    """
    b_v = _prepared_basis(v_basis)
    b_u = _complement_basis(b_v, p.target_dim)
    b_vprime = _preimage_basis(p, b_v, b_u)
    points = _span_samples(b_vprime, 2 * p.bound_radius, samples, p.domain_dim)
    ok = True
    worst = None
    for x in points:
        y = p.f(x)
        y2 = vec_dot(y, y)
        pv = _project(b_v, y)
        perp2 = y2 - vec_dot(pv, pv)
        if (y2 + Fraction(3, 4)) ** 2 < 4 * perp2:
            ok = False
        # rational upper bound on |pr_perp y| for the distance report
        k = 10 ** 6
        upper = Fraction(
            math.isqrt((perp2.numerator * k * k) // perp2.denominator) + 1, k
        )
        dist2_lower = y2 + 1 - 2 * upper
        if worst is None or dist2_lower < worst:
            worst = dist2_lower
    return MissVerdict(ok=ok, worst_distance_squared=worst,
                       samples_checked=len(points))


def _sign(q) -> int:
    return (q > 0) - (q < 0)


def _columns_det(vectors):
    if not vectors:
        return Fraction(1)
    return det(transpose([list(v) for v in vectors]))


def reduce_and_degree(p: ReductionProblem, v_basis,
                      epsilon=Fraction(1, 4)) -> DegreeReport:
    """Restrict f to l^-1(V), project to V, and return the degree of the
    original map, orientation corrections included.

    With U = V-perp and U' = (l^-1 V)-perp, f is homotopic rel boundary
    to the product of pr_U l|_U' and the reduced map g = pr_V f|_V', so

        deg f = sign det[B_U'|B_V'] * sign det[B_U|B_V]
                * sign det(pr_U l|_U') * deg g,

    the two basis determinants converting the product orientation back to
    the standard ones.  V = {0} (possible only for invertible l with c
    landing near 0) short-circuits to sign(det l).
    """
    if p.index() != 0:
        raise ValueError(
            f"degree needs index 0, got index {p.index()}"
        )
    eps = Fraction(epsilon)
    miss = verify_miss_condition(p, v_basis)
    if not miss.ok:
        raise ValueError(
            "miss condition fails on samples; V is not admissible"
        )
    b_v = _prepared_basis(v_basis)
    v_dim = len(b_v)
    if v_dim == 0:
        d = det([list(r) for r in p.linear_part])
        if d == 0:
            raise ValueError("V = {0} requires invertible linear part")
        return DegreeReport(subspace_V=(), reduced_dim=0,
                            degree=_sign(d), epsilon=eps)
    if v_dim > 3:
        raise ValueError(f"reduced dimension {v_dim} exceeds 3")
    b_u = _complement_basis(b_v, p.target_dim)
    b_vprime = _preimage_basis(p, b_v, b_u)
    if len(b_vprime) != v_dim:
        raise ValueError(
            "V does not span the target together with im(l)"
        )
    b_uprime = _complement_basis(b_vprime, p.domain_dim)

    # matrix of pr_U l restricted to U' in the bases B_U' -> B_U
    a_cols = []
    for w in b_uprime:
        lw = [vec_dot(list(row), w) for row in p.linear_part]
        a_cols.append(_project_coeffs(b_u, lw))
    det_a = _columns_det(a_cols) if a_cols else Fraction(1)
    if det_a == 0:
        raise ValueError("pr_U l|_U' is singular; V is not admissible")

    s_domain = _sign(_columns_det(b_uprime + b_vprime))
    s_target = _sign(_columns_det(b_u + b_v))

    def g(t):
        x = [Fraction(0)] * p.domain_dim
        for tk, b in zip(t, b_vprime):
            x = vec_add(x, vec_scale(Fraction(tk), b))
        return _project_coeffs(b_v, p.f(x))

    g_radius = Fraction(17, 16) * p.bound_radius
    deg_g = brouwer_degree(g, v_dim, g_radius)
    degree = s_domain * s_target * _sign(det_a) * deg_g
    return DegreeReport(
        subspace_V=tuple(tuple(b) for b in b_v),
        reduced_dim=v_dim,
        degree=degree,
        epsilon=eps,
    )


def stability_check(p: ReductionProblem, v_basis, w_basis) -> StabilityVerdict:
    """Degrees computed through V and through a larger W must agree."""
    b_w = _prepared_basis(w_basis)
    for v in v_basis:
        resid = vec_sub([Fraction(x) for x in v], _project(b_w, v))
        if vec_dot(resid, resid) != 0:
            raise ValueError("V is not contained in span(W)")
    small = reduce_and_degree(p, v_basis)
    large = reduce_and_degree(p, w_basis)
    return StabilityVerdict(
        degree_small=small.degree,
        degree_large=large.degree,
        equal=small.degree == large.degree,
    )


# -- the properness counterexample demo ----------------------------------------


@dataclass(frozen=True)
class ProperDemoReport:
    N: int
    literal_spike_norms: tuple
    literal_unit_ball_hits: tuple
    corrected_preimage_norms: tuple
    corrected_value_norms: tuple
    literal_found_unbounded: bool
    corrected_found_unbounded: bool


def _bump(norm2: Fraction) -> Fraction:
    # phi(y) = max(0, 1 - 4|y|^2): continuous, supported in |y| <= 1/2,
    # phi(0) = 1
    value = 1 - 4 * norm2
    return value if value > 0 else Fraction(0)


def proper_not_bounded_demo(N: int) -> ProperDemoReport:
    """Probe the spike construction x -> x + sum (n-1) phi(x - n e_n) e_n.

    Taken literally the spikes push points outward: f(n e_n) = (2n-1) e_n,
    and a grid search along each spike axis finds no unit-ball preimages
    away from the origin (on spike n the outward coordinate is at least
    n - 1/2).  Flipping the sign of the spike sum produces the intended
    behavior: near each n e_n the value dips to 1 - 1/(16(n-1)) < 1, so
    the unit ball has preimage points of norm about n for every n <= N,
    an unbounded set as N grows.  Both facts are reported; no claim is
    made about which variant the construction intended.
    """
    if N < 3:
        raise ValueError(f"N must be at least 3, got {N}")

    def on_axis(n, t, sign):
        # f(t e_n) restricted to the only affected coordinate; spikes at
        # different indices never overlap (supports have radius 1/2)
        return t + sign * (n - 1) * _bump((t - n) ** 2)

    literal_spike_norms = []
    literal_hits = []
    for n in range(2, N + 1):
        literal_spike_norms.append(abs(on_axis(n, Fraction(n), +1)))
        for j in range(-16, 17):
            t = n + Fraction(j, 32)
            if abs(on_axis(n, t, +1)) < 1:
                literal_hits.append((n, t))

    corrected_x, corrected_f = [], []
    for n in range(2, N + 1):
        t_star = n - Fraction(1, 8 * (n - 1))
        value = on_axis(n, t_star, -1)
        assert value == 1 - Fraction(1, 16 * (n - 1))
        if abs(value) < 1:
            corrected_x.append(t_star)
            corrected_f.append(abs(value))

    monotone = all(
        a < b for a, b in zip(corrected_x, corrected_x[1:])
    )
    return ProperDemoReport(
        N=N,
        literal_spike_norms=tuple(literal_spike_norms),
        literal_unit_ball_hits=tuple(literal_hits),
        corrected_preimage_norms=tuple(corrected_x),
        corrected_value_norms=tuple(corrected_f),
        literal_found_unbounded=bool(literal_hits),
        corrected_found_unbounded=monotone and len(corrected_x) == N - 1,
    )
