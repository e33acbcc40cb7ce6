"""Finite-dimensional reduction of maps f = l + c and their degree.

The infinite-dimensional picture: l linear Fredholm of index 0, c
compact, and preimages of bounded sets bounded.  Pick a subspace V of
the target that contains a complement of im(l) and comes within epsilon
of every value of c; then f restricted to l^-1(V), followed by
projection to V, carries the same degree as f itself, with an
orientation correction from the complementary linear part.  This module
executes that construction in ambient dimension at most 4, reduced
dimension at most 3, entirely in exact rational arithmetic.

Every rational is a pair (numerator, denominator) of ints in lowest
terms with a positive denominator, and every number given in Python is
an int, a Fraction or such a pair, read by rational._pair; no Fraction
is built but by ReductionProblem.f and proper_not_bounded_demo.  Bases
are handled as lists of vectors (lists of pairs).  The bases
of V (printed in the report) and of V' = l^-1(V) (the miss check samples
in its coordinates) are orthogonalized and rescaled so each vector has
squared length within [8/9, 9/8]; the scale factor is found with one
float square root but applied as an exact rational, so no floating point
ever enters a computed value.  V-perp is only orthogonalized, as |y|^2,
|pr_perp y|^2 and the V coordinates of y do not depend on its scale, and
the orientation's (V')-perp is a raw nullspace: a change of its basis by
M multiplies both orientation determinants by det M.

For a chosen V the reduced map is prepared once: y(t) = f(B_V' t), one
integer _Poly, as a PolynomialMap holds its own, in the coordinates t of
l^-1(V) per piece of the compact part, whose components are the
coordinates of y along V, then along V-perp.  That one kernel serves
the miss check, which weighs the squared integer numerators into |y|^2
and |pr_perp y|^2, and the degree, which takes the V coordinates, so
`reduce` checks the miss condition once.

Every evaluation is of a walk: points over one denominator S, one column
of integer numerators per coordinate.  _split_walk parts the points by
the piece that applies, and _Poly.evaluate_walk evaluates each part a
monomial column at a time.  The net and the miss check each sample one
Halton walk (_halton_ball_scaled); the degree, ReductionProblem.f and
evaluate_scaled evaluate one point as the walk [[x] for x in X].
"""

import math

from .degree import _dot, brouwer_degree
from .linalg import det, nullspace, transpose
from .rational import (_expect, _format_pair, _keys, _lowest, _pair,
                       _parse_pair, _Record, _strict_int)

__all__ = [
    "PolynomialMap",
    "PiecewisePolynomialMap",
    "ReductionProblem",
    "DegreeReport",
    "MissVerdict",
    "StabilityVerdict",
    "ProperDemoReport",
    "builtin_compact",
    "choose_reduction_subspace",
    "verify_miss_condition",
    "reduce_and_degree",
    "stability_check",
    "proper_not_bounded_demo",
]


# -- compact part evaluators ---------------------------------------------


def _integer_rows(vectors):
    # rows over the least common denominator d of all their entries; d > 0
    # scales every row alike, so the rows have the vectors' kernel and,
    # square, the sign of their det
    d = math.lcm(*(den for v in vectors for _, den in v))
    return [[num * (d // den) for num, den in v] for v in vectors], d


def _over_common_denominator(x):
    # x = X / S with integer X and the least common denominator S, for
    # coordinates given as _pair reads them
    (row,), s = _integer_rows([[_pair(v, "a coordinate") for v in x]])
    return row, s


class _Poly:
    """Integer polynomial map: output j is the sum of c x^e over
    components[j] = {exponent tuple e: int c}, over den > 0.  Its degree m
    is the highest |e| among the keys, and evaluation pads each term to it
    with S^(m - |e|).  The terms are grouped once by monomial, its nonzero
    (i, e_i) -> [(j, c, m - |e|)]."""

    def __init__(self, components, den):
        self.components, self.den = components, den
        self.degree = degree = max(
            (sum(e) for comp in components for e in comp), default=0)
        self._monomials = monomials = {}
        for j, comp in enumerate(components):
            for e, c in comp.items():
                if c:
                    factors = tuple((i, k) for i, k in enumerate(e) if k)
                    monomials.setdefault(factors, []).append(
                        (j, c, degree - sum(e)))

    def evaluate_walk(self, columns, S):
        """Values at every point of a walk, x_i = columns[i][j] / S at point
        j for integers and S > 0, as integer numerators over one common
        denominator: (one column of numerators per component, den S^m).
        A single point X is the walk [[x] for x in X].

        Column by column: each power column (variable, exponent) is built
        once, then each monomial's column once, and every term of that
        monomial adds it times its coefficient, into which its power of S
        is folded.  A walk in no variables is the origin alone.
        """
        m = self.degree
        s_pow = [1]
        for _ in range(m):
            s_pow.append(s_pow[-1] * S)
        ones = [1] * (len(columns[0]) if columns else 1)
        powers = [[ones, col] for col in columns]
        totals = [[0] * len(ones) for _ in self.components]
        for factors, uses in self._monomials.items():
            col = ones
            for i, e in factors:
                row = powers[i]
                while len(row) <= e:
                    row.append([a * b for a, b in zip(row[-1], row[1])])
                col = row[e] if col is ones else [
                    a * b for a, b in zip(col, row[e])]
            for j, c, slack in uses:
                c *= s_pow[slack]
                totals[j] = [t + c * a for t, a in zip(totals[j], col)]
        return totals, self.den * s_pow[m]

    def substitute(self, lift_rows, d):
        """The map at x = sum_k t_k L_k / d, for integer rows L_k and
        d > 0, as a _Poly in t divided by its content: over d^m, c x^e is
        c d^(m - |e|) (sum_k t_k L_k)^e, each power expanded once."""
        m, powers, out = self.degree, {}, []

        def power(e):
            i = next((i for i, ei in enumerate(e) if ei), None)
            if i is not None and e not in powers:
                terms = powers[e] = {}
                for key, v in power(e[:i] + (e[i] - 1,) + e[i + 1:]).items():
                    for j, row in enumerate(lift_rows):
                        if row[i]:
                            up = key[:j] + (key[j] + 1,) + key[j + 1:]
                            terms[up] = terms.get(up, 0) + v * row[i]
            return powers[e] if i is not None else {(0,) * len(lift_rows): 1}

        for comp in self.components:
            out.append({})
            for e, c in comp.items():
                c *= d ** (m - sum(e))
                for key, v in power(e).items() if c else ():
                    out[-1][key] = out[-1].get(key, 0) + c * v
        g = math.gcd(self.den * d ** m, *(v for comp in out for v in comp.values()))
        out = [{key: v // g for key, v in comp.items() if v} for comp in out]
        return _Poly(out, self.den * d ** m // g)


class PolynomialMap:
    """Exact polynomial map Q^m -> Q^k.

    components[j] is a list of (coefficient, exponent tuple) terms; the
    j-th output is the sum of coeff * prod(x_i ** e_i).  A coefficient
    is given as an int, a Fraction or a pair and kept as a pair
    (numerator, denominator) in lowest terms, and evaluation runs on one
    _Poly of the terms over their least common denominator.
    """

    def __init__(self, input_dim, components):
        self.input_dim = input_dim
        self.components = [[(_pair(c, "a coefficient"),
                              tuple(_strict_int(e, "exponent") for e in powers))
                             for c, powers in comp] for comp in components]
        den = math.lcm(*(den for comp in self.components for (_, den), _ in comp))
        ints = [{} for _ in self.components]
        for comp, terms in zip(self.components, ints):
            for (num, c_den), powers in comp:
                if len(powers) != input_dim or any(e < 0 for e in powers):
                    raise ValueError(f"bad exponent tuple {powers}")
                terms[powers] = terms.get(powers, 0) + num * (den // c_den)
        self._poly = _Poly(ints, den)

    def evaluate_scaled(self, X, S):
        """Values at x = X/S, for integers X and S > 0, as integer
        numerators over one common denominator: (numerators, denominator),
        the _Poly's walk of the one point."""
        nums, den = self._poly.evaluate_walk([[x] for x in X], S)
        return [a for a, in nums], den

    @property
    def pieces(self):
        """The one piece of a compact part that is a single polynomial."""
        return ((None, self),)

    def to_json(self):
        return {
            "components": [
                [[_format_pair(*c), list(p)] for c, p in comp]
                for comp in self.components
            ]
        }


class PiecewisePolynomialMap:
    """First-match piecewise polynomial: pieces are (threshold, map) pairs
    and a piece applies when |x|^2 <= threshold (None matches always).
    A threshold is kept as a pair, as PolynomialMap keeps coefficients.
    Continuity across thresholds is the author's responsibility.
    """

    def __init__(self, pieces):
        self.pieces = []
        for threshold, poly in pieces:
            t = None if threshold is None else _pair(threshold, "a threshold")
            self.pieces.append((t, poly))
        if not self.pieces:
            raise ValueError("need at least one piece")

    def evaluate_scaled(self, X, S):
        """The piece that _split_walk picks for the one point x = X/S,
        evaluated as PolynomialMap.evaluate_scaled."""
        (poly, _, _), = _split_walk(self.pieces, [1] * len(X),
                                    [[x] for x in X], S * S)
        return poly.evaluate_scaled(X, S)

    def to_json(self):
        return {
            "pieces": [
                {
                    "if_norm2_le": None if t is None else _format_pair(*t),
                    **poly.to_json(),
                }
                for t, poly in self.pieces
            ]
        }


def _split_walk(pieces, weights, columns, den):
    """The points of a walk (columns, S) by the first of the pieces
    (threshold or None, map) whose threshold t has |x|^2 <= t, for |x|^2 =
    sum_k w_k X_k^2 / den: (map, point indices, their columns) per piece
    that some point falls to, in the order of pieces.  This is the one
    first-match rule of a piecewise map; a point that no piece covers is
    a ValueError that names its |x|^2.
    """
    size = len(columns[0]) if columns else 1
    if pieces[0][0] is None:
        return [(pieces[0][1], range(size), columns)]
    lengths2 = [0] * size
    for w, col in zip(weights, columns):
        lengths2 = [n + w * a * a for n, a in zip(lengths2, col)]
    rest, groups = range(size), []
    for threshold, poly in pieces:
        if threshold is None:
            inside, rest = rest, []
        else:
            t_num, t_den = threshold
            inside = [j for j in rest if lengths2[j] * t_den <= t_num * den]
            rest = [j for j in rest if lengths2[j] * t_den > t_num * den]
        if inside:
            groups.append((poly, inside, columns if len(inside) == size else
                           [[col[j] for j in inside] for col in columns]))
        if not rest:
            return groups
    raise ValueError("no piece covers |x|^2 = "
                     f"{_format_pair(*_lowest(lengths2[rest[0]], den))}")


def builtin_compact(name, dim, params=None, target_dim=None):
    """Registered compact parts on R^dim: "zero" (to R^target_dim,
    R^dim when not given), "constant" (takes a vector, its only
    parameter), and "complex_square_minus_one" (z^2 - 1 on R^2).
    """
    if name not in ("zero", "constant", "complex_square_minus_one"):
        raise ValueError(f"unknown builtin compact part {name!r}")
    params = _keys(params or {}, ("vector",) if name == "constant" else (),
                   (), f"builtin {name!r}")
    if name == "zero":
        return PolynomialMap(dim, [[] for _ in range(target_dim or dim)])
    if name == "constant":
        vector = [_pair(v, "a constant vector entry") for v in params["vector"]]
        return PolynomialMap(dim, [[(v, (0,) * dim)] for v in vector])
    if dim != 2:
        raise ValueError("complex_square_minus_one needs dimension 2")
    return PolynomialMap(2, [[(1, (2, 0)), (-1, (0, 2)), (-1, (0, 0))],
                             [(2, (1, 1))]])


def _polynomial_from_json(components, input_dim):
    comps = []
    for comp in _expect(components, list, "components"):
        terms = []
        for term in _expect(comp, list, "a component"):
            if type(term) is not list or len(term) != 2 or type(term[1]) is not list:
                raise ValueError(
                    f'a term must be ["num/den", [exponents]], got {term!r}')
            terms.append((_parse_pair(term[0]), tuple(term[1])))
        comps.append(terms)
    return PolynomialMap(input_dim, comps)


def _compact_from_json(obj, input_dim, target_dim):
    """The compact part of one JSON representation: a builtin with its own
    parameters, pieces, or components, and no other key.
    """
    _expect(obj, dict, "compact_part")
    if "builtin" in obj:
        params = {k: v for k, v in obj.items() if k != "builtin"}
        if "vector" in params:
            params["vector"] = [
                _parse_pair(v) for v in _expect(params["vector"], list, "vector")]
        return builtin_compact(obj["builtin"], input_dim, params, target_dim)
    if "pieces" in obj:
        pieces = []
        for piece in _expect(obj["pieces"], list, "pieces"):
            t = _keys(piece, ("components",), ("if_norm2_le",),
                      "a piece").get("if_norm2_le")
            threshold = None if t is None else _parse_pair(t)
            pieces.append(
                (threshold, _polynomial_from_json(piece["components"], input_dim)))
        compact_part, kind = PiecewisePolynomialMap(pieces), "pieces"
    elif "components" in obj:
        compact_part = _polynomial_from_json(obj["components"], input_dim)
        kind = "components"
    else:
        raise ValueError("compact_part must give a builtin, pieces, or components")
    _keys(obj, (kind,), (), f"compact_part with {kind}")
    return compact_part


# -- the problem ----------------------------------------------------------

# the highest total degree of a compact part; the reduced map's expansion
# and its integer evaluations grow with it
MAX_DEGREE = 64


def _check_dimensions(domain_dim, target_dim):
    _strict_int(domain_dim, "domain_dim")
    _strict_int(target_dim, "target_dim")
    if not 1 <= domain_dim <= 4 or not 1 <= target_dim <= 4:
        raise ValueError("dimensions must be between 1 and 4")


class ReductionProblem(_Record):
    """f = linear_part + compact_part on R^domain_dim -> R^target_dim,
    with the author's certificate that |f(x)| >= 1 once |x| >= bound_radius.
    Every number given, here and in the compact part, is an int, a
    Fraction or a pair, and linear_part and bound_radius keep theirs as
    pairs (numerator, denominator) in lowest terms.

    A compact part is its `pieces`, (threshold or None, PolynomialMap)
    pairs, as PolynomialMap and PiecewisePolynomialMap give them.  Each
    piece maps R^domain_dim to R^target_dim within MAX_DEGREE, and some
    piece covers the ball of radius 2 * bound_radius, where net
    construction and boundary work sample.
    """

    __slots__ = ()
    _fields = ("domain_dim", "target_dim", "linear_part", "compact_part",
               "bound_radius")

    def __new__(cls, domain_dim, target_dim, linear_part, compact_part,
                bound_radius):
        _check_dimensions(domain_dim, target_dim)
        rows = tuple(
            tuple(_pair(x, "a linear_part entry") for x in row)
            for row in linear_part
        )
        if len(rows) != target_dim or any(len(r) != domain_dim for r in rows):
            raise ValueError(
                f"linear_part must be {target_dim}x{domain_dim}"
            )
        r = _pair(bound_radius, "bound_radius")
        if r[0] <= 0:
            raise ValueError("bound_radius must be positive")
        for _, poly in compact_part.pieces:
            if poly.input_dim != domain_dim:
                raise ValueError(
                    f"compact_part has input_dim {poly.input_dim}, "
                    f"domain_dim is {domain_dim}")
            if len(poly.components) != target_dim:
                raise ValueError(
                    f"compact_part needs {target_dim} components, "
                    f"got {len(poly.components)}")
            if poly._poly.degree > MAX_DEGREE:
                raise ArithmeticError(
                    f"compact_part has degree {poly._poly.degree}, over the "
                    f"budget MAX_DEGREE = {MAX_DEGREE}")
        # a threshold t covers the ball of radius 2R when t >= 4 R^2
        if not any(t is None or t[0] * r[1] ** 2 >= 4 * r[0] ** 2 * t[1]
                   for t, _ in compact_part.pieces):
            raise ValueError("compact_part does not cover the ball of radius 2R")
        return tuple.__new__(
            cls, (domain_dim, target_dim, rows, compact_part, r))

    def f(self, x):
        """f at x, coordinates as _pair reads them, as Fractions: a hook
        for test oracles and tracers, which the reduction never calls."""
        from fractions import Fraction
        X, S = _over_common_denominator(x)
        nums, den = self.compact_part.evaluate_scaled(X, S)
        return [sum((Fraction(a * xj, b * S) for (a, b), xj in zip(row, X)),
                    Fraction(n, den))
                for row, n in zip(self.linear_part, nums)]

    def index(self) -> int:
        return self.domain_dim - self.target_dim

    @classmethod
    def from_json(cls, obj) -> "ReductionProblem":
        _keys(obj, cls._fields, (), "the top level")
        domain_dim, target_dim = obj["domain_dim"], obj["target_dim"]
        # before anything sized by them is built
        _check_dimensions(domain_dim, target_dim)
        linear = [
            [_parse_pair(x) for x in _expect(row, list, "a linear_part row")]
            for row in _expect(obj["linear_part"], list, "linear_part")
        ]
        compact_part = _compact_from_json(obj["compact_part"], domain_dim,
                                          target_dim)
        return cls(
            domain_dim=domain_dim,
            target_dim=target_dim,
            linear_part=linear,
            compact_part=compact_part,
            bound_radius=_parse_pair(obj["bound_radius"]),
        )

    def to_json(self):
        return {
            "domain_dim": self.domain_dim,
            "target_dim": self.target_dim,
            "linear_part": [
                [_format_pair(*x) for x in row] for row in self.linear_part
            ],
            "compact_part": self.compact_part.to_json(),
            "bound_radius": _format_pair(*self.bound_radius),
        }


class DegreeReport(_Record):
    __slots__ = ()
    _fields = ("subspace_V", "reduced_dim", "degree", "miss")

    def __new__(cls, subspace_V, reduced_dim, degree, miss):
        return tuple.__new__(cls, (subspace_V, reduced_dim, degree, miss))


class MissVerdict(_Record):
    __slots__ = ()
    _fields = ("ok", "worst_distance_squared", "samples_checked")

    def __new__(cls, ok, worst_distance_squared, samples_checked):
        return tuple.__new__(cls, (ok, worst_distance_squared, samples_checked))


class StabilityVerdict(_Record):
    __slots__ = ()
    _fields = ("degree_small", "degree_large", "equal")

    def __new__(cls, degree_small, degree_large, equal):
        return tuple.__new__(cls, (degree_small, degree_large, equal))


# -- sampling and bases -----------------------------------------------------

_HALTON_BASES = (2, 3, 5, 7)
# Halton points of the miss check, after the origin
_MISS_SAMPLES = 160
_HALTON_ATTEMPTS = 8192


def _power_above(base: int, n: int) -> int:
    # base^k for the k base-b digits of n >= 0, the least power above n
    power = 1
    while power <= n:
        power *= base
    return power


def _halton_ball_scaled(dim: int, radius, count: int, weights=None,
                        half_width=None):
    """The origin, then the first ``count - 1`` Halton points of the cube
    of half-width ``half_width`` (radius if not given) with integer-weighted
    sum_k w_k x_k^2 <= radius^2 (all w_k = 1 if not given), as one walk
    (columns, S): x_k = columns[k][j] / S at point j, one S for every
    point; deterministic.  radius and half_width are pairs.  A walk in no
    variables is the origin alone.

    Halton point i has coordinates w (2 h_b(i) - 1) for the radical
    inverse h_b(i) in base b, and 2 h_b(i) - 1 is kept as an integer
    numerator u(i) over D_b = b^K, K the base-b digits of
    _HALTON_ATTEMPTS: h_b(q b + r) = (r + h_b(q)) / b gives u(q b + r) =
    (u(q) + (2 r + 1 - b) D_b) / b.  The walk takes the indices lo <= i <
    hi a step at a time, hi <= 2 lo so that every q lies below lo, and
    ends a step where the acceptance so far expects the count to be
    reached (at 2 lo while nothing is drawn).  Over P = prod D_b its
    ball test is one integer comparison per candidate, sum_k w_num^2
    r_den^2 w_k (P / D_b)^2 u(i)^2 <= r_num^2 w_den^2 P^2.  The points
    drawn come back over S = w_den prod D'_b, D'_b = b^k for the k base-b
    digits of the last index drawn, the least common denominator of their
    radical inverses.  Past _HALTON_ATTEMPTS candidates it stops with an
    ArithmeticError that names the count asked and the largest count that
    can be drawn.
    """
    r_num, r_den = radius
    w_num, w_den = half_width or radius
    weights = weights or [1] * dim
    bases = _HALTON_BASES[:dim]
    dens = [_power_above(b, _HALTON_ATTEMPTS) for b in bases]
    P = math.prod(dens)
    scales = [w_num ** 2 * r_den ** 2 * wk * (P // D) ** 2
              for wk, D in zip(weights, dens)]
    bound = r_num ** 2 * w_den ** 2 * P * P
    # u(i) for the indices 0 .. lo - 1, and (2 r + 1 - b) D_b, per base
    units = [[-D] for D in dens]
    steps = [[(2 * r + 1 - b) * D for r in range(b)]
             for b, D in zip(bases, dens)]
    # the indices drawn, after the origin
    drawn = []
    lo = 1
    while dim and len(drawn) + 1 < count:
        if lo > _HALTON_ATTEMPTS:
            raise ArithmeticError(
                f"sampling budget exceeded: {count} samples asked, and at "
                f"most {len(drawn) + 1} can be drawn")
        # a step ends where the acceptance so far expects the count to be
        # reached, and at 2 lo, so that every u(i // b) it needs is known
        need = count - 1 - len(drawn)
        hi = min(lo + need * (lo - 1) // len(drawn) + 8 if drawn else 2 * lo,
                 2 * lo, _HALTON_ATTEMPTS + 1)
        lhs = [0] * (hi - lo)
        for b, known, step, scale in zip(bases, units, steps, scales):
            q = lo // b
            known += [(u + t) // b for u in known[q:(hi - 1) // b + 1]
                      for t in step][lo - q * b:hi - q * b]
            lhs = [acc + scale * u * u for acc, u in zip(lhs, known[lo:])]
        drawn += [i for i, acc in zip(range(lo, hi), lhs)
                  if acc <= bound][:need]
        lo = hi
    # the points drawn over D'_b, and P' = prod D'_b: D_b / D'_b divides
    # u(i) for every index i of at most k digits
    lcds = [_power_above(b, drawn[-1] if drawn else 0) for b in bases]
    lcd = math.prod(lcds)
    columns = []
    for D, Dp, known in zip(dens, lcds, units):
        c, g = w_num * (lcd // Dp), D // Dp
        columns.append([0] + [c * (known[i] // g) for i in drawn])
    return columns, w_den * lcd


def _limit_denominator(num: int, den: int, max_den: int):
    """Fraction(num, den).limit_denominator(max_den) as a pair, for num/den
    in lowest terms with den > 0: the closest rational of denominator at
    most max_den, from the convergents p1/q1 of its continued fraction
    and the semiconvergent before them, p1/q1 on a tie.
    """
    if den <= max_den:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        if q0 + a * q1 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    # the two candidates lie on either side of num/den, 1/(q1 (q0 + k q1))
    # apart, and p1/q1 lies d/(q1 den) from it
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _unit_rescale(row, den):
    """The vector row / den rescaled exactly into 8/9 <= |v|^2 <= 9/8, as
    pairs.

    The scale is 2^-e t for 2^e about |v| and t the rational of
    denominator at most 10^6 nearest 1 / sqrt(q0), q0 = |v|^2 4^-e: the
    float square root only guides the choice of t.  float(q0) is the
    division of its integers, as Fraction gives it.
    """
    q = _lowest(_dot(row, row), den * den)
    e = (q[0].bit_length() - q[1].bit_length()) // 2
    s = (1, 1 << e) if e >= 0 else (1 << -e, 1)
    q0 = (q[0] * s[0] ** 2) / (q[1] * s[1] ** 2)
    t = _limit_denominator(*(1 / math.sqrt(q0)).as_integer_ratio(), 10 ** 6)
    scale = _lowest(s[0] * t[0], s[1] * t[1])
    q2 = _lowest(q[0] * scale[0] ** 2, q[1] * scale[1] ** 2)
    if not (8 * q2[1] <= 9 * q2[0] and 8 * q2[0] <= 9 * q2[1]):
        raise ArithmeticError(
            f"conditioning failed: |v|^2 rescaled to {_format_pair(*q2)}")
    return [_lowest(scale[0] * x, scale[1] * den) for x in row]


def _gram_schmidt(vectors):
    """Orthogonalize (no normalization) with the standard inner product,
    dropping vectors that fall in the span of the previous ones; entries
    as _pair reads them.  Each w is (W, d, |W|^2), w = W / d for integers
    W, of content prime to d, and d > 0.

    For v = V / e and the basis so far, w = v - sum_k (v . W_k) W_k / |W_k|^2,
    which over m = lcm |W_k|^2 is (m V - sum_k (V . W_k) (m / |W_k|^2) W_k)
    / (m e).
    """
    basis = []
    for v in vectors:
        V, e = _over_common_denominator(v)
        m = math.lcm(*(n2 for _, _, n2 in basis))
        W = [m * x for x in V]
        for B, _, n2 in basis:
            c = _dot(V, B) * (m // n2)
            W = [w - c * b for w, b in zip(W, B)]
        if any(W):
            g = math.gcd(*W, m * e)
            W = [w // g for w in W]
            basis.append((W, m * e // g, _dot(W, W)))
    return basis


def _prepared_basis(vectors):
    # for V and V' only, the two bases whose scale is read
    return [_unit_rescale(W, d) for W, d, _ in _gram_schmidt(vectors)]


def _coker_complement(p: ReductionProblem):
    # orthogonal complement of im(l): nullspace of l^T
    return _prepared_basis(
        nullspace(_integer_rows(transpose(p.linear_part))[0], p.target_dim))


def _preimage_basis(p: ReductionProblem, u_rows):
    # l^-1(V) = kernel of x -> (projections of l x onto V-perp): the rows
    # u^T l, for integer rows u spanning V-perp, times l's denominator
    columns = transpose(_integer_rows(p.linear_part)[0])
    rows = [[_dot(u, col) for col in columns] for u in u_rows]
    return _prepared_basis(nullspace(rows, p.domain_dim))


def _residual2(rows, y):
    # k |y - pr y|^2 = k |y|^2 - sum k (y.B)^2 / |B|^2 for integer y and an
    # orthogonal basis given as rows (B, d, |B|^2), k = lcm |B|^2: (num, k)
    k = math.lcm(*(n2 for _, _, n2 in rows))
    return (k * _dot(y, y)
            - sum(_dot(y, row) ** 2 * (k // n2) for row, _, n2 in rows)), k


class _ReducedMap:
    """f on V' = l^-1(V) in coordinates, for one problem and one V.

    Prepares B_V, B_U = V-perp and B_V' = l^-1(V) once, and expands
    y(t) = f(B_V' t) once per piece of the compact part, as one _Poly in
    t: the coordinates of y along B_V, then B_U, substituted at once.
    B_V' is orthogonal integer rows L_k over one denominator d', so
    |B_V' t|^2 = sum |L_k|^2 t_k^2 / d'^2 picks the piece.  g(T, s), the
    B_V coordinates at t = T / s, is the reduced map whose degree is taken.

    B_V and B_V' are rescaled, B_U is not: scaling one of its vectors by
    c divides the coordinate along it by c and multiplies its weight by c^2.
    """

    def __init__(self, p: ReductionProblem, v_basis):
        self.b_v = _prepared_basis(v_basis)
        # rows B of B_V over one denominator d, then of B_U, each b = B / d:
        # along b the coordinate of y is (y . B) d / |B|^2, and d^2 |y|^2 is
        # the sum of |B|^2 coordinate^2 over B_V and B_U
        rows, d = _integer_rows(self.b_v)
        rows += [W for W, _, _ in _gram_schmidt(nullspace(rows, p.target_dim))]
        self.b_vprime = _preimage_basis(p, rows[len(self.b_v):])
        lift_rows, self._lift_den = _integer_rows(self.b_vprime)
        self._lift_weights = [_dot(row, row) for row in lift_rows]
        self._weights = [_dot(row, row) for row in rows]
        self._d2 = d * d
        # over k = lcm |B|^2 the coordinate is d (k / |B|^2) (y . B) / k,
        # and D f = D c + D l, l's rows as degree-1 terms, is in integers
        k, n = math.lcm(*self._weights), p.domain_dim
        self._pieces = []
        for threshold, c in p.compact_part.pieces:
            c = c._poly
            D = math.lcm(c.den, *(den for row in p.linear_part for _, den in row))
            f = [[(e, v * (D // c.den)) for e, v in comp.items()]
                 + [((0,) * i + (1,) + (0,) * (n - 1 - i), a * (D // a_den))
                    for i, (a, a_den) in enumerate(row)]
                 for comp, row in zip(c.components, p.linear_part)]
            y = [{} for _ in rows]
            for total, row, n2 in zip(y, rows, self._weights):
                for b, terms in zip(row, f):
                    for e, v in terms:
                        total[e] = total.get(e, 0) + d * (k // n2) * b * v
            self._pieces.append((threshold, _Poly(y, D * k).substitute(
                lift_rows, self._lift_den)))

    def evaluate_walk(self, columns, S):
        """The coordinates of y = f(B_V' t) along B_V, then B_U, at every
        point t of a walk (columns, S), grouped by the piece that applies:
        (one column of numerators per coordinate, den) per group."""
        return [poly.evaluate_walk(cols, S) for poly, _, cols in _split_walk(
            self._pieces, self._lift_weights, columns,
            (S * self._lift_den) ** 2)]

    def g(self, T, s):
        """The B_V coordinates of y at t = T / s, the walk of the one point,
        as integer numerators over one denominator."""
        (nums, den), = self.evaluate_walk([[tk] for tk in T], s)
        return [a for a, in nums[:len(self.b_v)]], den


# -- the reduction operations ------------------------------------------------


def choose_reduction_subspace(p: ReductionProblem, epsilon=(1, 4),
                              samples: int = 128):
    """Basis of V = span(complement of im(l), epsilon-net of the sampled
    compact-part image).

    Net construction is greedy: while some sampled value of c sits
    farther than epsilon from span(V), the worst offender is adjoined.
    Working with distance to the span (rather than to finitely many
    centers) is what the miss margin actually consumes, and it needs at
    most target_dim adjoins.  Samples are Halton points in the ball of
    radius 2R, a superset of the region the degree computation touches.

    A basis that spans R^target_dim is returned as it is, since every
    distance to the whole space is 0: no sample is drawn when the
    complement of im(l) already spans it (l = 0, say), so ``samples``
    then sizes nothing, and no scan follows the adjoin that fills it.
    epsilon is read as _pair reads it, and the basis vectors are lists
    of pairs.
    """
    eps_num, eps_den = _pair(epsilon, "epsilon")
    if not 0 < 4 * eps_num <= eps_den:
        raise ValueError(
            "epsilon must be in (0, 1/4], got "
            f"{_format_pair(eps_num, eps_den)}")
    basis = _coker_complement(p)
    if len(basis) == p.target_dim:
        return basis
    r_num, r_den = p.bound_radius
    columns, S = _halton_ball_scaled(p.domain_dim, _lowest(2 * r_num, r_den),
                                     samples)
    # the images c(x) of the walk's points, in its order, as (numerators,
    # denominator)
    images = [None] * len(columns[0])
    for piece, indices, cols in _split_walk(
            p.compact_part.pieces, [1] * p.domain_dim, columns, S * S):
        nums, den = piece._poly.evaluate_walk(cols, S)
        for j, values in zip(indices, zip(*nums)):
            images[j] = values, den
    while len(basis) < p.target_dim:
        rows = _gram_schmidt(basis)
        # squared distances to span(basis) as integer pairs (num, den)
        worst_dist2, worst = (0, 1), None
        for nums, den in images:
            r, k = _residual2(rows, nums)
            dist2 = (r, k * den * den)
            if dist2[0] * worst_dist2[1] > worst_dist2[0] * dist2[1]:
                worst_dist2, worst = dist2, (nums, den)
        if (worst is None or worst_dist2[0] * eps_den ** 2
                <= eps_num ** 2 * worst_dist2[1]):
            break
        nums, den = worst
        basis = _prepared_basis(basis + [[_lowest(n, den) for n in nums]])
    return basis


def verify_miss_condition(p: ReductionProblem, v_basis, *,
                          reduced=None) -> MissVerdict:
    """Sampled check that f(l^-1(V) intersect ball(2R)) keeps distance at
    least 1/2 from the unit sphere of V-perp.

    The sample points are the origin, then the first _MISS_SAMPLES Halton
    points t in V'-coordinates with |B_V' t| <= 2R (the origin alone when
    V' = {0}): one walk of the net's sampler, evaluated a column at a time
    per piece of the compact part.  The distance test is exact:
    dist^2 >= 1/4 rearranges to (|y|^2 + 3/4)^2 >= 4 |pr_perp y|^2 with
    both sides rational, and the bases are orthogonal, so |y|^2 is a
    weighted sum of the squared coordinates of y along B_V and B_U.  The
    reported worst distance-squared is a certified rational lower bound,
    a pair (distance itself involves a square root).  ``reduced`` is the
    _ReducedMap of (p, v_basis) when the caller has already built it.
    """
    rmap = reduced if reduced is not None else _ReducedMap(p, v_basis)
    r_num, r_den = _lowest(2 * p.bound_radius[0], p.bound_radius[1])
    dim = len(rmap.b_vprime)
    # |x| <= radius is sum_k |L_k|^2 t_k^2 <= (d' radius)^2; and
    # |x|^2 >= (8/9)|t|^2, so |t| <= (9/8)^(1/2) radius < (17/16) radius
    columns, S = _halton_ball_scaled(
        dim, _lowest(rmap._lift_den * r_num, r_den),
        _MISS_SAMPLES + 1, rmap._lift_weights,
        _lowest(17 * r_num, 16 * r_den))
    v_dim = len(rmap.b_v)
    ok = True
    worst = None
    checked = 0
    k = 10 ** 6
    for nums, den in rmap.evaluate_walk(columns, S):
        # |y|^2 = Y / D and |pr_perp y|^2 = Q / D at each point of the group
        D = rmap._d2 * den * den
        Q = [0] * len(nums[0])
        for w, col in zip(rmap._weights[v_dim:], nums[v_dim:]):
            Q = [q + w * a * a for q, a in zip(Q, col)]
        Y = Q
        for w, col in zip(rmap._weights[:v_dim], nums[:v_dim]):
            Y = [y + w * a * a for y, a in zip(Y, col)]
        # (|y|^2 + 3/4)^2 < 4 |pr_perp y|^2 somewhere
        ok = ok and all((4 * y + 3 * D) ** 2 >= 64 * q * D
                        for y, q in zip(Y, Q))
        # with the rational upper bound upper / k on |pr_perp y|, upper =
        # isqrt(Q k^2 / D) + 1, the least |y|^2 + 1 - 2 upper / k of the
        # group, over k D
        low = k * D + min(k * y - 2 * (math.isqrt(q * k * k // D) + 1) * D
                          for y, q in zip(Y, Q))
        if worst is None or low * worst[1] < worst[0] * k * D:
            worst = (low, k * D)
        checked += len(Y)
    return MissVerdict(ok=ok, worst_distance_squared=_lowest(*worst),
                       samples_checked=checked)


def _sign(q) -> int:
    return (q > 0) - (q < 0)


def reduce_and_degree(p: ReductionProblem, v_basis) -> DegreeReport:
    """Restrict f to l^-1(V), project to V, and return the degree of the
    original map, orientation corrections included.

    A problem of index other than 0 and a V of dimension over 3 are
    refused with a ValueError first, before anything is built or sampled.
    Then one reduced map, built once, serves both steps.  The miss
    condition is checked once on it, so a caller need not check it again:
    a V that fails is refused with a ValueError, and the verdict is
    returned in the report's ``miss``.  The degree takes the V
    coordinates of the reduced map's one integer expansion of f(B_V' t).

    With U = V-perp and U' = (l^-1 V)-perp, f is homotopic rel boundary
    to the product of pr_U l|_U' and the reduced map g = pr_V f|_V', so

        deg f = sign det[B_U'|B_V'] * sign det[l B_U'|B_V] * deg g,

    because l w - pr_U l w lies in V for w in U', so that
    det[l B_U'|B_V] = det[B_U|B_V] det(pr_U l|_U'), zero exactly when
    pr_U l|_U' is singular.  V = {0} (possible only for invertible l with c
    landing near 0) short-circuits to sign(det l).
    """
    if p.index() != 0:
        raise ValueError(
            f"degree needs index 0, got index {p.index()}"
        )
    # the dimension of V, which the rescale of the reduced map keeps
    v_dim = len(_gram_schmidt(v_basis))
    if v_dim > 3:
        raise ValueError(f"reduced dimension {v_dim} exceeds 3")
    rmap = _ReducedMap(p, v_basis)
    miss = verify_miss_condition(p, v_basis, reduced=rmap)
    if not miss.ok:
        raise ValueError(
            "miss condition failed for the chosen subspace; "
            "enlarge --samples or shrink --epsilon"
        )
    b_v, b_vprime = rmap.b_v, rmap.b_vprime
    if v_dim == 0:
        d = det(_integer_rows(p.linear_part)[0])
        if d == 0:
            raise ValueError("V = {0} requires invertible linear part")
        return DegreeReport(subspace_V=(), reduced_dim=0,
                            degree=_sign(d), miss=miss)
    if len(b_vprime) != v_dim:
        raise ValueError(
            "V does not span the target together with im(l)"
        )
    # the rows l w for w in U' times the denominators of l and of U'
    b_uprime = nullspace(_integer_rows(b_vprime)[0], p.domain_dim)
    lin = _integer_rows(p.linear_part)[0]
    l_uprime = [[_dot(row, w) for row in lin]
                for w in _integer_rows(b_uprime)[0]]
    sign = (_sign(det(_integer_rows(b_uprime + b_vprime)[0]))
            * _sign(det(l_uprime + _integer_rows(b_v)[0])))
    # never 0: pr_U l|_U' is injective, as w in U' with pr_U l w = 0 has
    # l w in V, so w is in V' and U' = V'-perp, w = 0; and it maps between
    # equal dimensions, dim U' = n - dim V' = t - dim V = dim U by index 0
    # and dim V' = dim V
    assert sign != 0

    g_radius = _lowest(17 * p.bound_radius[0], 16 * p.bound_radius[1])
    degree = sign * brouwer_degree(rmap.g, v_dim, g_radius)
    return DegreeReport(
        subspace_V=tuple(tuple(b) for b in b_v),
        reduced_dim=v_dim,
        degree=degree,
        miss=miss,
    )


def stability_check(p: ReductionProblem, v_basis, w_basis) -> StabilityVerdict:
    """Degrees computed through V and through a larger W must agree."""
    rows = _gram_schmidt(w_basis)
    for v in v_basis:
        if _residual2(rows, _over_common_denominator(v)[0])[0] != 0:
            raise ValueError("V is not contained in span(W)")
    small = reduce_and_degree(p, v_basis)
    large = reduce_and_degree(p, w_basis)
    return StabilityVerdict(
        degree_small=small.degree,
        degree_large=large.degree,
        equal=small.degree == large.degree,
    )


# -- the properness counterexample demo ----------------------------------------


class ProperDemoReport(_Record):
    __slots__ = ()
    _fields = ("N", "literal_spike_norms", "literal_unit_ball_hits",
               "corrected_preimage_norms", "corrected_value_norms",
               "literal_found_unbounded", "corrected_found_unbounded")

    def __new__(cls, N, literal_spike_norms, literal_unit_ball_hits,
                corrected_preimage_norms, corrected_value_norms,
                literal_found_unbounded, corrected_found_unbounded):
        return tuple.__new__(cls, (
            N, literal_spike_norms, literal_unit_ball_hits,
            corrected_preimage_norms, corrected_value_norms,
            literal_found_unbounded, corrected_found_unbounded))


def _bump(norm2):
    # phi(y) = max(0, 1 - 4|y|^2): continuous, supported in |y| <= 1/2,
    # phi(0) = 1
    return max(1 - 4 * norm2, 0)


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
    from fractions import Fraction
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
