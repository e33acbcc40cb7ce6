import json
import random
import time
from fractions import Fraction
from math import gcd, isqrt, sqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from problem_factory import (det, gram_schmidt, nullspace, random_problem,
                             skewed_problem, vec_add, vec_dot, vec_scale,
                             vec_sub, zero_linear_problem)
from swcohom import reduction
from swcohom.reduction import (
    _HALTON_BASES,
    MAX_DEGREE,
    MissVerdict,
    PiecewisePolynomialMap,
    PolynomialMap,
    ReductionProblem,
    _halton_ball_scaled,
    _halton_point,
    _radical_inverse,
    _ReducedMap,
    _over_common_denominator,
    builtin_compact,
    choose_reduction_subspace,
    proper_not_bounded_demo,
    reduce_and_degree,
    stability_check,
    verify_miss_condition,
)

F = Fraction


def radical_inverse(i, base):
    # the Fraction radical inverse the integer one replaced, as the oracle
    num, denom = 0, 1
    while i:
        num = num * base + (i % base)
        denom *= base
        i //= base
    return F(num, denom)


def fr(q):
    # a rational of the reduction layer, a pair, or an int or a Fraction
    # given to it, as a Fraction
    return F(*q) if type(q) is tuple else F(q)


def frs(vectors):
    return [[fr(x) for x in v] for v in vectors]


def halton_ball(dim, radius, count):
    r = F(radius)
    return [[F(x, S) for x in X] for X, S in
            _halton_ball_scaled(dim, (r.numerator, r.denominator), count)]


def identity_problem(dim, compact, radius):
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return ReductionProblem(dim, dim, rows, compact, radius)


# -- the vector-by-vector path, kept as the oracle ----------------------------


def _project(orth_basis, y):
    out = [F(0)] * len(y)
    for b in orth_basis:
        out = vec_add(out, vec_scale(vec_dot(y, b) / vec_dot(b, b), b))
    return out


def _span_samples(basis, radius, count, ambient_dim):
    if not basis:
        return [[F(0)] * ambient_dim]
    dim = len(basis)
    t_radius = F(17, 16) * F(radius)
    points = []
    i = 1
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 16 * count + 8192:
            break
        t = [
            t_radius * (2 * radical_inverse(i, _HALTON_BASES[k]) - 1)
            for k in range(dim)
        ]
        i += 1
        x = [F(0)] * len(basis[0])
        for tk, b in zip(t, basis):
            x = vec_add(x, vec_scale(tk, b))
        if vec_dot(x, x) <= F(radius) ** 2:
            points.append(x)
    points.append([F(0)] * len(basis[0]))
    return points


def unit_rescale(v):
    # the Fraction rescale the pair one replaced, as the oracle: exact
    # into 8/9 <= |v|^2 <= 9/8, the float sqrt only guiding the scale
    q = vec_dot(v, v)
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    s = F(1, 2 ** e) if e >= 0 else F(2 ** (-e))
    q0 = q * s * s
    t = F(1 / sqrt(float(q0))).limit_denominator(10 ** 6)
    scale = s * t
    q2 = q * scale * scale
    if not F(8, 9) <= q2 <= F(9, 8):
        raise ArithmeticError(f"conditioning failed: |v|^2 rescaled to {q2}")
    return vec_scale(scale, v)


def prepared_basis(vectors):
    # Gram-Schmidt in Fractions, then the Fraction rescale
    return [unit_rescale(b) for b in gram_schmidt(frs(vectors))]


def rescaled_complement(orth_basis, dim):
    # V-perp rescaled as V is, which the reduced map no longer does; V'
    # and the oracle's values do not depend on that scale
    return prepared_basis(nullspace([list(b) for b in orth_basis], dim))


def preimage_basis(p, u_basis):
    # l^-1(V), the kernel of x -> (projections of l x onto V-perp)
    lin = frs(p.linear_part)
    rows = [[vec_dot(u, [row[j] for row in lin]) for j in range(p.domain_dim)]
            for u in u_basis]
    return prepared_basis(nullspace(rows, p.domain_dim))


def oracle_bases(p, v_basis):
    b_v = prepared_basis(v_basis)
    b_u = rescaled_complement(b_v, p.target_dim)
    return b_v, b_u, preimage_basis(p, b_u)


def oracle_miss(p, v_basis, samples=160):
    b_v, b_u, b_vprime = oracle_bases(p, v_basis)
    points = _span_samples(b_vprime, 2 * fr(p.bound_radius), samples,
                           p.domain_dim)
    ok = True
    worst = None
    for x in points:
        y = p.f(x)
        y2 = vec_dot(y, y)
        pv = _project(b_v, y)
        perp2 = y2 - vec_dot(pv, pv)
        if (y2 + F(3, 4)) ** 2 < 4 * perp2:
            ok = False
        k = 10 ** 6
        upper = F(isqrt((perp2.numerator * k * k) // perp2.denominator) + 1, k)
        dist2_lower = y2 + 1 - 2 * upper
        if worst is None or dist2_lower < worst:
            worst = dist2_lower
    worst = (worst.numerator, worst.denominator)
    return MissVerdict(ok=ok, worst_distance_squared=worst,
                       samples_checked=len(points))


def oracle_g(p, v_basis):
    b_v, _, b_vprime = oracle_bases(p, v_basis)

    def g(t):
        x = [F(0)] * p.domain_dim
        for tk, b in zip(t, b_vprime):
            x = vec_add(x, vec_scale(F(tk), b))
        y = p.f(x)
        return [vec_dot(y, b) / vec_dot(b, b) for b in b_v]
    return g


def evaluate(m, x):
    # a compact part at the Fraction point x, through evaluate_scaled
    nums, den = m.evaluate_scaled(*_over_common_denominator(x))
    return [F(a, den) for a in nums]


def reduced_g(rmap, t):
    # the reduced map at the Fraction point t: g takes t = T / s and
    # returns int numerators over one int denominator > 0
    nums, den = rmap.g(*_over_common_denominator(t))
    assert all(type(a) is int for a in nums) and type(den) is int and den > 0
    return [F(a, den) for a in nums]


def naive_polynomial(m, x):
    out = []
    for comp in m.components:
        total = F(0)
        for coeff, powers in comp:
            term = fr(coeff)
            for xi, e in zip(x, powers):
                for _ in range(e):
                    term *= F(xi)
            total += term
        out.append(total)
    return out


def in_span(basis, v):
    b = prepared_basis(basis)
    resid = vec_sub([F(x) for x in v], _project(b, v))
    return vec_dot(resid, resid) == 0


# -- problem type -------------------------------------------------------


def test_problem_validation():
    zero2 = builtin_compact("zero", 2)
    with pytest.raises(ValueError):
        ReductionProblem(5, 2, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], zero2, 1)
    with pytest.raises(ValueError):
        ReductionProblem(2, 2, [[1, 0]], zero2, 1)
    with pytest.raises(ValueError):
        ReductionProblem(2, 2, [[1, 0], [0, 1]], zero2, 0)


_POINT = PolynomialMap(2, [[(F(1), (0, 0))], []])


@pytest.mark.parametrize("build", [
    lambda: ReductionProblem(2, 2, [[0.1, 0], [0, 1]], _POINT, 2),
    lambda: ReductionProblem(2, 2, [["2.5", 0], [0, 1]], _POINT, 2),
    lambda: ReductionProblem(2, 2, [[True, 0], [0, 1]], _POINT, 2),
    lambda: ReductionProblem(2, 2, [[1, 0], [0, 1]], _POINT, 2.0),
    lambda: ReductionProblem(2, 2, [[1, 0], [0, 1]], _POINT, "1e-1"),
    lambda: PolynomialMap(2, [[(0.5, (0, 0))], []]),
    lambda: PolynomialMap(2, [[("1/2", (0, 0))], []]),
    lambda: PiecewisePolynomialMap([(0.25, _POINT), (None, _POINT)]),
    lambda: PiecewisePolynomialMap([("4", _POINT), (None, _POINT)]),
    lambda: builtin_compact("constant", 2, {"vector": [0.5, 0]}),
    lambda: builtin_compact("constant", 2, {"vector": ["1/2", 0]}),
], ids=["linear-float", "linear-decimal-string", "linear-bool",
        "radius-float", "radius-exponent-string", "coefficient-float",
        "coefficient-string", "threshold-float", "threshold-string",
        "constant-float", "constant-string"])
def test_problem_takes_only_int_or_fraction(build):
    # a float or a string stands for some other rational (0.1 is
    # 3602879701896397/36028797018963968), so it is refused, never read
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        build()


def test_dimensions_are_checked_before_the_compact_part_is_built(monkeypatch):
    # a builtin is sized by the dimensions, so a huge one must be refused
    # first; the patched builder fails the test if it is reached
    def unreachable(*args):
        raise AssertionError("compact part built before the dimension check")
    monkeypatch.setattr(reduction, "_compact_from_json", unreachable)
    for key in ("domain_dim", "target_dim"):
        doc = {"domain_dim": 2, "target_dim": 2,
               "linear_part": [["1", "0"], ["0", "1"]],
               "compact_part": {"builtin": "constant", "vector": ["1"]},
               "bound_radius": "2", key: 10 ** 9}
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^dimensions must be between 1 and 4$"):
            ReductionProblem.from_json(doc)
        assert time.perf_counter() - start < 0.5


def test_degree_budget():
    identity = [[1, 0], [0, 1]]

    def x0_to(e):
        return PolynomialMap(2, [[(F(1, 10 ** 6), (e, 0))], []])

    ReductionProblem(2, 2, identity, x0_to(MAX_DEGREE), 2)
    with pytest.raises(ArithmeticError, match=f"degree {MAX_DEGREE + 1}"):
        ReductionProblem(2, 2, identity, x0_to(MAX_DEGREE + 1), 2)
    # every piece counts
    pieces = PiecewisePolynomialMap([(F(1), x0_to(1)),
                                     (None, x0_to(MAX_DEGREE + 1))])
    with pytest.raises(ArithmeticError, match="MAX_DEGREE"):
        ReductionProblem(2, 2, identity, pieces, 2)
    # the degree is that of the exponents as given: a piece whose only term
    # past the budget has coefficient 0 is refused all the same
    zero_top = PolynomialMap(2, [[(F(1), (1, 0)), (0, (MAX_DEGREE + 1, 0))],
                                 []])
    for compact in (zero_top, PiecewisePolynomialMap([(F(1), x0_to(1)),
                                                      (None, zero_top)])):
        with pytest.raises(ArithmeticError, match=f"degree {MAX_DEGREE + 1}"):
            ReductionProblem(2, 2, identity, compact, 2)


def test_every_piece_has_the_problem_shape():
    # wrong component count or input_dim, for a plain polynomial and for
    # one piece of a piecewise map, is refused when the problem is built
    identity = [[1, 0], [0, 1]]
    ok = PolynomialMap(2, [[(F(5), (0, 0))], []])
    for bad, message in (
            (PolynomialMap(2, [[(F(5), (0, 0))]]), "needs 2 components, got 1"),
            (PolynomialMap(1, [[(F(1), (1,))], []]), "input_dim 1"),
    ):
        for compact in (bad, PiecewisePolynomialMap([(F(1), ok), (None, bad)])):
            with pytest.raises(ValueError, match=message):
                ReductionProblem(2, 2, identity, compact, 2)


def test_piecewise_totality_enforced():
    inside = PolynomialMap(2, [[], []])
    capped = PiecewisePolynomialMap([(F(1), inside)])
    with pytest.raises(ValueError):
        ReductionProblem(2, 2, [[1, 0], [0, 1]], capped, 10)


def test_json_roundtrip_builtin():
    # a builtin is written as its components and read back as the same map
    for p in (
        identity_problem(
            2, builtin_compact("constant", 2, {"vector": [F(1, 2), F(-3)]}), 4),
        ReductionProblem(3, 2, [[1, 0, 0], [0, 1, 0]],
                         builtin_compact("zero", 3, target_dim=2), 2),
        identity_problem(2, builtin_compact("complex_square_minus_one", 2), 3),
    ):
        blob = json.dumps(p.to_json())
        q = ReductionProblem.from_json(json.loads(blob))
        x = [F(1, 3), F(-2, 5), F(3, 7)][:p.domain_dim]
        assert q.f(x) == p.f(x)
        assert q.bound_radius == p.bound_radius


def test_json_roundtrip_piecewise():
    rng = random.Random(2)
    p, _ = random_problem(rng, 2)
    q = ReductionProblem.from_json(json.loads(json.dumps(p.to_json())))
    for x in halton_ball(2, fr(p.bound_radius), 12):
        assert q.f(x) == p.f(x)


# -- sampling ----------------------------------------------------------


def test_halton_deterministic_and_in_ball():
    a = halton_ball(3, 2, 40)
    b = halton_ball(3, 2, 40)
    assert a == b
    assert all(vec_dot(p, p) <= 4 for p in a)
    assert len({tuple(p) for p in a}) == 40


def test_halton_ball_matches_fraction_formula():
    for dim in (1, 2, 3, 4):
        r = F(3, 2)
        expected = [[F(0)] * dim]
        i = 1
        while len(expected) < 30:
            p = [r * (2 * radical_inverse(i, _HALTON_BASES[k]) - 1)
                 for k in range(dim)]
            if vec_dot(p, p) <= r * r:
                expected.append(p)
            i += 1
        assert halton_ball(dim, r, 30) == expected


def test_radical_inverse_matches_fraction_oracle():
    # (num, base^k) is the oracle's Fraction in lowest terms, so the
    # integer Halton points are the Fraction ones
    for base in _HALTON_BASES:
        for i in range(2000):
            num, denom = _radical_inverse(i, base)
            assert F(num, denom) == radical_inverse(i, base)
            assert gcd(num, denom) == 1
    for i in (1, 7, 100, 1999):
        for dim in (1, 2, 3, 4):
            w = F(17, 12)
            T, s = _halton_point(i, dim, (w.numerator, w.denominator))
            assert [F(t, s) for t in T] == [
                w * (2 * radical_inverse(i, b) - 1) for b in _HALTON_BASES[:dim]]


# -- bases ----------------------------------------------------------------


ENTRIES = st.one_of(st.integers(-9, 9),
                    st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def vector_lists(draw):
    """Up to n + 1 vectors of length n <= 4, of every rank: `rank` drawn
    vectors, each times its own 2^k with |k| <= 40, and the others zero
    or mixes of two drawn ones, in any order; given as ints and
    Fractions, or as pairs."""
    n = draw(st.integers(1, 4))
    count = draw(st.integers(0, n + 1))
    rank = draw(st.integers(0, min(count, n)))
    drawn = []
    for _ in range(rank):
        scale = F(2) ** draw(st.integers(-40, 40))
        drawn.append([scale * draw(ENTRIES) for _ in range(n)])
    vectors = list(drawn)
    for _ in range(count - rank):
        if not drawn or draw(st.booleans()):
            vectors.append([0] * n)
        else:
            a, b = draw(st.sampled_from(drawn)), draw(st.sampled_from(drawn))
            s, t = draw(ENTRIES), draw(ENTRIES)
            vectors.append([s * x + t * y for x, y in zip(a, b)])
    vectors = draw(st.permutations(vectors))
    if draw(st.booleans()):
        vectors = [[(F(x).numerator, F(x).denominator) for x in v]
                   for v in vectors]
    return vectors


def basis_or_error(prepare, vectors):
    try:
        return frs(prepare(vectors))
    except ArithmeticError as exc:
        return str(exc)


@given(vector_lists())
def test_prepared_basis_matches_fraction_reference(vectors):
    # the pair Gram-Schmidt and rescale give the Fraction ones' rationals,
    # or their "conditioning failed" error, and each pair in lowest terms
    assert (basis_or_error(reduction._prepared_basis, vectors)
            == basis_or_error(prepared_basis, vectors))
    for v in reduction._prepared_basis(vectors):
        assert all(gcd(num, den) == 1 and den > 0 for num, den in v)


DYADICS = st.builds(lambda k, j: F(k, 2 ** j),
                    st.integers(-2 ** 60, 2 ** 60), st.integers(0, 80))


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(F),
                 DYADICS, st.integers(-10 ** 30, 10 ** 30).map(F),
                 st.fractions(max_denominator=10 ** 6),
                 st.fractions(max_denominator=10 ** 12)),
       st.sampled_from((10 ** 6, 10 ** 6, 10 ** 6, 1, 2, 7, 1000)))
@example(F(1, 2), 1)
@example(F(-5, 2), 1)
@example(F(1 / sqrt(2)), 10 ** 6)
def test_limit_denominator_matches_fraction(x, max_den):
    # the replica _unit_rescale runs on 1/sqrt(q0) as a float, ties
    # included, on the Python that runs the tests
    expected = x.limit_denominator(max_den)
    assert (reduction._limit_denominator(x.numerator, x.denominator, max_den)
            == (expected.numerator, expected.denominator))


def test_nullspace_without_rows_and_empty_determinant():
    for n in range(5):
        basis = nullspace([], n)
        assert basis == [[F(int(i == j)) for j in range(n)] for i in range(n)]
        assert all(type(x) is F for v in basis for x in v)
    assert nullspace([[1, 1, 0]], 3) == [[-1, 1, 0], [0, 0, 1]]
    assert nullspace([[1, 0], [0, 1]], 2) == []
    assert det([]) == 1


# -- subspace choice ------------------------------------------------------


def test_choose_constant_compact():
    v0 = [F(1, 2), F(1, 3)]
    p = identity_problem(2, builtin_compact("constant", 2, {"vector": v0}), 4)
    V = choose_reduction_subspace(p)
    assert len(V) == 1
    assert in_span(V, v0)


def test_choose_linear_invertible_zero_compact():
    p = identity_problem(3, builtin_compact("zero", 3), 2)
    assert choose_reduction_subspace(p) == []


def test_choose_includes_cokernel_complement():
    # l kills the second coordinate: im(l) = span(e1), so V must carry e2
    p = ReductionProblem(
        2, 2, [[1, 0], [0, 0]], builtin_compact("constant", 2, {"vector": [0, 1]}), 4
    )
    V = choose_reduction_subspace(p)
    assert in_span(V, [0, 1])


@pytest.mark.parametrize("dim", [2, 3])
def test_no_net_is_drawn_when_the_complement_spans(monkeypatch, dim):
    # l = 0: the complement of im(l) is the whole target, at distance 0
    # from every value of c, so no sample is drawn
    p = zero_linear_problem(random.Random(dim), dim, 2)

    def no_net(*args, **kwargs):
        raise AssertionError("a net was drawn")

    monkeypatch.setattr(reduction, "_halton_ball_scaled", no_net)
    V = choose_reduction_subspace(p, samples=10 ** 6)
    assert V == [list(b) for b in reduction._coker_complement(p)]
    assert len(V) == dim


@pytest.mark.parametrize("dim, seed", [(2, 0), (3, 2), (2, 1)])
def test_net_scans_once_per_adjoin(monkeypatch, dim, seed):
    # each scan reads the distance of every sample to span(V); a scan
    # that ends within epsilon stops the net, and so does an adjoin that
    # fills the target, with no scan after it
    p, _ = random_problem(random.Random(seed), dim)
    calls = []
    residual2 = reduction._residual2

    def counted(rows, y):
        calls.append(len(rows))
        return residual2(rows, y)

    monkeypatch.setattr(reduction, "_residual2", counted)
    V = choose_reduction_subspace(p, samples=128)
    # scan k reads span(V) with k vectors, once per sample
    assert calls[::128] == list(range(len(calls) // 128))
    scans = len(V) + (len(V) < dim)
    assert len(calls) == 128 * scans
    # the first two fill the target, the third stops within epsilon
    assert (len(V) == dim) == (seed != 1)


def test_choose_epsilon_range():
    p = identity_problem(2, builtin_compact("zero", 2), 2)
    with pytest.raises(ValueError):
        choose_reduction_subspace(p, epsilon=F(1, 3))
    with pytest.raises(ValueError):
        choose_reduction_subspace(p, epsilon=0)


# -- miss condition ----------------------------------------------------------


def test_miss_margin_linear_case():
    p = identity_problem(2, builtin_compact("zero", 2), 2)
    verdict = verify_miss_condition(p, [])
    assert isinstance(verdict, MissVerdict)
    assert verdict.ok


def test_miss_detects_too_small_subspace():
    # f(x) = x + e1 with V = {0}: f(0) = e1 lies on S(V-perp) exactly
    p = identity_problem(
        2, builtin_compact("constant", 2, {"vector": [1, 0]}), 4
    )
    verdict = verify_miss_condition(p, [])
    assert not verdict.ok


def test_miss_ok_on_chosen_subspace_quadratic():
    rng = random.Random(5)
    for _ in range(4):
        p, _ = random_problem(rng, 2)
        V = choose_reduction_subspace(p)
        assert verify_miss_condition(p, V).ok


def test_miss_verdict_matches_oracle_on_factory_problems():
    rng = random.Random(404)
    for dim in (1, 2, 3):
        for _ in range(3):
            p, _ = random_problem(rng, dim)
            full = [[int(i == j) for j in range(dim)] for i in range(dim)]
            for V in (choose_reduction_subspace(p), full[:1], full):
                assert verify_miss_condition(p, V) == oracle_miss(p, V)


def test_miss_verdict_matches_oracle_on_small_and_skew_cases():
    cases = [
        # V = {0}: the origin is the only sample point
        (identity_problem(2, builtin_compact("zero", 2), 2), []),
        (identity_problem(2, builtin_compact("constant", 2,
                                              {"vector": [1, 0]}), 4), []),
        # V smaller than the target, and a problem of index 1
        (ReductionProblem(2, 2, [[1, 2], [0, 1]],
                          builtin_compact("complex_square_minus_one", 2), 3),
         [[1, 1]]),
        (ReductionProblem(3, 2, [[1, 0, 0], [0, 1, 0]],
                          builtin_compact("zero", 3, target_dim=2), 2),
         [[1, 0]]),
    ]
    for p, V in cases:
        assert verify_miss_condition(p, V) == oracle_miss(p, V)


def test_reduced_map_matches_oracle_on_both_sides_of_threshold():
    rng = random.Random(405)
    for dim in (1, 2, 3):
        for _ in range(3):
            p, _ = random_problem(rng, dim)
            threshold = fr(p.compact_part.pieces[0][0])
            for V in (choose_reduction_subspace(p),
                      [[int(i == j) for j in range(dim)] for i in range(dim)]):
                rmap = _ReducedMap(p, V)
                oracle = oracle_g(p, V)
                k = len(rmap.b_vprime)
                b_vprime = frs(rmap.b_vprime)
                sides = set()
                for t in halton_ball(k, 2 * fr(p.bound_radius), 24):
                    x = [sum((tk * b[j] for tk, b in zip(t, b_vprime)),
                             F(0)) for j in range(dim)]
                    sides.add(vec_dot(x, x) <= threshold)
                    assert reduced_g(rmap, t) == oracle(t)
                assert sides == {True, False} or k == 0
                # points with |B_V' t|^2 exactly the threshold, a rational
                # multiple of one basis vector where one exists, with an
                # outer piece that differs there: the inner piece applies
                inner_poly = p.compact_part.pieces[0][1]
                ones = PolynomialMap(dim, [[(F(1), (0,) * dim)]] * dim)
                split = ReductionProblem(
                    dim, dim, p.linear_part,
                    PiecewisePolynomialMap([(threshold, inner_poly),
                                            (None, ones)]), p.bound_radius)
                rmap = _ReducedMap(split, V)
                oracles = [oracle_g(ReductionProblem(
                    dim, dim, p.linear_part, c, p.bound_radius), V)
                    for c in (split.compact_part, inner_poly, ones)]
                on = 0
                for j, b in enumerate(frs(rmap.b_vprime)):
                    q = threshold / vec_dot(b, b)
                    root = F(isqrt(q.numerator), isqrt(q.denominator))
                    if root * root != q:
                        continue
                    for sign in (1, -1):
                        t = [sign * root * (i == j) for i in range(k)]
                        assert reduced_g(rmap, t) == oracles[0](t)
                        assert (reduced_g(rmap, t)
                                == oracles[1](t) != oracles[2](t))
                        on += 1
                assert on or V != [[int(i == j) for j in range(dim)]
                                   for i in range(dim)]
    # maps with one piece and no linear part
    for dim, m in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
        p = zero_linear_problem(rng, dim, m)
        for V in (choose_reduction_subspace(p),
                  [[int(i == j) for j in range(dim)] for i in range(dim)]):
            rmap = _ReducedMap(p, V)
            oracle = oracle_g(p, V)
            k = len(rmap.b_vprime)
            for t in halton_ball(k, 2 * fr(p.bound_radius), 24):
                assert reduced_g(rmap, t) == oracle(t)


@st.composite
def substitutions(draw):
    # an integer map over one denominator in 1-3 variables, of degree at
    # most 4, with repeated exponent tuples and zero coefficients; integer
    # lift rows L_1 .. L_k, k = 0 .. n, over d > 0; and a point t = T / s
    n = draw(st.integers(1, 3))
    exponents = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(
        lambda e: sum(e) <= 4).map(tuple)
    pool = draw(st.lists(exponents, min_size=1, max_size=6))
    den = draw(st.integers(1, 12))
    terms = st.tuples(st.integers(-9, 9).map(lambda c: F(c, den)),
                      st.sampled_from(pool))
    components = draw(st.lists(st.lists(terms, max_size=6),
                               min_size=1, max_size=3))
    k = draw(st.integers(0, n))
    small = st.integers(-5, 5)
    rows = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    T = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k))
    return (PolynomialMap(n, components), rows, draw(st.integers(1, 10)),
            T, draw(st.integers(1, 10)))


@given(substitutions())
def test_substitute_matches_direct_evaluation(case):
    # the kernel's substitution x = sum_k t_k L_k / d, evaluated at
    # t = T / s, is the map as given, term by term, at that x in Fractions
    m, rows, d, T, s = case
    q = m._poly.substitute(rows, d)
    x = [sum((F(tk, s) * F(row[i], d) for tk, row in zip(T, rows)), F(0))
         for i in range(m.input_dim)]
    nums, den = q.evaluate_scaled(T, s)
    assert [F(a, den) for a in nums] == naive_polynomial(m, x)
    # divided by its content, and with no zero term, so of the degree of
    # its nonzero terms
    coeffs = [c for comp in q.components for c in comp.values()]
    assert q.den > 0 and gcd(q.den, *coeffs) == 1 and all(coeffs)


def test_piecewise_threshold_is_inclusive():
    inside = PolynomialMap(2, [[(F(1), (0, 0))], [(F(2), (1, 0))]])
    outside = PolynomialMap(2, [[(F(-1), (0, 0))], [(F(3), (0, 1))]])
    m = PiecewisePolynomialMap([(F(1), inside), (None, outside)])
    on = [F(3, 5), F(4, 5)]
    assert evaluate(m, on) == evaluate(inside, on) == [1, F(6, 5)]
    past = [F(3, 5), F(4, 5) + F(1, 10 ** 9)]
    assert evaluate(m, past) == evaluate(outside, past)
    assert evaluate(m, [0, -1]) == evaluate(inside, [0, -1])
    assert evaluate(m, [-2, 0]) == evaluate(outside, [-2, 0])


def test_polynomial_map_matches_naive_sum():
    rng = random.Random(406)
    for _ in range(60):
        dim = rng.randint(1, 4)
        comps = [
            [(F(rng.randint(-9, 9), rng.randint(1, 12)),
              tuple(rng.randint(0, 4) for _ in range(dim)))
             for _ in range(rng.randint(0, 6))]
            for _ in range(rng.randint(1, 4))
        ]
        m = PolynomialMap(dim, comps)
        for _ in range(4):
            x = [rng.choice([0, rng.randint(-5, 5),
                             F(rng.randint(-20, 20), rng.randint(1, 30))])
                 for _ in range(dim)]
            assert evaluate(m, x) == naive_polynomial(m, x)


# -- degree anchors ------------------------------------------------------------


def test_translation_degree_one():
    p = identity_problem(
        2, builtin_compact("constant", 2, {"vector": [F(1, 2), F(1, 3)]}), 4
    )
    r = reduce_and_degree(p, choose_reduction_subspace(p))
    assert r.degree == 1
    assert r.reduced_dim == 1


def test_z_squared_minus_one_degree_two():
    p = ReductionProblem(
        2, 2, [[0, 0], [0, 0]],
        builtin_compact("complex_square_minus_one", 2), F(3, 2),
    )
    r = reduce_and_degree(p, choose_reduction_subspace(p))
    assert r.degree == 2
    assert r.reduced_dim == 2


def test_minus_identity_degree():
    p = ReductionProblem(
        3, 3, [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        builtin_compact("zero", 3), 2,
    )
    r = reduce_and_degree(p, choose_reduction_subspace(p))
    assert r.degree == -1
    assert r.reduced_dim == 0


def test_degree_invariant_across_subspaces():
    # diag(1,1,-1): full degree -1 whatever admissible V is used
    p = ReductionProblem(
        3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, -1]], builtin_compact("zero", 3), 2
    )
    subspaces = [
        [],
        [[1, 0, 0]],
        [[0, 0, 1]],
        [[1, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ]
    assert {reduce_and_degree(p, V).degree for V in subspaces} == {-1}


def test_index_must_vanish():
    p = ReductionProblem(3, 2, [[1, 0, 0], [0, 1, 0]],
                         builtin_compact("zero", 3, target_dim=2), 2)
    with pytest.raises(ValueError):
        reduce_and_degree(p, [[1, 0]])


def test_reduced_dimension_capped():
    p = ReductionProblem(
        4, 4, [[0] * 4 for _ in range(4)],
        builtin_compact("constant", 4, {"vector": [3, 0, 0, 0]}), 1,
    )
    full = [[int(i == j) for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError):
        reduce_and_degree(p, full)


def test_inadmissible_subspace_rejected():
    p = identity_problem(
        2, builtin_compact("constant", 2, {"vector": [1, 0]}), 4
    )
    with pytest.raises(ValueError):
        reduce_and_degree(p, [])


# -- stability -------------------------------------------------------------------


def test_stability_requires_containment():
    p = identity_problem(2, builtin_compact("zero", 2), 2)
    with pytest.raises(ValueError):
        stability_check(p, [[1, 0]], [[0, 1]])


def test_stability_on_random_problems():
    rng = random.Random(31)
    for dim in (2, 3):
        for _ in range(5):
            p, expected = random_problem(rng, dim)
            V = choose_reduction_subspace(p)
            full = [[int(i == j) for j in range(dim)] for i in range(dim)]
            verdict = stability_check(p, V, full)
            assert verdict.equal
            assert verdict.degree_large == expected


# -- problems of known degree where the degree and the reduction matter ------------

SKEWED_SEED = 3
# (dim, m, quarters, i) -> what reduce gives today with eps = quarters/4:
# a wrong degree, reported as a normal answer, or the refusal; the degree
# and miss certificates of ROADMAP items 2 and 3 are to flip these
SKEWED_TODAY = {
    (2, 2, 0, 0): 0, (2, 2, 0, 1): 0, (2, 2, 0, 2): 0,
    (2, 3, 0, 0): -1, (2, 3, 0, 1): -1, (2, 3, 0, 2): -1,
    (2, 4, 0, 0): 0, (2, 4, 0, 2): 2,
    (2, 3, 1, 0): 1, (2, 3, 1, 1): 1, (2, 3, 1, 2): 1,
    (2, 4, 1, 0): 0, (2, 4, 1, 1): 2, (2, 4, 1, 2): 2,
    (3, 3, 0, 0): -1, (3, 3, 0, 1): "boundary image passes through 0",
    (3, 3, 0, 2): 1, (3, 4, 0, 1): 0, (3, 4, 0, 2): -2,
    (3, 2, 1, 1): 0, (3, 3, 1, 0): 1, (3, 3, 1, 1): -1,
    (3, 4, 1, 0): -2, (3, 4, 1, 1): 0, (3, 4, 1, 2): -2,
}


def skewed_row(dim, m, quarters, i):
    today = SKEWED_TODAY.get((dim, m, quarters, i))
    if today is None:
        return pytest.param(dim, m, quarters, i)
    if isinstance(today, int):
        mark = pytest.mark.xfail(raises=AssertionError, strict=True,
                                 reason=f"ROADMAP item 14: reduce gives {today}")
    else:
        mark = pytest.mark.xfail(raises=ArithmeticError, strict=True,
                                 reason=f"ROADMAP item 14: refused, {today}")
    return pytest.param(dim, m, quarters, i, marks=mark)


@pytest.mark.parametrize("dim, m, quarters, i", [
    skewed_row(dim, m, quarters, i)
    for dim in (2, 3) for quarters in (0, 1) for m in (1, 2, 3, 4)
    for i in range(3)])
def test_skewed_problems_of_known_degree(dim, m, quarters, i):
    # the expected degree comes from the construction, never from reduce;
    # with eps = 1/4, l is invertible and V comes from the net alone
    eps = F(quarters, 4)
    rng = random.Random(f"{SKEWED_SEED}:{dim}:{m}:{eps}:{i}")
    p, expected = skewed_problem(rng, dim, m, eps)
    assert reduce_and_degree(p, choose_reduction_subspace(p)).degree == expected


# -- the properness demo ------------------------------------------------------------


def test_proper_demo_literal_pushes_outward():
    rep = proper_not_bounded_demo(6)
    assert rep.literal_spike_norms == (3, 5, 7, 9, 11)
    assert rep.literal_unit_ball_hits == ()
    assert not rep.literal_found_unbounded


def test_proper_demo_corrected_variant_unbounded():
    rep = proper_not_bounded_demo(8)
    assert rep.corrected_found_unbounded
    assert len(rep.corrected_preimage_norms) == 7
    # preimage points march outward while their values stay in the ball
    assert all(v < 1 for v in rep.corrected_value_norms)
    norms = rep.corrected_preimage_norms
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert norms[-1] > 6


def test_proper_demo_rejects_small_n():
    with pytest.raises(ValueError):
        proper_not_bounded_demo(2)
