"""Lattice tests, including the brute-force coordinate-box oracle and
the Fraction Fincke-Pohst oracle.

The box oracle never touches the coset or Fincke-Pohst machinery: it
scans an axis-aligned box guaranteed to contain every vector of norm
at most B (|c_i| <= sqrt(B * (A^-1)_ii) for c^T A c <= B) and filters
by the characteristic congruence directly.  The Fraction oracle is the
enumeration the integer one replaced: an LDL^T split over Fraction and
a search of the shifted coset (c0 + 2z with z + c0/2 short at bound/4).
"""

import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from problem_factory import identity, invert, mat_mul
from swcohom import lattices
from swcohom.cli import main
from swcohom.lattices import (
    MAX_RANK,
    AdmissibilityVerdict,
    GramMatrix,
    LatticeVector,
    diagonal_witness,
    donaldson_admissible,
    e8_gram,
    enumerate_coset_by_norm,
    find_characteristic,
    is_characteristic,
    minus_identity,
    validate,
)
from swcohom.lattices import _require_valid, _short_vectors
from swcohom.linalg import transpose


def norm_of(g, coords):
    return -sum(
        ci * gij * cj
        for i, ci in enumerate(coords)
        for gij, cj in zip(g.entries[i], coords)
    )


def canonical(coords):
    for x in coords:
        if x > 0:
            return tuple(coords)
        if x < 0:
            return tuple(-y for y in coords)
    return tuple(coords)


def box_oracle(g, bound):
    a_inv = invert([[-x for x in row] for row in g.entries])
    radii = [isqrt(int(bound * a_inv[i][i])) + 1 for i in range(g.n)]
    found = set()
    for coords in itertools.product(*(range(-r, r + 1) for r in radii)):
        if (norm_of(g, coords) <= bound
                and is_characteristic(g, LatticeVector(coords))):
            found.add(canonical(coords))
    return found


def random_unimodular(rng, n, steps=12):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 1:
        return [[rng.choice([-1, 1])]]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        for col in range(n):
            u[i][col] += c * u[j][col]
    return u


def conjugate(g, u):
    ut = transpose([[Fraction(x) for x in row] for row in u])
    gm = [[Fraction(x) for x in row] for row in g.entries]
    um = [[Fraction(x) for x in row] for row in u]
    return GramMatrix([[int(x) for x in row] for row in mat_mul(mat_mul(ut, gm), um)])


def direct_sum(*grams):
    n = sum(g.n for g in grams)
    m = [[0] * n for _ in range(n)]
    at = 0
    for g in grams:
        for i, row in enumerate(g.entries):
            m[at + i][at:at + g.n] = row
        at += g.n
    return GramMatrix(m)


def minus_d12_plus():
    """-D12+: D12 = {x in Z^12 : sum x even} glued with h = (1/2, ..., 1/2).

    Basis h, e_i - e_{i+1} (2 <= i <= 11) and e_11 + e_12: the D12 basis
    with e_1 - e_2 traded for h, whose coefficient on it is 1/2.
    Coordinates are doubled so that they stay integral; validate() then
    confirms |det| = 1, so this unimodular sublattice of D12+ is all of it.
    """
    basis = [[0] * 12 for _ in range(12)]
    basis[0] = [1] * 12
    for i in range(1, 11):
        basis[i][i], basis[i][i + 1] = 2, -2
    basis[11][10] = basis[11][11] = 2
    return GramMatrix([
        [-sum(a * b for a, b in zip(u, v)) // 4 for v in basis] for u in basis
    ])


def fraction_ldl(a):
    """a = L D L^T over Fraction: (L unit lower triangular, d diagonal)."""
    n = len(a)
    L = identity(n)
    d = [Fraction(0)] * n
    for j in range(n):
        s = Fraction(a[j][j])
        for k in range(j):
            s -= d[k] * L[j][k] * L[j][k]
        assert s > 0, "not positive definite"
        d[j] = s
        for i in range(j + 1, n):
            t = Fraction(a[i][j])
            for k in range(j):
                t -= d[k] * L[i][k] * L[j][k]
            L[i][j] = t / d[j]
    return L, d


def fraction_fincke_pohst(a_rows, shift, bound):
    """All integer z with (z + shift)^T A (z + shift) <= bound, from the
    Fraction LDL^T split, last coordinate first; endpoints by isqrt."""
    n = len(a_rows)
    if bound < 0:
        return
    L, d = fraction_ldl(a_rows)
    z = [0] * n

    def descend(i, remaining):
        if i < 0:
            yield tuple(z)
            return
        tail = sum(
            (L[j][i] * (z[j] + shift[j]) for j in range(i + 1, n)), Fraction(0)
        )
        e = Fraction(shift[i]) + tail
        r2 = remaining / d[i]
        m = e.denominator
        a0 = e.numerator
        w_max = isqrt((r2.numerator * m * m) // r2.denominator)
        for zi in range(-((w_max + a0) // m), (w_max - a0) // m + 1):
            z[i] = zi
            y = zi + e
            yield from descend(i - 1, remaining - d[i] * y * y)
        z[i] = 0

    yield from descend(n - 1, Fraction(bound))


def oracle_coset(g, c0, bound):
    """enumerate_coset_by_norm's coordinate list, by the Fraction oracle."""
    a_rows = [[Fraction(-x) for x in row] for row in g.entries]
    shift = [Fraction(x, 2) for x in c0.coords]
    found = {canonical([c + 2 * z for c, z in zip(c0.coords, zz)])
             for zz in fraction_fincke_pohst(a_rows, shift, Fraction(bound, 4))}
    return sorted(found, key=lambda c: (norm_of(g, c), c))


def doubling_oracle(g):
    """The search donaldson_admissible replaced: enumerate the coset at
    bound rank, doubling until a vector turns up, then once more at the
    minimum for the witness.  It assumes no bound on the minimum.
    """
    c0 = find_characteristic(g)
    bound = g.n
    while True:
        found = enumerate_coset_by_norm(g, c0, bound)
        if found:
            break
        bound *= 2
    m = norm_of(g, found[0].coords)
    if m >= g.n:
        return AdmissibilityVerdict(True, m, None, diagonal_witness(g))
    return AdmissibilityVerdict(
        False, m, enumerate_coset_by_norm(g, c0, m)[0], None)


# -- validation -------------------------------------------------------------


def test_validate_verdicts():
    assert validate(minus_identity(3)).valid
    r = validate(GramMatrix([[1, 0], [0, 1]]))
    assert not r.valid and "definite" in r.failure
    r = validate(GramMatrix([[-1, 0], [0, -2]]))
    assert not r.valid and "unimodular" in r.failure
    r = validate(GramMatrix([[-1, 1], [0, -1]]))
    assert not r.valid and "symmetric" in r.failure
    assert validate(e8_gram()).valid
    # unimodular forms with a zero leading minor: an elimination that
    # exchanged rows would find a nonzero pivot and go on
    for entries in ([[0, 1], [1, 0]],
                    [[-1, 0, 0], [0, 0, 1], [0, 1, 0]],
                    [[0, 1, 0], [1, 0, 0], [0, 0, -1]]):
        assert validate(GramMatrix(entries)).failure == "not negative definite"


def test_gram_shape_errors():
    with pytest.raises(ValueError):
        GramMatrix([[1, 0], [0]])
    with pytest.raises(ValueError):
        GramMatrix([])
    # non-integer entries are refused, not truncated by int()
    with pytest.raises(ValueError):
        GramMatrix([[-1.9]])
    with pytest.raises(ValueError):
        GramMatrix([[-1, 0.5], [0.5, -1]])
    with pytest.raises(ValueError):
        GramMatrix([[True]])


def test_gram_from_json_reads_a_bare_or_wrapped_matrix():
    assert GramMatrix.from_json([[-1]]) == GramMatrix([[-1]])
    assert GramMatrix.from_json({"gram": [[-1]]}) == GramMatrix([[-1]])
    for doc, message in (({}, "missing key 'gram'"),
                         ({"gram": [[-1]], "rank": 1},
                          "the top level takes no key 'rank'"),
                         ({"gram": {"gram": [[-1]]}},
                          "entries must form a nonempty square matrix")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GramMatrix.from_json(doc)


def test_lattice_vector_refuses_non_integers():
    # int() would truncate [1.9, -1.2] to the characteristic (1, -1) of
    # -I_2 and split "12" into (1, 2)
    for coords in ([1.9, -1.2], [1, 2.0], [True, 0], (1, None), "12", 12):
        with pytest.raises(ValueError):
            LatticeVector(coords)
    assert LatticeVector((1, -2)).coords == (1, -2)


def test_enumerate_refuses_a_non_integer_bound():
    for bound in (2.0, 1.5, Fraction(2), True, "2"):
        with pytest.raises(ValueError, match="bound must be an integer"):
            enumerate_coset_by_norm(minus_identity(2), LatticeVector([1, 1]), bound)


def test_rank_budget_is_checked_before_any_work(monkeypatch, capsys, tmp_path):
    def no_work(a):
        raise AssertionError("a form eliminated past the budget")

    monkeypatch.setattr(lattices, "_bareiss", no_work)
    g = minus_identity(MAX_RANK + 1)
    message = f"lattice budget exceeded: rank must be at most {MAX_RANK}"
    for decide in (validate, donaldson_admissible, diagonal_witness,
                   find_characteristic):
        with pytest.raises(ArithmeticError, match=message):
            decide(g)
    path = tmp_path / "gram.json"
    path.write_text(str(g.to_json()))
    status = main(["lattice", "--gram", str(path)])
    out, err = capsys.readouterr()
    assert (status, out) == (1, "")
    assert err == ('{"schema": "swcohom/error/1", "error": {"code": "domain", '
                   f'"message": "{message}"}}}}\n')


def test_rank_budget_admits_its_own_rank():
    verdict = donaldson_admissible(minus_identity(MAX_RANK))
    assert verdict.admissible and verdict.min_norm == MAX_RANK


# -- characteristic vectors ---------------------------------------------------


def test_is_characteristic_examples():
    assert is_characteristic(minus_identity(4), LatticeVector([1, 1, 1, 1]))
    assert is_characteristic(e8_gram(), LatticeVector([0] * 8))
    assert not is_characteristic(minus_identity(2), LatticeVector([1, 0]))
    with pytest.raises(ValueError):
        is_characteristic(minus_identity(2), LatticeVector([1, 0, 0]))


def test_find_characteristic_self_check():
    # the coset holds one vector with every coordinate 0 or 1, since G is
    # invertible mod 2, so these two checks pin find_characteristic exactly
    rng = random.Random(7)
    forms = ([minus_identity(n) for n in range(1, 25)] + [e8_gram()]
             + [direct_sum(e8_gram(), minus_identity(k)) for k in range(1, 9)]
             + [minus_d12_plus()])
    for form in forms:
        for _ in range(3):
            g = conjugate(form, random_unimodular(rng, form.n))
            assert validate(g).valid
            c0 = find_characteristic(g)
            assert set(c0.coords) <= {0, 1}
            assert is_characteristic(g, c0)
    assert find_characteristic(minus_identity(3)).coords == (1, 1, 1)
    assert find_characteristic(e8_gram()).coords == (0,) * 8


# -- enumeration ---------------------------------------------------------------


def test_enumerate_minus_i2_bound_2():
    g = minus_identity(2)
    got = enumerate_coset_by_norm(g, LatticeVector([1, 1]), 2)
    assert {v.coords for v in got} == {(1, 1), (1, -1)}


def test_enumerate_e8_bound_0():
    got = enumerate_coset_by_norm(e8_gram(), LatticeVector([0] * 8), 0)
    assert [v.coords for v in got] == [(0,) * 8]


def test_enumerate_below_minimum_is_empty():
    g = minus_identity(2)
    assert enumerate_coset_by_norm(g, LatticeVector([1, 1]), 1) == []


def test_enumerate_rejects_non_characteristic_base():
    with pytest.raises(ValueError):
        enumerate_coset_by_norm(minus_identity(2), LatticeVector([1, 0]), 4)


def test_enumeration_is_sorted_and_sign_reduced():
    g = minus_identity(3)
    got = enumerate_coset_by_norm(g, LatticeVector([1, 1, 1]), 27)
    norms = [norm_of(g, v.coords) for v in got]
    assert norms == sorted(norms)
    reps = {canonical(v.coords) for v in got}
    assert len(reps) == len(got)


def test_enumeration_matches_box_oracle():
    rng = random.Random(21)
    grams = [minus_identity(1), minus_identity(2), minus_identity(3)]
    for n in (2, 3):
        grams.append(conjugate(minus_identity(n), random_unimodular(rng, n)))
    for g in grams:
        c0 = find_characteristic(g)
        for bound in (0, 1, 3, 7, 12):
            got = {v.coords for v in enumerate_coset_by_norm(g, c0, bound)}
            assert got == box_oracle(g, bound), (g.entries, bound)


def fraction_oracle_forms():
    rng = random.Random(53)
    bases = ([minus_identity(n) for n in range(1, 11)]
             + [e8_gram(), direct_sum(e8_gram(), minus_identity(2)),
                minus_d12_plus()])
    forms = []
    for base in bases:
        forms.append(base)
        for _ in range(2):
            forms.append(conjugate(base, random_unimodular(rng, base.n)))
    return forms


def test_integer_enumeration_matches_fraction_oracle():
    rng = random.Random(59)
    for g in fraction_oracle_forms():
        n = g.n
        c0 = find_characteristic(g)
        # a second base point of the same coset, coordinates beyond 0 and 1
        c1 = LatticeVector([c + 2 * rng.randint(-2, 2) for c in c0.coords])
        checks = [(c0, n - 8), (c1, n - 8)]
        if n <= 10:
            checks += [(c0, n % 8), (c1, n % 8), (c0, n)]
        for base, bound in checks:
            got = [v.coords for v in enumerate_coset_by_norm(g, base, bound)]
            assert got == oracle_coset(g, base, bound), (g.entries, bound)
        # the whole norm <= 1 ball, one vector per sign pair, the zero
        # vector included, in lexicographic order with its norms
        a_rows = [[Fraction(-x) for x in row] for row in g.entries]
        expected = set(fraction_fincke_pohst(a_rows, [Fraction(0)] * n, Fraction(1)))
        ball = sorted({canonical(z) for z in expected})
        assert (list(_short_vectors(_require_valid(g), 1, (0,) * n, 1))
                == [(norm_of(g, z), z) for z in ball])
        shell = sorted({canonical(z) for z in expected if norm_of(g, z) == 1})
        found = diagonal_witness(g)
        assert ((None if found is None else [v.coords for v in found])
                == (shell if len(shell) == n else None))


# -- minimum norm and admissibility ---------------------------------------------


def test_min_norm_diagonal_and_e8():
    for n in range(1, 9):
        assert donaldson_admissible(minus_identity(n)).min_norm == n
    assert donaldson_admissible(e8_gram()).min_norm == 0


def test_min_norm_unimodular_invariance():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        g = minus_identity(n)
        base = donaldson_admissible(g).min_norm
        for _ in range(4):
            h = conjugate(g, random_unimodular(rng, n))
            assert donaldson_admissible(h).min_norm == base


def test_admissibility_verdicts():
    for n in range(1, 9):
        v = donaldson_admissible(minus_identity(n))
        assert v.admissible and v.min_norm == n and v.witness is None
    v = donaldson_admissible(e8_gram())
    assert not v.admissible
    assert v.min_norm == 0
    assert v.witness.coords == (0,) * 8


def test_admissibility_matches_doubling_oracle():
    rng = random.Random(17)
    forms = [minus_identity(n) for n in range(1, 11)]
    forms += [e8_gram(), direct_sum(e8_gram(), minus_identity(1)),
              direct_sum(e8_gram(), minus_identity(2))]
    for g in list(forms):
        forms.append(conjugate(g, random_unimodular(rng, g.n, steps=g.n)))
    for g in forms:
        assert validate(g).valid
        expected = doubling_oracle(g)
        assert donaldson_admissible(g) == expected, g.entries


def test_admissibility_beyond_the_doubling_search():
    # verdicts known from the structure of each lattice; the doubling
    # search took seconds on each of these
    g = minus_identity(14)
    v = donaldson_admissible(g)
    assert v == AdmissibilityVerdict(True, 14, None, diagonal_witness(g))
    v = donaldson_admissible(direct_sum(e8_gram(), e8_gram()))
    assert v == AdmissibilityVerdict(False, 0, LatticeVector([0] * 16), None)
    g = minus_d12_plus()
    assert validate(g).valid
    v = donaldson_admissible(g)
    assert not v.admissible and v.min_norm == 4
    assert is_characteristic(g, v.witness)
    assert norm_of(g, v.witness.coords) == 4


def test_diagonal_forms_are_decided_by_the_shell():
    # the coset at n - 8 of -I_32 holds every odd vector of norm <= 24;
    # the full norm -1 shell decides the form without it
    rng = random.Random(24)
    for g in (minus_identity(32),
              conjugate(minus_identity(24), random_unimodular(rng, 24, 24))):
        assert donaldson_admissible(g) == AdmissibilityVerdict(
            True, g.n, None, diagonal_witness(g))


@st.composite
def definite_forms(draw):
    base = draw(st.sampled_from(
        [minus_identity(n) for n in range(1, 9)] + [e8_gram()]))
    seed = draw(st.integers(0, 2**32 - 1))
    steps = draw(st.integers(0, 2 * base.n))
    return conjugate(base, random_unimodular(random.Random(seed), base.n, steps))


@settings(max_examples=40, deadline=None)
@given(definite_forms())
def test_admissible_exactly_when_diagonal(g):
    # Elkies: the minimum reaches the rank only for the diagonal form, so
    # the coset search and the norm-1 shell must agree
    assert validate(g).valid
    assert donaldson_admissible(g).admissible == (diagonal_witness(g) is not None)


# -- diagonal witness -------------------------------------------------------------


def unit_shell(g):
    # the norm-1 vectors up to sign, sorted, by the Fraction oracle
    a_rows = [[Fraction(-x) for x in row] for row in g.entries]
    points = fraction_fincke_pohst(a_rows, [Fraction(0)] * g.n, Fraction(1))
    return sorted({canonical(z) for z in points if norm_of(g, z) == 1})


def pairing(g, u, v):
    return sum(ui * gij * vj
               for ui, row in zip(u, g.entries) for gij, vj in zip(row, v))


def backtracking_oracle(g):
    """The search diagonal_witness replaced: backtrack over the norm-1
    shell for n pairwise orthogonal vectors, taken in sorted order."""
    shell = unit_shell(g)
    chosen = []

    def extend(start):
        if len(chosen) == g.n:
            return True
        for idx in range(start, len(shell)):
            v = shell[idx]
            if all(pairing(g, v, u) == 0 for u in chosen):
                chosen.append(v)
                if extend(idx + 1):
                    return True
                chosen.pop()
        return False

    return list(chosen) if extend(0) else None


def shell_oracle_forms():
    rng = random.Random(41)
    bases = ([minus_identity(n) for n in range(1, 9)]
             + [direct_sum(e8_gram(), minus_identity(k)) if k else e8_gram()
                for k in range(5)]
             + [minus_d12_plus(), minus_identity(12)])
    forms = []
    for base in bases:
        forms.append(base)
        forms.append(conjugate(base, random_unimodular(rng, base.n)))
    for n in range(1, 9):
        for _ in range(2):
            forms.append(conjugate(minus_identity(n), random_unimodular(rng, n)))
    return forms


def test_diagonal_witness_matches_backtracking_oracle():
    forms = shell_oracle_forms()
    assert len(forms) == 46
    for g in forms:
        shell = unit_shell(g)
        # Cauchy-Schwarz: distinct norm-1 classes are orthogonal
        assert all(pairing(g, u, v) == 0
                   for u, v in itertools.combinations(shell, 2))
        assert len(shell) <= g.n
        found = diagonal_witness(g)
        expected = backtracking_oracle(g)
        assert (None if found is None else [v.coords for v in found]) == expected
        assert (found is not None) == donaldson_admissible(g).admissible


def test_diagonal_witness_identity():
    w = diagonal_witness(minus_identity(3))
    assert sorted(v.coords for v in w) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_diagonal_witness_even_lattice_absent():
    assert diagonal_witness(e8_gram()) is None


def test_diagonal_witness_conjugated():
    rng = random.Random(11)
    g = conjugate(minus_identity(3), random_unimodular(rng, 3))
    w = diagonal_witness(g)
    assert w is not None and len(w) == 3
    for i, u in enumerate(w):
        for j, v in enumerate(w):
            pair = sum(
                a * gij * b
                for r, a in enumerate(u.coords)
                for gij, b in zip(g.entries[r], v.coords)
            )
            assert pair == (-1 if i == j else 0)


def test_node_budget(monkeypatch):
    # the norm -1 shell of -I_3 takes 9 coordinate values: x_0 in 0..1;
    # under x_0 = 0, x_1 in 0..1 and x_2 in 0..1 or 0; under x_0 = 1,
    # x_1 = x_2 = 0
    monkeypatch.setattr(lattices, "MAX_NODES", 8)
    with pytest.raises(ArithmeticError, match="lattice search budget exceeded"):
        donaldson_admissible(minus_identity(3))
    with pytest.raises(ArithmeticError, match="lattice search budget exceeded"):
        diagonal_witness(minus_identity(3))
    monkeypatch.setattr(lattices, "MAX_NODES", 9)
    assert donaldson_admissible(minus_identity(3)).admissible


# -- congruence ---------------------------------------------------------------------


def test_every_enumerated_vector_satisfies_mod8_congruence():
    rng = random.Random(5)
    for n in (1, 2, 3):
        g = conjugate(minus_identity(n), random_unimodular(rng, n))
        c0 = find_characteristic(g)
        for v in enumerate_coset_by_norm(g, c0, 12):
            assert (norm_of(g, v.coords) - n) % 8 == 0
    for v in enumerate_coset_by_norm(e8_gram(), LatticeVector([0] * 8), 8):
        assert norm_of(e8_gram(), v.coords) % 8 == 0
