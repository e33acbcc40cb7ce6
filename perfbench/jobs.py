"""Seeded job streams for the three benchmark workloads.

A job is one ``python -m swcohom.cli <subcommand> ...`` process.  A
workload is an endless stream of blocks of 16 to 19 jobs.  Every block
holds the same mix of job kinds, with seeded parameters, shuffled
within the block, so that any two seeds run the same layers in the same
proportions and a run that stops between blocks still has the mix.

The mix is shaped for a steady 90th percentile of latency.  One job of
each block is heavy; which heavy kind it is rotates from block to block.
About three more are "plateau" jobs of nearly equal cost that sit
just below the heavy ones.  The 90th percentile thus falls among
similar jobs instead of on the edge between two kinds of job.  Inputs
that the CLI reads from files are written into the directory given to
:func:`stream`.

Nothing here imports swcohom: the forms, problems and expected answers
are built by hand, so that the oracle does not lean on the code it
checks.  Every job of a stream succeeds at the seed commit; the jobs
that hit a known defect come from :func:`defect_probes` instead.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

WORKLOADS = ("divisibility", "lattice", "reduce")


@dataclass
class Job:
    """argv follows ``python -m swcohom.cli``; expect feeds the oracle.

    defect names a known bug (README.md lists them) that makes this
    probe job fail at the seed commit; it is None for every job of a
    stream.
    """

    argv: list
    expect: dict
    defect: str | None = None

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def stream(workload: str, seed: int, files_dir: str):
    """Yield the jobs of one workload forever, block by block."""
    block = {
        "divisibility": _divisibility_block,
        "lattice": _lattice_block,
        "reduce": _reduce_block,
    }[workload]
    rng = random.Random(f"{workload}:{seed}")
    files = _FileWriter(files_dir)
    for index in itertools.count():
        jobs = block(rng, files, index)
        rng.shuffle(jobs)
        yield from jobs


class _FileWriter:
    def __init__(self, directory, prefix="input"):
        self.directory = directory
        self.prefix = prefix
        self.count = 0

    def write(self, text: str) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"{self.prefix}{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def json(self, doc) -> str:
        return self.write(json.dumps(doc))


def _error(status: int, code: str) -> dict:
    return {"kind": "error", "codes": [(status, code)]}


# README contract for bad input: exit 1 with `domain` or exit 2 with
# `parse`; a fix of a known defect may choose either.
_ANY_INPUT_ERROR = {"kind": "error", "codes": [(1, "domain"), (2, "parse")]}


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# -- divisibility -------------------------------------------------------------

_D_MAX = 400


def _bound(rng, kappa_lo, kappa_hi, p_lo=2, p_hi=_D_MAX):
    """A `bound` job with k/2 in [kappa_lo, kappa_hi] and p = d-1-k/2 in
    [p_lo, p_hi], 3 <= d <= 400."""
    kappa = rng.randint(kappa_lo, kappa_hi)
    d = rng.randint(kappa + 1 + p_lo, min(_D_MAX, kappa + 1 + p_hi))
    return Job(["bound", "--d", str(d), "--k", str(2 * kappa)],
               {"kind": "bound", "d": d, "k": 2 * kappa})


def _sharpscan(rng, width):
    dmin = rng.randint(2, 100)
    k = rng.choice((None, 2, 4))
    argv = ["sharpscan", "--dmin", str(dmin), "--dmax", str(dmin + width)]
    if k is not None:
        argv += ["--k", str(k)]
    return Job(argv, {"kind": "sharpscan", "dmin": dmin, "dmax": dmin + width,
                      "k": k})


def _divisibility_block(rng: random.Random, files: _FileWriter, index: int) -> list:
    # the series cost grows faster than kappa^2 and with log p
    if index % 2:
        heavy = _bound(rng, 61, 120, p_lo=100)
    else:
        heavy = _sharpscan(rng, rng.randint(200, 299))
    jobs = [heavy]
    jobs += [_bound(rng, 56, 58, p_lo=230, p_hi=250) for _ in range(3)]
    jobs += [_bound(rng, 0, 12), _bound(rng, 13, 29), _bound(rng, 30, 52),
             _sharpscan(rng, rng.randint(0, 99))]
    for _ in range(2):
        d = rng.randint(2, _D_MAX)
        k = rng.choice((None, 0, 1, 2, 3, 4))
        argv = ["hurewicz", "--d", str(d)] + ([] if k is None else ["--k", str(k)])
        jobs.append(Job(argv, {"kind": "hurewicz", "d": d, "k": k}))
    for _ in range(2):
        sigma = rng.randint(-40, 40)
        c2 = sigma + 8 * rng.randint(-40, 40)
        jobs.append(Job(["index", "--c2", str(c2), "--sigma", str(sigma)],
                        {"kind": "index", "c2": c2, "sigma": sigma}))
    for via_index in (False, True):
        bplus = 2 * rng.randint(1, 20) + 1
        if via_index:
            sigma = rng.randint(-40, 40)
            c2 = sigma + 8 * rng.randint(-40, 40)
            d = (c2 - sigma) // 8
            argv = ["dim", "--c2", str(c2), "--sigma", str(sigma)]
        else:
            d = rng.randint(-20, 200)
            argv = ["dim", "--d", str(d)]
        jobs.append(Job(argv + ["--bplus", str(bplus)],
                        {"kind": "dim", "d": d, "bplus": bplus}))
    for _ in range(4):
        n = rng.randint(0, 40)
        angles = []
        for _ in range(rng.randint(1, 6)):
            den = rng.randint(2, 12)
            num = rng.choice([m for m in range(1, 2 * den) if m != den])
            angles.append((num, den))
        text = ",".join(f"{a}/{b}" for a, b in angles)
        jobs.append(Job(["chamber", "--n", str(n), "--angles", text],
                        {"kind": "chamber", "n": n, "angles": angles}))
    jobs.append(rng.choice(_DIVISIBILITY_MALFORMED)())
    return jobs


_DIVISIBILITY_MALFORMED = (
    lambda: Job(["bound", "--d", "2", "--k", "4"], _error(1, "domain")),
    lambda: Job(["bound", "--d", "10", "--k", "3"], _error(1, "domain")),
    lambda: Job(["index", "--c2", "3", "--sigma", "0"], _error(1, "domain")),
    lambda: Job(["dim", "--bplus", "3"], _error(1, "domain")),
    lambda: Job(["dim", "--d", "4", "--bplus", "4"], _error(1, "domain")),
    lambda: Job(["hurewicz", "--d", "1"], _error(1, "domain")),
    lambda: Job(["sharpscan", "--dmin", "10", "--dmax", "5"], _error(1, "domain")),
    lambda: Job(["chamber", "--n", "3", "--angles", "1/2,1"], _error(1, "domain")),
)


# -- lattices -------------------------------------------------------------------


def minus_identity(n: int) -> list:
    return [[-int(i == j) for j in range(n)] for i in range(n)]


def _hnf_basis(generators: list) -> list:
    """Row basis of the integer span of ``generators`` (echelon form)."""
    rows = [list(r) for r in generators]
    basis = []
    for col in range(len(rows[0])):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            rest = []
            for r in live[1:]:
                q = r[col] // pivot[col]
                r = [a - q * b for a, b in zip(r, pivot)]
                (rest if r[col] else rows).append(r)
            live = [pivot] + rest
        if live:
            basis.append(live[0])
    return basis


def minus_dn_plus(n: int) -> list:
    """Gram matrix of -D_n^+ for n divisible by 4.

    D_n^+ is D_n = {x in Z^n : sum x even} glued with (1/2, ..., 1/2);
    it is unimodular when 4 | n, even (it is E8) for n = 8 and odd for
    n = 12.  Coordinates are doubled to keep the generators integral.
    """
    gens = [[2 * ((j == i) - (j == i + 1)) for j in range(n)] for i in range(n - 1)]
    gens.append([2 * (j >= n - 2) for j in range(n)])
    gens.append([1] * n)
    b = _hnf_basis(gens)
    return [[-sum(x * y for x, y in zip(u, v)) // 4 for v in b] for u in b]


def direct_sum(a: list, b: list) -> list:
    n, m = len(a), len(b)
    return ([list(row) + [0] * m for row in a]
            + [[0] * n + list(row) for row in b])


def random_unimodular(rng: random.Random, n: int, steps: int) -> list:
    """A seeded signed permutation followed by ``steps`` elementary row
    operations."""
    order = list(range(n))
    rng.shuffle(order)
    u = [[rng.choice((-1, 1)) * (j == order[i]) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def conjugate(g: list, u: list) -> list:
    """U G U^T: the same form in the basis given by the rows of U."""
    n = len(g)
    ug = [[sum(u[i][k] * g[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _lattice_job(files, rng, gram, expect, defect=None):
    doc = {"gram": gram} if rng.random() < 0.5 else gram
    return Job(["lattice", "--gram", files.json(doc)],
               dict(expect, gram=gram), defect)


_FAILURES = ("not symmetric", "not negative definite", "not unimodular")


def _invalid(rng, files, failure):
    """A form that fails validate() with ``failure``, the first check hit."""
    n = rng.randint(2, 10)
    gram = minus_identity(n)
    k = rng.randrange(n)
    if failure == "not negative definite":
        gram[k][k] = 1
    elif failure == "not unimodular":
        factor = rng.randint(2, 5)
        gram[k][k] = -factor
        failure = f"not unimodular (|det| = {factor})"
    gram = conjugate(gram, random_unimodular(rng, n, n))
    if failure == "not symmetric":
        i, j = rng.sample(range(n), 2)
        gram[i][j] += rng.choice((-1, 1))
    return _lattice_job(files, rng, gram, {"kind": "lattice", "failure": failure})


def _lattice_block(rng: random.Random, files: _FileWriter, index: int) -> list:
    e8 = minus_dn_plus(8)

    def valid(gram, min_norm, conjugated=None):
        if conjugated is None:
            conjugated = rng.random() < 0.5
        if conjugated:
            # a few row operations only: a strongly skewed basis multiplies
            # the enumeration cost of a rank 12 form by up to ten
            gram = conjugate(gram, random_unimodular(rng, len(gram), 4))
        return _lattice_job(files, rng, gram, {"kind": "lattice", "min_norm": min_norm})

    def identity(n, conjugated=None):
        return valid(minus_identity(n), n, conjugated)

    def e8_plus(k, conjugated=None):
        return valid(direct_sum(e8, minus_identity(k)) if k else e8, k, conjugated)

    heavy = (
        lambda: valid(minus_dn_plus(12), 4),
        lambda: e8_plus(rng.randint(3, 4)),
        lambda: identity(12),
    )[index % 3]
    jobs = [heavy(), identity(11, False), identity(11, True), e8_plus(2)]
    jobs += [identity(rng.randint(9, 10)), e8_plus(0), e8_plus(1)]
    for lo, hi in ((1, 4), (5, 7), (8, 8)):
        jobs += [identity(rng.randint(lo, hi), False),
                 identity(rng.randint(lo, hi), True)]
    for failure in _FAILURES + tuple(rng.choice(_FAILURES) for _ in range(2)):
        jobs.append(_invalid(rng, files, failure))
    jobs.append(rng.choice(_LATTICE_MALFORMED)(files))
    return jobs


_LATTICE_MALFORMED = (
    lambda files: Job(["lattice", "--gram", os.path.join(files.directory, "absent.json")],
                      _error(2, "io")),
    lambda files: Job(["lattice", "--gram", files.write("[[-1, 0], [0, -1]")],
                      _error(2, "parse")),
    lambda files: Job(["lattice", "--gram", files.json([[-1, 0], [0]])],
                      _error(2, "parse")),
    lambda files: Job(["lattice", "--gram", files.json([])], _error(2, "parse")),
)


# -- reduction ------------------------------------------------------------------


def det(m: list) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return result


def _inverse_frobenius2(m: list) -> Fraction:
    """Squared Frobenius norm of m^-1, from the adjugate."""
    n = len(m)
    d = det(m)
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
            total += (det(minor) if minor else 1) ** 2
    return total / (d * d)


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            key = tuple(x + y for x, y in zip(pa, pb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


def _components_json(components) -> list:
    return [[[_rat(c), list(p)] for p, c in sorted(comp.items()) if c]
            for comp in components]


def factory_problem(rng: random.Random, dim: int):
    """f = L x + c(x): L a seeded invertible integer matrix, c a seeded
    polynomial times the cut-off (1 - |x|^2/r^2)^2, zero outside |x| <= r.

    Outside max(r, |L^-1|_F) the compact part is gone and |L x| >= 1, so
    the straight-line homotopy to L fixes the degree at sign det L.
    """
    while True:
        linear = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        d = det(linear)
        if d:
            break
    r = Fraction(rng.randint(1, 2))
    zero = (0,) * dim
    base = {zero: Fraction(1)}
    for i in range(dim):
        base[tuple(2 * (j == i) for j in range(dim))] = -1 / (r * r)
    cutoff = _poly_mul(base, base)
    components = []
    for _ in range(dim):
        raw = {}
        for _ in range(rng.randint(1, 3)):
            powers = tuple(rng.randint(0, 2) for _ in range(dim))
            raw[powers] = raw.get(powers, Fraction(0)) + rng.randint(-2, 2)
        components.append(_poly_mul(raw, cutoff))
    frob2 = _inverse_frobenius2(linear)
    radius = max(r, Fraction(isqrt(frob2.numerator // frob2.denominator) + 1))
    doc = {
        "domain_dim": dim,
        "target_dim": dim,
        "linear_part": [[str(x) for x in row] for row in linear],
        "compact_part": {"pieces": [
            {"if_norm2_le": _rat(r * r), "components": _components_json(components)},
            {"if_norm2_le": None, "components": [[] for _ in range(dim)]},
        ]},
        "bound_radius": _rat(radius),
    }
    return doc, 1 if d > 0 else -1


def _complex_power(m: int, conj: bool) -> tuple:
    """Real and imaginary parts of z^m (or conj(z)^m) as exponent dicts."""
    re, im = {(0, 0): Fraction(1)}, {}
    step_im = Fraction(-1 if conj else 1)
    for _ in range(m):
        # (re + i im)(x + i s y) with s = -1 for the conjugate
        re, im = (
            _add(_poly_mul(re, {(1, 0): Fraction(1)}),
                 _poly_mul(im, {(0, 1): -step_im})),
            _add(_poly_mul(im, {(1, 0): Fraction(1)}),
                 _poly_mul(re, {(0, 1): step_im})),
        )
    return re, im


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return out


def zero_linear_problem(rng: random.Random, dim: int, m: int):
    """(z^m - 1) on R^2, or (z^m - 1, s x3) on R^3, with zero linear part.

    The degree is m for z^m, -m for conj(z)^m, times s in dimension 3.
    Radius 2 is a valid bound_radius: |z^m - 1| >= |z|^m - 1 >= 1 once
    |z| >= 2^(1/m), and in dimension 3 a point with |x| >= 2 and
    |z| < 2^(1/m) <= 2^(1/2) has |x3| >= 1.
    """
    conj = rng.random() < 0.5
    re, im = _complex_power(m, conj)
    re = _add(re, {(0, 0): Fraction(-1)})
    degree = -m if conj else m
    components = [re, im]
    if dim == 3:
        s = rng.choice((-1, 1))
        components = [{k + (0,): v for k, v in c.items()} for c in components]
        components.append({(0, 0, 1): Fraction(s)})
        degree *= s
    doc = {
        "domain_dim": dim,
        "target_dim": dim,
        "linear_part": [["0"] * dim for _ in range(dim)],
        "compact_part": {"components": _components_json(components)},
        "bound_radius": "2",
    }
    return doc, degree


# The factory problems of a stream come from a fixed pool of 512 per
# dimension, each run once through `reduce` at the seed commit.  It
# refused the ones listed here: it picks its subspace from 128 sampled
# values of the compact part, the sampled miss check then fails, and
# more samples do not help.  They run as a defect probe instead.
FACTORY_POOL = 512
FACTORY_REFUSED = {1: (), 2: (491,), 3: (445,)}


def pooled_factory_problem(dim: int, index: int):
    return factory_problem(random.Random(f"factory{dim}:{index}"), dim)


def _factory_from_pool(rng: random.Random, dim: int):
    while True:
        index = rng.randrange(FACTORY_POOL)
        if index not in FACTORY_REFUSED[dim]:
            return pooled_factory_problem(dim, index)


def _reduce_job(files, doc, degree):
    return Job(["reduce", "--problem", files.json(doc)],
               {"kind": "reduce", "dim": doc["domain_dim"], "degree": degree})


def _reduce_block(rng: random.Random, files: _FileWriter, index: int) -> list:
    jobs = []
    for dim in (1, 1, 1, 2, 2, 2, 3, 3):
        jobs.append(_reduce_job(files, *_factory_from_pool(rng, dim)))
    # the dimension-2 zero-linear problems hold the median job and the
    # dimension-3 ones form the p90 plateau
    for dim, m in ((2, 2), (2, 2), (2, 3), (2, 3), (2, rng.choice((2, 3))),
                   (3, 2), (3, 2)):
        jobs.append(_reduce_job(files, *zero_linear_problem(rng, dim, m)))
    doc, _ = factory_problem(rng, rng.randint(1, 3))
    bad = rng.choice(("bound_radius", "compact_part", "radius_zero"))
    if bad == "radius_zero":
        doc["bound_radius"] = "0"
    else:
        del doc[bad]
    jobs.append(Job(["reduce", "--problem", files.json(doc)], _error(2, "parse")))
    return jobs


# -- known defects ----------------------------------------------------------------


def defect_probes(workload: str, seed: int, files_dir: str) -> list:
    """One seeded job per known defect that the workload's subcommands
    reach (README.md lists them).

    These jobs fail at the seed commit.  They are kept out of the timed
    stream, whose jobs must all succeed, and run once after it; each
    still expects the right answer, so a fix shows as a probe that
    passes.
    """
    rng = random.Random(f"{workload}:{seed}:defects")
    files = _FileWriter(files_dir, prefix="defect")
    if workload == "divisibility":
        n = rng.randint(0, 40)
        argv = ["chamber", "--n", str(n), "--angles", f"1/2,{rng.randint(1, 3)}/0"]
        return [Job(argv, _ANY_INPUT_ERROR, defect="chamber-angle-zero-denominator")]
    if workload == "lattice":
        n = rng.randint(1, 6)
        floats = [[-1.0 * (i == j) for j in range(n)] for i in range(n)]
        floats[0][0] = -1.9
        return [_lattice_job(files, rng, floats, _ANY_INPUT_ERROR,
                             defect="lattice-float-entries")]
    # brouwer_degree reports +-1 for (z^3 - 1, +-x3), whose degree is +-3
    windings = _reduce_job(files, *zero_linear_problem(rng, 3, 3))
    windings.defect = "degree-dim3-misses-windings"
    doc, _ = factory_problem(rng, rng.randint(1, 3))
    doc["linear_part"] = [[int(x) for x in row] for row in doc["linear_part"]]
    numbers = Job(["reduce", "--problem", files.json(doc)], _ANY_INPUT_ERROR,
                  defect="reduce-json-number-entries")
    refused = _reduce_job(files, *pooled_factory_problem(3, FACTORY_REFUSED[3][0]))
    refused.defect = "reduce-net-from-too-few-samples"
    return [windings, numbers, refused]
