"""Checks of one job's exit status, stdout and stderr.

The oracles never call swcohom.  The a(p, l) coefficients come from
unsigned Stirling numbers of the first kind,

    a(p, l) = (-1)^p p! c(p + l, p) / (p + l)!,

(Graham, Knuth & Patashnik, Concrete Mathematics, section 6.1), the
Hurewicz orders from their gcd closed forms, lattice and degree verdicts
from how the job's input was built, and errors from the README's
contract: exit 1 with code `domain` or exit 2 with code `parse` or `io`,
one `swcohom/error/1` document on stderr, no traceback.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, gcd, lcm


class StirlingTable:
    """Rows c(n, 0..n) of unsigned Stirling numbers of the first kind,
    grown on demand by c(n+1, k) = n c(n, k) + c(n, k-1)."""

    def __init__(self):
        self.rows = [[1]]

    def c(self, n: int, k: int) -> int:
        while len(self.rows) <= n:
            m = len(self.rows) - 1
            prev = self.rows[-1] + [0]
            self.rows.append([m * prev[0]] + [m * prev[j] + prev[j - 1]
                                              for j in range(1, m + 2)])
        return self.rows[n][k]

    def a_coeffs(self, p: int, kappa: int) -> list:
        sign = -1 if p % 2 else 1
        return [Fraction(sign * factorial(p) * self.c(p + l, p), factorial(p + l))
                for l in range(kappa + 1)]


def _fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def kernel_order(d: int, k: int) -> int:
    if k in (0, 4):
        return 1
    if k in (1, 2):
        return gcd(2, d)
    return gcd(24, d) if d % 2 == 0 else gcd(24, d - 3) // 2


def cokernel_order(d: int, k: int) -> int:
    if k == 0:
        return 1
    if k == 2:
        return gcd(2, d - 1)
    return (48 if d % 2 == 0 else 12) // kernel_order(d, 3)


class Oracle:
    def __init__(self):
        self.stirling = StirlingTable()

    def check(self, job, status: int, stdout: str, stderr: str):
        """None when the job behaved as the oracle says, else the reason."""
        if "Traceback" in stderr:
            return "traceback on stderr: " + stderr.strip().splitlines()[-1]
        expect = job.expect
        if expect["kind"] == "error":
            return _check_error(expect["codes"], status, stdout, stderr)
        if status != 0 or stderr:
            return f"exit {status}, stderr {stderr.strip()[:200]!r}"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        kind = expect["kind"]
        if kind == "lattice":
            return _check_lattice(expect, doc)
        if kind == "reduce":
            return _check_reduce(expect, doc)
        want = json.dumps(getattr(self, "_" + kind)(**{
            k: v for k, v in expect.items() if k != "kind"}), indent=2) + "\n"
        return None if stdout == want else f"{kind} report differs from the oracle"

    # exact reports, serialized the way the CLI does

    def _bound_row(self, d, k):
        kappa = k // 2
        p = d - 1 - kappa
        a = self.stirling.a_coeffs(p, kappa)
        dens = [c.denominator for c in a]
        bound = lcm(*dens)
        coker = cokernel_order(d, k) if k <= 4 else None
        return {
            "d": d, "k": k, "p": p, "kappa": kappa,
            "a_coeffs": [_fmt(c) for c in a],
            "denominators": dens,
            "lower_bound": bound,
            "lemma_cokernel_order": coker,
            "sharp": None if coker is None else bound == coker,
        }

    def _bound(self, d, k):
        return {"schema": "swcohom/bound/1", **self._bound_row(d, k)}

    def _sharpscan(self, dmin, dmax, k):
        rows = [self._bound_row(d, kk) for d in range(dmin, dmax + 1)
                for kk in (2, 4) if d - 1 - kk // 2 >= 1 and k in (None, kk)]
        return {"schema": "swcohom/sharpscan/1", "d_min": dmin, "d_max": dmax,
                "rows": rows}

    def _hurewicz(self, d, k):
        orders = []
        for kk in ([k] if k is not None else [0, 1, 2, 3, 4]):
            coker = None
            if kk % 2 == 0 and not (kk == 4 and d <= 2):
                coker = cokernel_order(d, kk)
            orders.append({"k": kk, "kernel": kernel_order(d, kk), "cokernel": coker})
        return {"schema": "swcohom/hurewicz/1", "d": d, "orders": orders}

    def _index(self, c2, sigma):
        return {"schema": "swcohom/index/1", "c_squared": c2, "signature": sigma,
                "d": (c2 - sigma) // 8}

    def _dim(self, d, bplus):
        return {"schema": "swcohom/dim/1", "d": d, "b_plus": bplus,
                "k": 2 * d - bplus - 1}

    def _chamber(self, n, angles):
        counts = []
        for num, den in angles:
            first = num < den
            counts.append({
                "point_angle": _fmt(Fraction(num, den)),
                "chamber": "first_half" if first else "second_half",
                "signed_count": n + 1 if first else n,
            })
        return {"schema": "swcohom/chamber/1", "n": n, "counts": counts, "jump": 1}


def _check_error(codes, status, stdout, stderr):
    if stdout:
        return f"exit {status} with output on stdout"
    lines = stderr.splitlines()
    if len(lines) != 1:
        return f"exit {status}, stderr is not one line: {stderr.strip()[:200]!r}"
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError:
        return f"exit {status}, stderr is not JSON: {lines[0][:200]!r}"
    if (doc.get("schema") != "swcohom/error/1" or not isinstance(doc.get("error"), dict)
            or not isinstance(doc["error"].get("message"), str)):
        return f"not a swcohom/error/1 document: {lines[0][:200]!r}"
    got = (status, doc["error"].get("code"))
    if got not in [tuple(c) for c in codes]:
        return f"exit {status} code {got[1]!r}, expected one of {codes}"
    return None


_LATTICE_KEYS = ["schema", "rank", "valid", "failure", "min_characteristic_norm",
                 "admissible", "witness", "k", "diagonal_witness"]


def _pair(gram, u, v) -> int:
    return sum(ui * gij * vj for ui, row in zip(u, gram) for gij, vj in zip(row, v))


def _check_lattice(expect, doc):
    gram = expect["gram"]
    n = len(gram)
    if list(doc) != _LATTICE_KEYS or doc["schema"] != "swcohom/lattice/1":
        return f"lattice report has keys {list(doc)}"
    if doc["rank"] != n:
        return f"rank {doc['rank']} != {n}"
    if "failure" in expect:
        want = {"valid": False, "failure": expect["failure"]}
        if any(doc[k] != v for k, v in want.items()) or any(
                doc[k] is not None for k in _LATTICE_KEYS[4:]):
            return f"invalid form reported as {doc}"
        return None
    m = expect["min_norm"]
    want = {"valid": True, "failure": None, "min_characteristic_norm": m,
            "admissible": m >= n, "k": (m - n) // 8}
    for key, value in want.items():
        if doc[key] != value:
            return f"{key} = {doc[key]!r}, expected {value!r}"
    witness = doc["witness"]
    if m >= n:
        if witness is not None:
            return "admissible form with a witness"
    elif not (isinstance(witness, list) and len(witness) == n
              and all(isinstance(x, int) for x in witness)):
        return f"bad witness {witness!r}"
    elif -_pair(gram, witness, witness) != m:
        return f"witness norm {-_pair(gram, witness, witness)} != {m}"
    elif any((sum(g * c for g, c in zip(row, witness)) - row[i]) % 2
             for i, row in enumerate(gram)):
        return "witness is not characteristic"
    basis = doc["diagonal_witness"]
    if n > 8 or m < n:
        # only forms built from -I_n are diagonal; the CLI looks for a
        # diagonal basis up to rank 8
        return None if basis is None else "unexpected diagonal witness"
    if not (isinstance(basis, list) and len(basis) == n):
        return f"missing diagonal witness: {basis!r}"
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            if _pair(gram, u, v) != -(i == j):
                return "diagonal witness is not an orthonormal -1 frame"
    return None


_REDUCE_KEYS = ["schema", "domain_dim", "target_dim", "index", "epsilon",
                "reduced_dim", "subspace_V", "miss", "degree"]


def _is_rational(text) -> bool:
    if not isinstance(text, str):
        return False
    num, _, den = text.partition("/")
    return num.lstrip("-").isdigit() and (not den or den.isdigit())


def _check_reduce(expect, doc):
    dim = expect["dim"]
    if list(doc) != _REDUCE_KEYS or doc["schema"] != "swcohom/reduce/1":
        return f"reduce report has keys {list(doc)}"
    want = {"domain_dim": dim, "target_dim": dim, "index": 0, "epsilon": "1/4",
            "degree": expect["degree"]}
    for key, value in want.items():
        if doc[key] != value:
            return f"{key} = {doc[key]!r}, expected {value!r}"
    basis = doc["subspace_V"]
    if doc["reduced_dim"] != len(basis) or not all(
            len(v) == dim and all(map(_is_rational, v)) for v in basis):
        return f"bad subspace {basis!r}"
    miss = doc["miss"]
    if (miss.get("ok") is not True or not _is_rational(miss.get("worst_distance_squared"))
            or not isinstance(miss.get("samples_checked"), int)):
        return f"bad miss block {miss!r}"
    return None
