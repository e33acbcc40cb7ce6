"""Exit codes, JSON shape, and determinism of the command-line front end."""

import errno
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from math import factorial, log10

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import swcohom
from swcohom import chamber, cli, fourmanifold, lattices
from swcohom.cli import MAX_INPUT_CHARS, _dumps, _loads, main
from swcohom.divisibility import MAX_D
from swcohom.lattices import (
    GramMatrix,
    LatticeVector,
    e8_gram,
    enumerate_coset_by_norm,
    minus_identity,
)
from swcohom.reduction import PolynomialMap, ReductionProblem, builtin_compact


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv)
    assert status == 0, err
    doc = json.loads(out)
    assert "schema" in doc
    return doc


TRANSLATION_PROBLEM = {
    "domain_dim": 2,
    "target_dim": 2,
    "linear_part": [["1", "0"], ["0", "1"]],
    "compact_part": {"builtin": "constant", "vector": ["1", "0"]},
    "bound_radius": "2",
}


def test_bound_example(capsys):
    doc = run_json(capsys, "bound", "--d", "4", "--k", "4")
    assert doc["lower_bound"] == 6
    assert doc["lemma_cokernel_order"] == 12
    assert doc["sharp"] is False


def test_index_and_dim(capsys):
    doc = run_json(capsys, "index", "--c2", "40", "--sigma", "0")
    assert doc["d"] == 5
    doc = run_json(capsys, "dim", "--d", "5", "--bplus", "3")
    assert doc["k"] == 6
    doc = run_json(capsys, "dim", "--c2", "40", "--sigma", "0", "--bplus", "3")
    assert doc["k"] == 6


def test_hurewicz_table(capsys):
    doc = run_json(capsys, "hurewicz", "--d", "6")
    by_k = {row["k"]: row for row in doc["orders"]}
    assert by_k[3]["kernel"] == 6
    assert by_k[4]["cokernel"] == 8
    assert by_k[1]["cokernel"] is None


def test_sharpscan_rows(capsys):
    doc = run_json(capsys, "sharpscan", "--dmin", "3", "--dmax", "6",
                   "--k", "4")
    rows = {row["d"]: row for row in doc["rows"]}
    assert set(rows) == {4, 5, 6}
    assert rows[4]["sharp"] is False
    assert rows[5]["sharp"] is True


def test_lattice_e8(capsys, tmp_path):
    path = tmp_path / "e8.json"
    path.write_text(json.dumps({"gram": e8_gram().to_json()}))
    doc = run_json(capsys, "lattice", "--gram", str(path))
    assert doc["valid"] is True
    assert doc["admissible"] is False
    assert doc["witness"] == [0] * 8
    assert doc["min_characteristic_norm"] == 0
    assert doc["diagonal_witness"] is None


def test_lattice_minus_identity(capsys, tmp_path):
    path = tmp_path / "i3.json"
    path.write_text(json.dumps([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    doc = run_json(capsys, "lattice", "--gram", str(path))
    assert doc["admissible"] is True
    assert doc["min_characteristic_norm"] == 3
    assert doc["k"] == 0
    assert len(doc["diagonal_witness"]) == 3


def test_lattice_invalid_form_is_reported(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[1, 0], [0, -1]]))
    doc = run_json(capsys, "lattice", "--gram", str(path))
    assert doc["valid"] is False
    assert doc["admissible"] is None


def test_chamber_example(capsys):
    doc = run_json(capsys, "chamber", "--n", "3", "--angles", "1/2,3/2")
    counts = [row["signed_count"] for row in doc["counts"]]
    assert counts == [4, 3]
    assert doc["counts"][0]["chamber"] == "first_half"
    assert doc["jump"] == 1


def test_reduce_translation(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(TRANSLATION_PROBLEM))
    doc = run_json(capsys, "reduce", "--problem", str(path))
    assert doc["degree"] == 1
    assert doc["index"] == 0
    assert doc["miss"]["ok"] is True


# f = A F(B x) as ROADMAP item 14 builds it: F(z) = z^2 - 1 on R^2,
# B = [[1, 0], [3, 1]] and A = 2 [[-1, 0], [1, -1]], both of determinant
# +1, so deg f = 2; |A y| >= |y|, and |f(x)| >= 1 once
# |x| >= 3 ceil |B^-1|_F = 12
SKEWED_QUADRATIC = {
    "domain_dim": 2, "target_dim": 2,
    "linear_part": [["0", "0"], ["0", "0"]],
    "compact_part": {"components": [
        [["16", [2, 0]], ["12", [1, 1]], ["2", [0, 2]], ["2", [0, 0]]],
        [["-28", [2, 0]], ["-16", [1, 1]], ["-2", [0, 2]], ["-2", [0, 0]]]]},
    "bound_radius": "12",
}


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ROADMAP item 14: reduce reports degree 0, exit 0")
def test_reduce_skewed_quadratic_has_degree_two(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(SKEWED_QUADRATIC))
    assert path.stat().st_size == 263
    doc = run_json(capsys, "reduce", "--problem", str(path))
    assert doc["degree"] == 2


def test_table_format(capsys):
    status, out, _ = run(capsys, "--format", "table",
                         "bound", "--d", "4", "--k", "4")
    assert status == 0
    assert "lower_bound 6" in out


def test_determinism(capsys):
    _, first, _ = run(capsys, "sharpscan", "--dmin", "3", "--dmax", "12")
    _, second, _ = run(capsys, "sharpscan", "--dmin", "3", "--dmax", "12")
    assert first == second


# vanishes on a face of the boundary octahedron, so the refinement runs
# into its budget, which is an ArithmeticError
FACE_ZERO_PROBLEM = {
    "domain_dim": 3,
    "target_dim": 3,
    "linear_part": [["0", "0", "0"]] * 3,
    "compact_part": {"components": [
        [["1", [int(i == j) for j in range(3)]], ["-119/12", [0, 0, 0]]]
        for i in range(3)
    ]},
    "bound_radius": "16",
}

# f = x - (17, 289/100 - 17/3 - (34/100) x0 + (1/100) x0^2) vanishes at
# (17, 17/3), a non-dyadic point of an edge of the boundary square
EDGE_ZERO_PROBLEM = {
    "domain_dim": 2,
    "target_dim": 2,
    "linear_part": [["1", "0"], ["0", "1"]],
    "compact_part": {"components": [
        [["-17", [0, 0]]],
        [["289/100", [0, 0]], ["-17/3", [0, 0]], ["-34/100", [1, 0]],
         ["1/100", [2, 0]]],
    ]},
    "bound_radius": "16",
}

# x0^1000 / 10^6 is over the degree budget MAX_DEGREE = 64
DEGREE_1000_PROBLEM = {
    "domain_dim": 2,
    "target_dim": 2,
    "linear_part": [["1", "0"], ["0", "1"]],
    "compact_part": {"components": [[["1/1000000", [1000, 0]]], []]},
    "bound_radius": "2",
}


def test_domain_errors_exit_one(capsys, tmp_path):
    face_zero = tmp_path / "face_zero.json"
    face_zero.write_text(json.dumps(FACE_ZERO_PROBLEM))
    edge_zero = tmp_path / "edge_zero.json"
    edge_zero.write_text(json.dumps(EDGE_ZERO_PROBLEM))
    degree_1000 = tmp_path / "degree_1000.json"
    degree_1000.write_text(json.dumps(DEGREE_1000_PROBLEM))
    for argv in (
        ["index", "--c2", "1", "--sigma", "0"],
        ["sharpscan", "--dmin", "9", "--dmax", "3"],
        ["bound", "--d", "2", "--k", "4"],
        # past the divisibility budget, refused before any work
        ["bound", "--d", "3000", "--k", "3000"],
        ["sharpscan", "--dmin", "2", "--dmax", "100000"],
        ["chamber", "--n", "1", "--angles", "1/2,1"],
        ["dim", "--bplus", "3"],
        ["reduce", "--problem", str(face_zero)],
        ["reduce", "--problem", str(edge_zero)],
        ["reduce", "--problem", str(degree_1000)],
    ):
        status, out, err = run(capsys, *argv)
        assert status == 1
        assert out == ""
        assert json.loads(err)["error"]["code"] == "domain"


def test_lattice_node_budget_is_a_domain_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(lattices, "MAX_NODES", 8)
    path = tmp_path / "i3.json"
    path.write_text(json.dumps([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    status, out, err = run(capsys, "lattice", "--gram", str(path))
    assert (status, out) == (1, "")
    assert json.loads(err)["error"] == {
        "code": "domain", "message": "lattice search budget exceeded"}


def test_divisibility_budget_edge_stays_under_the_digit_limit(capsys):
    # every numerator and denominator up to d = MAX_D is below
    # 2^d (d-1)! (see swcohom.divisibility), under the 4300 digits that
    # Python converts to text by default; of every even k at d = 1000,
    # k = 1728 gives the longest numerator or denominator
    assert (2 ** MAX_D * factorial(MAX_D - 1)).bit_length() * log10(2) < 4300
    doc = run_json(capsys, "bound", "--d", str(MAX_D), "--k", "1728")
    digits = max(len(part.lstrip("-"))
                 for c in doc["a_coeffs"] for part in c.split("/"))
    assert digits == 1963
    doc = run_json(capsys, "sharpscan", "--dmin", str(MAX_D - 1),
                   "--dmax", str(MAX_D))
    assert [row["d"] for row in doc["rows"]] == [MAX_D - 1] * 2 + [MAX_D] * 2


def test_zero_builtin_has_one_component_per_target_coordinate(capsys, tmp_path):
    # the zero map R^3 -> R^2 loads; its index 1 is the domain error
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "domain_dim": 3,
        "target_dim": 2,
        "linear_part": [["1", "0", "0"], ["0", "1", "0"]],
        "compact_part": {"builtin": "zero"},
        "bound_radius": "2",
    }))
    status, out, err = run(capsys, "reduce", "--problem", str(path))
    assert (status, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["code"] == "domain"
    assert error["message"].startswith("degree needs index 0")


def test_io_and_parse_errors_exit_two(capsys, tmp_path):
    status, _, err = run(capsys, "lattice", "--gram",
                         str(tmp_path / "missing.json"))
    assert status == 2
    assert json.loads(err)["error"]["code"] == "io"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    status, _, err = run(capsys, "lattice", "--gram", str(bad))
    assert status == 2
    assert json.loads(err)["error"]["code"] == "parse"

    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps([[1, 2], [3]]))
    status, _, err = run(capsys, "lattice", "--gram", str(ragged))
    assert status == 2
    assert json.loads(err)["error"]["code"] == "parse"

    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps({"domain_dim": 2}))
    status, _, err = run(capsys, "reduce", "--problem", str(truncated))
    assert status == 2
    assert json.loads(err)["error"]["code"] == "parse"


# a JSON integer of more digits than Python converts is a parse error;
# without the limit (before Python 3.10.7) it is a plain integer
HUGE_INT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                              reason="no limit on integer string conversion")


@pytest.mark.parametrize("argv, files", [
    (["chamber", "--n", "3", "--angles", "1/2,1/0"], {}),
    (["reduce", "--problem", "{problem}", "--epsilon", "1/0"],
     {"problem": TRANSLATION_PROBLEM}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, linear_part=[[1, 0], [0, 1]])}),
    (["lattice", "--gram", "{gram}"], {"gram": [[-1.9]]}),
    (["lattice", "--gram", "{gram}"], {"gram": [[-1, 0], [0, True]]}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, domain_dim=2.7)}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, target_dim=2.2)}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={
         "components": [[["1", [1.9, 0]]], []]})}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, bound_radius=2)}),
    (["reduce", "--problem", "{problem}", "--samples", "0"],
     {"problem": TRANSLATION_PROBLEM}),
    (["reduce", "--problem", "{problem}", "--samples", "-5"],
     {"problem": TRANSLATION_PROBLEM}),
    (["lattice", "--gram", "{gram}"], {"gram": 1e999}),
    (["lattice", "--gram", "{gram}"], {"gram": [1, 2]}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={
         "components": [[["1", [1, 0]]]]})}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={"pieces": [
         {"if_norm2_le": None, "components": [[["1", [1, 0]]], []]},
         {"if_norm2_le": None, "components": [[["1", [1, 0]]]]}]})}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part="builtin")}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={"pieces": [3]})}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={
         "builtin": "constant", "vector": "12"})}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, linear_part=["10", "01"])}),
    (["reduce", "--problem", "{problem}"], {"problem": [1, 2]}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={
         "builtin": "constant", "vector": ["1"]})}),
    (["reduce", "--problem", "{problem}"],
     {"problem": {k: v for k, v in TRANSLATION_PROBLEM.items()
                  if k != "linear_part"}}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={
         "builtin": "zero", "vector": ["5", "0"]})}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={
         "builtin": "zero", "components": [[["5", [0, 0]]], []]})}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={
         "pieces": [{"if_norm2_le": None, "components": [[], []]}],
         "components": [[["5", [0, 0]]], []]})}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={
         "builtin": "constant", "vector": ["1", "0"], "vectr": ["5", "0"]})}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={"pieces": [
         {"if_norm2_ge": "100", "components": [[["5", [0, 0]]], []]},
         {"if_norm2_le": None, "components": [[], []]}]})}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, compact_part={
         "builtin": ["zero"]})}),
    (["lattice", "--gram", "{gram}"], {"gram": b"\xff[[-1]]"}),
    pytest.param(["lattice", "--gram", "{gram}"],
                 {"gram": b"[[-" + b"1" * 5000 + b"]]"}, marks=HUGE_INT),
    (["lattice", "--gram", "{gram}"], {"gram": b"[" * 100000 + b"]" * 100000}),
    (["reduce", "--problem", "{problem}"], {"problem": b"\xff{}"}),
    pytest.param(["reduce", "--problem", "{problem}"],
                 {"problem": b'{"domain_dim": ' + b"1" * 5000 + b"}"},
                 marks=HUGE_INT),
    (["bound", "--d", "x", "--k", "2"], {}),
    (["reduce"], {}),
    (["frobnicate"], {}),
    (["dim", "--d", "5", "--c2", "0", "--sigma", "0", "--bplus", "3"], {}),
    (["dim", "--d", "5", "--c2", "0", "--bplus", "3"], {}),
    (["dim", "--d", "5", "--sigma", "0", "--bplus", "3"], {}),
    (["lattice", "--gram", "{gram}"], {"gram": {"gram": [[-1]], "extra": 1}}),
    (["lattice", "--gram", "{gram}"], {"gram": {}}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, extra_key=1)}),
    (["reduce", "--problem", "{problem}", "--epsilon", "1_0/40"],
     {"problem": TRANSLATION_PROBLEM}),
    (["chamber", "--n", "3", "--angles", "\u0661/\u0662"], {}),
    (["chamber", "--n", "3", "--angles", "\uff11/\uff14"], {}),
    (["chamber", "--n", "3", "--angles", "+1/4"], {}),
    (["chamber", "--n", "3", "--angles", " 1/4 "], {}),
    (["chamber", "--n", "3", "--angles", "1/-4"], {}),
    (["reduce", "--problem", "{problem}"],
     {"problem": dict(TRANSLATION_PROBLEM, bound_radius="2 ")}),
    (["index", "--c2", "1_6", "--sigma", "0"], {}),
    (["index", "--c2", "\u0661\u0666", "--sigma", "0"], {}),
    (["index", "--c2", " 16 ", "--sigma", "0"], {}),
    (["index", "--c2", "+16", "--sigma", "0"], {}),
    (["index", "--c2", "16", "--sig", "0"], {}),
    (["index", "--c2", "8", "--c2", "16", "--sigma", "0"], {}),
    (["index", "--c2=16", "--sigma", "0"], {}),
    pytest.param(["index", "--c2", "1" * 5000, "--sigma", "0"], {},
                 marks=HUGE_INT),
    pytest.param(["reduce", "--problem", "{problem}",
                  "--epsilon", "1" * 5000 + "/2"],
                 {"problem": TRANSLATION_PROBLEM}, marks=HUGE_INT),
    pytest.param(["chamber", "--n", "3", "--angles", "1" * 5000 + "/2"], {},
                 marks=HUGE_INT),
    pytest.param(["reduce", "--problem", "{problem}"],
                 {"problem": dict(TRANSLATION_PROBLEM,
                                  bound_radius="1" * 5000)},
                 marks=HUGE_INT),
], ids=["chamber-zero-denominator", "epsilon-zero-denominator",
        "reduce-json-numbers", "gram-float", "gram-bool",
        "reduce-float-domain-dim", "reduce-float-target-dim",
        "reduce-float-exponent", "reduce-json-number-radius",
        "reduce-zero-samples", "reduce-negative-samples",
        "gram-top-level-number", "gram-number-rows",
        "reduce-short-components", "reduce-short-piece",
        "reduce-string-compact-part", "reduce-number-piece",
        "reduce-string-vector", "reduce-string-rows",
        "reduce-top-level-list", "reduce-short-constant",
        "reduce-missing-key", "reduce-zero-with-vector",
        "reduce-builtin-with-components", "reduce-pieces-with-components",
        "reduce-constant-misspelled-key", "reduce-piece-unknown-key",
        "reduce-list-builtin-name", "gram-not-utf8", "gram-huge-integer",
        "gram-deep-nesting", "reduce-not-utf8", "reduce-huge-integer",
        "usage-non-integer-option", "usage-missing-option",
        "usage-unknown-subcommand", "dim-d-with-c2-and-sigma",
        "dim-d-with-c2", "dim-d-with-sigma", "gram-extra-key", "gram-empty-object",
        "reduce-extra-key", "epsilon-underscore", "angles-arabic-indic-digits",
        "angles-fullwidth-digits", "angles-plus-sign", "angles-spaces",
        "angles-negative-denominator", "reduce-radius-trailing-space",
        "option-underscore", "option-arabic-indic-digits", "option-spaces",
        "option-plus-sign", "option-abbreviated", "option-repeated",
        "option-equals-form", "option-huge-integer", "epsilon-huge-integer",
        "chamber-huge-angle", "reduce-huge-radius"])
def test_bad_input_is_one_parse_error(capsys, tmp_path, request, argv, files):
    # zero denominators, rationals off the ASCII grammar
    # -?[0-9]+(/[0-9]+)?, JSON numbers where "num/den" strings belong,
    # floats or bools where integers belong, sample counts below 1, a
    # Gram matrix or compact part of the wrong shape, a problem, compact
    # part or piece with a key its representation does not take, a JSON
    # value of the wrong type, a file that is not UTF-8, an integer too
    # long to convert, nesting too deep to decode, and a command line off
    # its grammar (an unknown subcommand, a missing, abbreviated, repeated
    # or "="-joined option, an integer option off ASCII -?[0-9]+): one
    # swcohom/error/1 line naming the input, never a traceback, usage text
    # or a Python internal
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp_path / f"{name}.json"
        if isinstance(doc, bytes):
            paths[name].write_bytes(doc)
        else:
            paths[name].write_text(json.dumps(doc))
    status, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (status, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["schema"] == "swcohom/error/1"
    assert doc["error"]["code"] == "parse"
    # Python's own TypeError texts ("'float' object is not iterable",
    # "object of type 'int' has no len()", "list indices must be
    # integers or slices, not str") name no input
    message = doc["error"]["message"]
    assert "object" not in message and "indices" not in message
    if request.node.callspec.id == "reduce-missing-key":
        assert message.endswith("missing key 'linear_part'")
    if request.node.callspec.id == "reduce-list-builtin-name":
        assert "unknown builtin compact part ['zero']" in message
    if request.node.callspec.id == "gram-extra-key":
        assert message.endswith("takes no key 'extra'")
    if request.node.callspec.id == "gram-empty-object":
        assert message == "bad Gram matrix: missing key 'gram'"
    if request.node.callspec.id == "reduce-extra-key":
        assert message.endswith("takes no key 'extra_key'")
    if request.node.callspec.id.startswith("angles-"):
        assert message.startswith(
            'chamber: bad --angles: not an exact rational "num/den"')
    if request.node.callspec.id in _OPTION_MESSAGES:
        assert message.startswith(_OPTION_MESSAGES[request.node.callspec.id])


@pytest.mark.parametrize("subcommand", ["lattice", "reduce"])
def test_nesting_near_the_recursion_limit_is_one_parse_error(
        capsys, tmp_path, subcommand):
    # every depth up to past the recursion limit is refused by the reader
    # or by the format's check, whose message shows the nested value
    path = tmp_path / "deep.json"
    flag = "--gram" if subcommand == "lattice" else "--problem"
    problem = json.dumps(dict(TRANSLATION_PROBLEM, linear_part=[]))
    limit = sys.getrecursionlimit()
    for depth in range(limit - 100, limit + 10):
        nested = "[" * depth + "]" * depth
        path.write_text(nested if subcommand == "lattice"
                        else problem.replace("[]", nested))
        status, out, err = run(capsys, subcommand, flag, str(path))
        assert (status, out) == (2, ""), depth
        assert json.loads(err)["error"]["code"] == "parse"


# how each refused option or input is named
_OPTION_MESSAGES = {
    "option-underscore": "index: bad --c2: not an integer: '1_6'",
    "option-arabic-indic-digits": "index: bad --c2: not an integer: '\u0661\u0666'",
    "option-spaces": "index: bad --c2: not an integer: ' 16 '",
    "option-plus-sign": "index: bad --c2: not an integer: '+16'",
    "option-abbreviated": "index: unknown option '--sig'",
    "option-repeated": "index: --c2 given twice",
    "option-equals-form": "index: unknown option '--c2=16'",
    "option-huge-integer": "index: bad --c2: an integer of 5000 characters",
    "epsilon-huge-integer": "reduce: bad --epsilon: an integer of 5000 "
    "characters",
    "chamber-huge-angle": "chamber: bad --angles: an integer of 5000 "
    "characters",
    "reduce-huge-radius": "bad reduction problem: an integer of 5000 "
    "characters",
    "usage-non-integer-option": "bound: bad --d: not an integer: 'x'",
    "usage-missing-option": "reduce: missing --problem",
    "usage-unknown-subcommand": "unknown subcommand 'frobnicate'",
}


def _problem(domain_dim=2, target_dim=2):
    return ReductionProblem(domain_dim, target_dim, [[1, 0], [0, 1]],
                            builtin_compact("zero", 2), 2)


# each integer field of both input formats: (what, the Python call, and
# the subcommand and document that reach it through the command line)
_INTEGER_FIELDS = {
    "gram-entry": ("an entry", lambda x: GramMatrix([[-1, 0], [0, x]]),
                   ("gram", lambda x: [[-1, 0], [0, x]])),
    "lattice-coordinate": ("a coordinate", lambda x: LatticeVector([1, x]),
                           None),
    "coset-bound": ("bound", lambda x: enumerate_coset_by_norm(
        minus_identity(2), LatticeVector([1, 1]), x), None),
    "exponent": ("exponent",
                 lambda x: PolynomialMap(2, [[(1, (x, 0))], []]),
                 ("problem", lambda x: dict(TRANSLATION_PROBLEM, compact_part={
                     "components": [[["1", [x, 0]]], []]}))),
    "domain-dim": ("domain_dim", lambda x: _problem(domain_dim=x),
                   ("problem", lambda x: dict(TRANSLATION_PROBLEM,
                                              domain_dim=x))),
    "target-dim": ("target_dim", lambda x: _problem(target_dim=x),
                   ("problem", lambda x: dict(TRANSLATION_PROBLEM,
                                              target_dim=x))),
}


@pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
def test_every_integer_field_refuses_bools_and_floats_alike(
        capsys, tmp_path, field, value):
    # one check reads every integer of both formats, so a bool or a float
    # gets one message, from Python and from a file alike
    what, build, cli = _INTEGER_FIELDS[field]
    message = f"{what} must be an integer, got {type(value).__name__} {value!r}"
    with pytest.raises(ValueError) as info:
        build(value)
    assert str(info.value) == message
    if cli is None:
        return
    kind, document = cli
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(document(value)))
    status, out, err = run(capsys, "lattice" if kind == "gram" else "reduce",
                           f"--{kind}", str(path))
    assert (status, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["code"] == "parse"
    described = "Gram matrix" if kind == "gram" else "reduction problem"
    assert error["message"] == f"bad {described}: {message}"


# (1 - |x|^2)^2 on R^2 as monomial terms
_CUTOFF = [["1", [0, 0]], ["-2", [2, 0]], ["-2", [0, 2]],
           ["1", [4, 0]], ["2", [2, 2]], ["1", [0, 4]]]

GOLDEN_PROBLEMS = {
    "translation": TRANSLATION_PROBLEM,
    "complex_square_minus_one": {
        "domain_dim": 2,
        "target_dim": 2,
        "linear_part": [["0", "0"], ["0", "0"]],
        "compact_part": {"builtin": "complex_square_minus_one"},
        "bound_radius": "3/2",
    },
    # f = L x + (1 - |x|^2)^2 (1, 1 + x0 x1) inside the unit ball, L x outside
    "piecewise": {
        "domain_dim": 2,
        "target_dim": 2,
        "linear_part": [["2", "1"], ["1", "-1"]],
        "compact_part": {"pieces": [
            {"if_norm2_le": "1", "components": [
                _CUTOFF,
                _CUTOFF + [[c, [p[0] + 1, p[1] + 1]] for c, p in _CUTOFF],
            ]},
            {"if_norm2_le": None, "components": [[], []]},
        ]},
        "bound_radius": "1",
    },
}

_WORST = {
    "translation": "1024013577/1024000000",
    "complex_square_minus_one":
        "12259284059386460574104377/11832592569282330624000000",
    "piecewise":
        "71953275822531017360558886243039406523039359514695090990346571746704"
        "36410540219236692927930368937/"
        "77465845353784013481135704072185720355750102473263394231437626708003"
        "47163947723638876143616000000",
}
_V = {
    "translation": [["1", "0"]],
    "complex_square_minus_one": [["1", "0"], ["0", "1"]],
    "piecewise": [["470832/665857", "470832/665857"]],
}
_DEGREE = {"translation": 1, "complex_square_minus_one": 2, "piecewise": -1}


def _golden_json(name):
    v_lines = ",\n".join(
        "    [\n" + ",\n".join(f'      "{x}"' for x in v) + "\n    ]"
        for v in _V[name])
    return (
        "{\n"
        '  "schema": "swcohom/reduce/1",\n'
        '  "domain_dim": 2,\n'
        '  "target_dim": 2,\n'
        '  "index": 0,\n'
        '  "epsilon": "1/4",\n'
        f'  "reduced_dim": {len(_V[name])},\n'
        '  "subspace_V": [\n'
        f"{v_lines}\n"
        "  ],\n"
        '  "miss": {\n'
        '    "ok": true,\n'
        f'    "worst_distance_squared": "{_WORST[name]}",\n'
        '    "samples_checked": 161\n'
        "  },\n"
        f'  "degree": {_DEGREE[name]}\n'
        "}\n"
    )


def _golden_table(name):
    return (
        "schema swcohom/reduce/1\n"
        "domain_dim 2\n"
        "target_dim 2\n"
        "index 0\n"
        "epsilon 1/4\n"
        f"reduced_dim {len(_V[name])}\n"
        f"subspace_V {'; '.join(','.join(v) for v in _V[name])}\n"
        "miss.ok true\n"
        f"miss.worst_distance_squared {_WORST[name]}\n"
        "miss.samples_checked 161\n"
        f"degree {_DEGREE[name]}\n"
    )


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("name", sorted(GOLDEN_PROBLEMS))
def test_reduce_golden_bytes(capsys, tmp_path, name, fmt):
    # exact reports, subspace and worst distance included, as recorded
    # before the reduced map was evaluated in integer arithmetic
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(GOLDEN_PROBLEMS[name]))
    status, out, err = run(capsys, "--format", fmt, "reduce",
                           "--problem", str(path))
    assert (status, err) == (0, "")
    expected = _golden_json(name) if fmt == "json" else _golden_table(name)
    assert out == expected


def test_epsilon_recorded(capsys, tmp_path):
    # the report carries the --epsilon the net was built with
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(TRANSLATION_PROBLEM))
    doc = run_json(capsys, "reduce", "--problem", str(path), "--epsilon", "1/8")
    assert doc["epsilon"] == "1/8"


def test_epsilon_out_of_range(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(TRANSLATION_PROBLEM))
    status, _, err = run(capsys, "reduce", "--problem", str(path),
                         "--epsilon", "1/3")
    assert status == 1
    assert json.loads(err)["error"]["code"] == "domain"


def test_samples_size_only_a_net_that_is_drawn(capsys, tmp_path):
    # with l = 0 the complement of im(l) spans the target and no net is
    # drawn, so --samples changes nothing; with l invertible the net is
    # drawn, and 100000 points in the ball are past the sampling budget,
    # whose message names the most that can be drawn, a count that runs
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(GOLDEN_PROBLEMS["complex_square_minus_one"]))
    status, out, err = run(capsys, "reduce", "--problem", str(zero),
                           "--samples", "100000")
    assert (status, err) == (0, "")
    assert run(capsys, "reduce", "--problem", str(zero),
               "--samples", "128") == (0, out, "")
    assert out == _golden_json("complex_square_minus_one")
    translation = tmp_path / "translation.json"
    translation.write_text(json.dumps(TRANSLATION_PROBLEM))
    status, out, err = run(capsys, "reduce", "--problem", str(translation),
                           "--samples", "100000")
    assert (status, out) == (1, "")
    assert json.loads(err)["error"] == {
        "code": "domain", "message": "sampling budget exceeded: 100000 "
        "samples asked, and at most 6435 can be drawn"}
    status, _, err = run(capsys, "reduce", "--problem", str(translation),
                         "--samples", "6435")
    assert (status, err) == (0, "")


def test_input_past_the_budget_is_one_domain_error(capsys, tmp_path,
                                                   monkeypatch):
    # -I_1 after 2^20 spaces is valid JSON, but longer than the budget;
    # it is refused before the reader runs
    path = tmp_path / "gram.json"
    path.write_text(" " * MAX_INPUT_CHARS + "[[-1]]")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_loads", None)
        status, out, err = run(capsys, "lattice", "--gram", str(path))
    assert (status, out) == (1, "")
    assert json.loads(err)["error"] == {
        "code": "domain", "message": f"input budget exceeded: {path} is "
        f"longer than {MAX_INPUT_CHARS} characters"}
    # a file of exactly the budget is read
    path.write_text(" " * (MAX_INPUT_CHARS - 6) + "[[-1]]")
    assert run_json(capsys, "lattice", "--gram", str(path))["admissible"]


# every subcommand and its options, as the usage must show them
_OPTIONS = {
    "index": ["--c2", "--sigma"],
    "dim": ["--d", "--c2", "--sigma", "--bplus"],
    "bound": ["--d", "--k"],
    "hurewicz": ["--d", "--k"],
    "sharpscan": ["--dmin", "--dmax", "--k"],
    "lattice": ["--gram"],
    "reduce": ["--problem", "--epsilon", "--samples"],
    "chamber": ["--n", "--angles"],
}


def test_help_prints_usage_and_returns(capsys):
    # -h and --help print usage on stdout and return 0, without SystemExit;
    # the usage of all subcommands names each with its options, and the
    # usage of one names its options and --format
    status, usage, err = run(capsys, "--help")
    assert (status, err) == (0, "")
    assert run(capsys, "-h") == (0, usage, "")
    assert run(capsys, "--format", "table", "--help") == (0, usage, "")
    listed = {}
    for line in usage.splitlines():
        words = line.split()
        if line.startswith("  ") and words[0] in _OPTIONS:
            name = words[0]
        elif line.startswith("  ") and words[0].lstrip("[").startswith("--"):
            listed[name] = re.findall(r"--[a-z0-9]+", line)
    assert listed == _OPTIONS
    for name, flags in _OPTIONS.items():
        status, out, err = run(capsys, name, "--help")
        assert (status, err) == (0, "")
        assert out.startswith(f"usage: swcohom [--format json|table] {name} ")
        assert re.findall(r"--[a-z0-9]+", out) == ["--format"] + flags
        assert run(capsys, name, "-h") == (0, out, "")


@HUGE_INT
@pytest.mark.parametrize("fmt", [[], ["--format", "table"]], ids=["json", "table"])
@pytest.mark.parametrize("argv", [
    ["chamber", "--n", "9" * 4300, "--angles", "1/3"],
    ["dim", "--d", "9" * 4300, "--bplus", "3"],
], ids=["chamber-huge-n", "dim-huge-d"])
def test_report_integer_too_long_for_text_is_one_domain_error(
        capsys, monkeypatch, fmt, argv):
    # 4300 digits convert from text, but the report's signed count n + 1
    # or degree 2d - 4 has 4301, more than Python converts to text: the
    # report is rendered inside main's error handling, never a traceback.
    # The chamber and dim budgets refuse such inputs first, so they are
    # lifted here to reach the renderer; the lattice test below reaches it
    # with every budget in place
    monkeypatch.setattr(chamber, "MAX_N", float("inf"))
    monkeypatch.setattr(fourmanifold, "MAX_DIM_INPUT", float("inf"))
    status, out, err = run(capsys, *fmt, *argv)
    assert (status, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["schema"] == "swcohom/error/1"
    assert doc["error"]["code"] == "domain"
    # the message names the subcommand and the limit, not the interpreter
    # setting that lifts it
    assert doc["error"]["message"] == (
        f"{argv[0]}: a report integer is longer than the 4300-digit limit "
        "of integer text")


@HUGE_INT
@pytest.mark.parametrize("fmt", [[], ["--format", "table"]], ids=["json", "table"])
def test_lattice_witness_too_long_for_text_is_one_domain_error(
        capsys, tmp_path, fmt):
    # G = -B^T B for the unit lower triangular B with a, a, a under the
    # diagonal: a form of rank 4, diagonal over Z, with entries of about
    # 3000 digits.  The walk finds its norm -1 shell in a few nodes, and
    # the shell's vector e_1 has the coordinate -a^3, of 4501 digits
    a = 10 ** 1500 + 1
    cols = [(1, a, 0, 0), (0, 1, a, 0), (0, 0, 1, a), (0, 0, 0, 1)]
    gram = [[-sum(x * y for x, y in zip(u, v)) for v in cols] for u in cols]
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram))
    status, out, err = run(capsys, *fmt, "lattice", "--gram", str(path))
    assert (status, out) == (1, "")
    assert json.loads(err) == {"schema": "swcohom/error/1", "error": {
        "code": "domain", "message": "lattice: a report integer is longer "
        "than the 4300-digit limit of integer text"}}


@pytest.mark.parametrize("exponent", [300, 1500])
def test_lattice_walk_on_huge_entries_is_one_budget_error(
        capsys, tmp_path, exponent):
    # G = -B^T B for the unit upper triangular B with a, a, a above the
    # diagonal: unimodular and definite, with a walk scale of 10^4 and
    # 5 10^4 bits, where one node costs some 25 and 300 times what it does
    # on a small form.  The budget charges each node by that size, so the
    # search is refused in a fraction of a second, not in minutes
    a = 10 ** exponent + 1
    rows = [(1, a, 0, 0), (0, 1, a, 0), (0, 0, 1, a), (0, 0, 0, 1)]
    gram = [[-sum(r[i] * r[j] for r in rows) for j in range(4)]
            for i in range(4)]
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram))
    start = time.perf_counter()
    status, out, err = run(capsys, "lattice", "--gram", str(path))
    assert time.perf_counter() - start < 3
    assert (status, out) == (1, "")
    assert json.loads(err) == {"schema": "swcohom/error/1", "error": {
        "code": "domain", "message": "lattice search budget exceeded"}}


@pytest.mark.parametrize("argv, budget", [
    (["chamber", "--n", "9" * 4300, "--angles", "1/3"], "chamber"),
    (["chamber", "--n", str(chamber.MAX_N + 1), "--angles", "1/3,3/2"],
     "chamber"),
    (["dim", "--d", "9" * 4300, "--bplus", "3"], "dim"),
    (["dim", "--d", str(-fourmanifold.MAX_DIM_INPUT - 1), "--bplus", "3"],
     "dim"),
    (["dim", "--d", "-1", "--bplus", "9" * 4300], "dim"),
    (["dim", "--c2", str(8 * fourmanifold.MAX_DIM_INPUT + 8), "--sigma", "0",
      "--bplus", "3"], "dim"),
], ids=["chamber-huge-n", "chamber-past-budget", "dim-huge-d",
        "dim-past-budget-below", "dim-huge-bplus", "dim-past-budget-via-c2"])
def test_chamber_and_dim_past_the_budget_are_one_domain_error(
        capsys, monkeypatch, argv, budget):
    # refused before the path is built or a count taken
    monkeypatch.setattr(chamber, "LatitudePath", None)
    monkeypatch.setattr(chamber, "signed_preimage_count", None)
    status, out, err = run(capsys, *argv)
    assert (status, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == "domain"
    assert error["message"].startswith(f"{budget} budget exceeded")


def test_chamber_and_dim_at_the_budget_are_reported(capsys):
    n, d = chamber.MAX_N, fourmanifold.MAX_DIM_INPUT
    doc = run_json(capsys, "chamber", "--n", str(n), "--angles", "1/3,3/2")
    assert [c["signed_count"] for c in doc["counts"]] == [n + 1, n]
    doc = run_json(capsys, "dim", "--d", str(-d), "--bplus", str(d - 1))
    assert doc["k"] == -3 * d
    doc = run_json(capsys, "dim", "--d", str(d), "--bplus", "3")
    assert doc["k"] == 2 * d - 4


# what reports and error documents hold, nested; the example pins lone
# surrogates, which st.text() never draws, DEL, a non-BMP character and
# every two-character escape
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner))


@given(REPORT_VALUES)
@example({"s": ["\ud800", "\udfff", "\x7f\x00\x1f \"\\\n\r\t\b\f\U0001d11e\u00e9"],
          "": {}, "e": [], "n": [None, True, False, -10 ** 40]})
def test_writer_is_json_dumps(value):
    assert _dumps(value, indent=True) == json.dumps(value, indent=2)
    assert _dumps(value) == json.dumps(value)


@pytest.mark.parametrize("value", [
    1.5, [0.0], {"rows": [{"x": 2.5}]}, (1, 2), {1: "x"}, float("nan")])
def test_writer_refuses_what_reports_do_not_hold(value):
    # a float, a tuple and a non-str key, which json.dumps would write
    with pytest.raises(TypeError):
        _dumps(value, indent=True)
    with pytest.raises(TypeError):
        _dumps(value)


# JSON values, with ints past 64 bits, every float, -0.0, NaN and the
# infinities, and text with lone surrogates, which st.text() never draws
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 64, 2 ** 64) | st.floats()
    | st.text(st.characters(blacklist_categories=())),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner))
# what an edit puts in: whitespace, structure, escapes, number characters,
# letters of the words, the solidus, a BOM and NUL
_EDIT_CHARACTERS = (" \t\n\r" + '[]{},:"' + "\\" + "-+.eE" + "0123456789"
                    + "abflnrstuINyxz" + "/\ufeff\x00")


@st.composite
def json_texts(draw):
    # json.dumps of a value nested at most 50 deep, then 1-3 character
    # edits (insertions, deletions, replacements) on some of them
    value = draw(JSON_VALUES)
    for kind in draw(st.lists(st.sampled_from("[{"), max_size=40)):
        value = [value] if kind == "[" else {draw(st.text(max_size=2)): value}
    text = json.dumps(value, ensure_ascii=draw(st.booleans()),
                      indent=draw(st.sampled_from([None, 1])))
    for _ in range(draw(st.sampled_from([0, 1, 2, 3]))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        c = "" if edit == "delete" else draw(st.sampled_from(_EDIT_CHARACTERS))
        text = text[:i] + c + text[i + (edit != "insert"):]
    return text


def _read(loads, text):
    # the repr of the value, which tells -0.0 from 0.0 and shows key
    # order, or the kind of error
    try:
        return repr(loads(text))
    except RecursionError:
        return RecursionError
    except ValueError:
        return ValueError


@given(json_texts())
@example("")
@example("-")
@example("01")
@example("1.")
@example(".5")
@example("[1,]")
@example('{"a":1,}')
@example('"\\ud800\\udc00"')
@example('"\\ud800"')
@example("\ufeff[1]")
@example('{"a":1,"b":2,"a":3}')
@example("1" * 5000)
def test_reader_is_json_loads(text):
    # the values json.loads gives, and its refusals; a 5000-digit integer
    # is past the digit limit of integer text, so both refuse it
    assert _read(_loads, text) == _read(json.loads, text)



def test_module_invocation_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "swcohom.cli", "chamber",
         "--n", "0", "--angles", "1/2,3/2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    counts = [row["signed_count"] for row in doc["counts"]]
    assert counts == [1, 0]


# the console script's wrapper: it calls the entry point and exits with
# what it returns
_CONSOLE_SCRIPT = ("import sys; from swcohom.cli import _process_main; "
                   "sys.exit(_process_main())")
# the lattice and the zero-linear z^2 - 1 problem of CI's console-script
# step
_CI_GRAM = [[-2, 1], [1, -1]]
_CI_PROBLEM = {
    "domain_dim": 2, "target_dim": 2,
    "linear_part": [["0", "0"], ["0", "0"]],
    "compact_part": {"builtin": "complex_square_minus_one"},
    "bound_radius": "2",
}


@pytest.mark.parametrize("argv, status", [
    (["index", "--c2", "40", "--sigma", "0"], 0),
    (["--format", "table", "bound", "--d", "12", "--k", "4"], 0),
    (["lattice", "--gram", "{tmp}/gram.json"], 0),
    (["reduce", "--problem", "{tmp}/problem.json"], 0),
    (["index", "--c2", "16", "--sig", "0"], 2),
    (["index", "--c2", "1", "--sigma", "0"], 1),
], ids=["success", "success-table", "lattice", "reduce", "parse-error",
        "domain-error"])
def test_process_entry_points_match_main(capsys, tmp_path, argv, status):
    # python -m swcohom.cli and the console script give the bytes and the
    # status of main(argv) in process
    (tmp_path / "gram.json").write_text(json.dumps(_CI_GRAM))
    (tmp_path / "problem.json").write_text(json.dumps(_CI_PROBLEM))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    expected = run(capsys, *argv)
    assert expected[0] == status
    for prefix in (["-m", "swcohom.cli"], ["-c", _CONSOLE_SCRIPT]):
        proc = subprocess.run([sys.executable, *prefix, *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


class _FullStream(io.StringIO):
    # a standard output with no file descriptor, on which every write fails
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_main_returns_in_process(capsys, monkeypatch):
    # main(argv) returns its status to an in-process caller, on success and
    # on every error, and the process goes on
    for argv, status in ((["index", "--c2", "40", "--sigma", "0"], 0),
                         (["index", "--c2", "1", "--sigma", "0"], 1),
                         (["index", "--c2", "16", "--sig", "0"], 2)):
        assert run(capsys, *argv)[0] == status
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", _FullStream())
        assert main(["index", "--c2", "40", "--sigma", "0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "io"


# a handler registered before the entry point writes a marker, with no
# newline to flush it, on standard error and then on standard output, and a
# statement after the entry point would write another and change the status
_WITH_HANDLER = (
    "import atexit, sys; from swcohom.cli import _process_main; "
    "atexit.register(lambda: (sys.stderr.write('atexit'), "
    "sys.stdout.write('atexit'))); "
    "_process_main(); print('after', file=sys.stderr); sys.exit(99)")


@pytest.mark.parametrize("argv, full", [
    (["index", "--c2", "40", "--sigma", "0"], False),
    (["index", "--c2", "16", "--sig", "0"], False),
    (["index", "--c2", "1", "--sigma", "0"], False),
    (["index", "--c2", "40", "--sigma", "0"], True),
], ids=["success", "parse-error", "domain-error", "io-error"])
def test_process_entry_runs_atexit_handlers_then_exits(capsys, monkeypatch,
                                                       argv, full):
    # the handlers run once main has written its report or error document,
    # the status is main's, and the process ends in _process_main
    if not full:
        status, out, err = run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-c", _WITH_HANDLER, *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            status, out + "atexit", err + "atexit")
        return
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", _FullStream())
        status, _, err = run(capsys, *argv)
    with open("/dev/full", "w") as sink:
        proc = subprocess.run([sys.executable, "-c", _WITH_HANDLER, *argv],
                              stdout=sink, stderr=subprocess.PIPE, text=True)
    # the handler's own write to the full device fails, and the
    # interpreter reports that after its marker; the status stays main's
    assert (proc.returncode, status) == (2, 2)
    assert proc.stderr.startswith(err + "atexit")
    assert "after" not in proc.stderr


def test_unwritable_output_in_process_is_one_io_error(capsys, monkeypatch):
    # main(argv) reports the failed write and leaves the process's file
    # descriptors as they were
    fd1 = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", _FullStream())
    status = main(["index", "--c2", "40", "--sigma", "0"])
    assert status == 2
    assert json.loads(capsys.readouterr().err)["error"] == {
        "code": "io", "message": "cannot write to standard output: "
        "[Errno 28] No space left on device"}
    assert (os.fstat(1).st_dev, os.fstat(1).st_ino) == (fd1.st_dev,
                                                        fd1.st_ino)


def _assert_one_io_error(proc):
    # exit status 2 and one io document, with no traceback and no
    # "Exception ignored" from the interpreter's flush at exit
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    doc = json.loads(lines[0])
    assert doc["schema"] == "swcohom/error/1"
    assert doc["error"]["code"] == "io"
    assert doc["error"]["message"].startswith("cannot write to standard output")


# a report of a few bytes, and one of 562 KB, more than a pipe holds
_REPORTS = pytest.mark.parametrize("argv", [
    ["index", "--c2", "40", "--sigma", "0"],
    ["sharpscan", "--dmin", "2", "--dmax", "1000"],
], ids=["index", "sharpscan"])


@_REPORTS
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_report_to_a_full_device_is_one_io_error(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "swcohom.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    _assert_one_io_error(proc)


@_REPORTS
def test_report_to_a_closed_pipe_is_one_io_error(argv):
    # the read end is closed before the child starts, so every write to
    # the pipe fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "swcohom.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write_end)
    _assert_one_io_error(proc)


# a child process runs one statement and then prints, on standard error,
# the modules that statement loaded; site may already have loaded
# third-party modules before it
_CHILD = ("import sys; before = set(sys.modules); {}; "
          "print('\\n'.join(sorted(set(sys.modules) - before)), file=sys.stderr)")
# a child process runs one statement and then prints, on standard error,
# the file name of each source it compiled other than a module's .py
# file, which an import compiles when it finds no cached bytecode
_COMPILE_CHILD = (
    "import sys; compiled = []; "
    "sys.addaudithook(lambda event, args: event == 'compile' "
    "and not str(args[1]).endswith('.py') and compiled.append(str(args[1]))); "
    "{}; sys.stderr.write(''.join(name + '\\n' for name in compiled))")
_RUN = ("import swcohom.cli; status = swcohom.cli.main(sys.argv[1:]); "
        "assert status == 0")
_RUN_DOMAIN_ERROR = _RUN.replace("status == 0", "status == 1")
_RUN_PARSE_ERROR = _RUN.replace("status == 0", "status == 2")
_SUBMODULES = {f"swcohom.{m.name}" for m in pkgutil.iter_modules(swcohom.__path__)}
# the command line is read without argparse, and so without gettext and
# locale, which argparse loads, and input files and reports without json;
# no module postpones its annotations, which loads __future__
_PARSER = {"argparse", "gettext", "locale", "json", "__future__"}
# fractions loads decimal and numbers
_FRACTIONS = {"fractions", "decimal", "numbers"}
# a(p, l) are integer pairs
_DIVISIBILITY_ABSENT = _PARSER | _FRACTIONS | {
    "swcohom.series", "swcohom.lattices", "swcohom.reduction",
    "swcohom.degree"}
# the reduction layer's rationals are integer pairs
_REDUCE_ABSENT = _PARSER | _FRACTIONS | {f"swcohom.{m}" for m in (
    "lattices", "divisibility", "series", "chamber", "chern")}
# z^2 - 1 over l = 0, whose complement of im(l) spans the target
_ZERO_LINEAR_PROBLEM = {
    "domain_dim": 2, "target_dim": 2,
    "linear_part": [["0", "0"], ["0", "0"]],
    "compact_part": {"builtin": "complex_square_minus_one"},
    "bound_radius": "3/2",
}
# quarter coefficients on a piece over l = I, so that the net is drawn
# and adjoins twice
_PIECEWISE_PROBLEM = {
    "domain_dim": 2, "target_dim": 2,
    "linear_part": [["1", "0"], ["0", "1"]],
    "compact_part": {"pieces": [
        {"if_norm2_le": "16", "components": [
            [["1/4", [0, 0]], ["1/4", [1, 1]]], [["-3/4", [1, 0]]]]},
        {"components": [[], []]}]},
    "bound_radius": "2",
}
# index 1: V is chosen and checked, and the degree is refused
_INDEX_ONE_PROBLEM = {
    "domain_dim": 3, "target_dim": 2,
    "linear_part": [["1", "0", "0"], ["0", "1", "0"]],
    "compact_part": {"builtin": "zero"},
    "bound_radius": "2",
}


_FOOTPRINTS = pytest.mark.parametrize("statement, argv, absent", [
    ("import swcohom", [], _SUBMODULES | {"__future__"}),
    ("import swcohom.cli", [], _SUBMODULES - {"swcohom.cli"} | {"__future__"}),
    # the reader compiles no regular expression, and linalg's elimination
    # runs in integers
    (_RUN, ["lattice", "--gram", "{gram}"],
     _PARSER | _FRACTIONS | {"re"} | {f"swcohom.{m}" for m in (
         "reduction", "degree", "series", "divisibility", "chamber",
         "chern")}),
    (_RUN, ["index", "--c2", "40", "--sigma", "0"], _PARSER | _FRACTIONS),
    (_RUN, ["dim", "--d", "5", "--bplus", "3"], _PARSER | _FRACTIONS),
    (_RUN, ["hurewicz", "--d", "6"], _DIVISIBILITY_ABSENT),
    (_RUN, ["bound", "--d", "300", "--k", "114"], _DIVISIBILITY_ABSENT),
    (_RUN, ["sharpscan", "--dmin", "2", "--dmax", "300"],
     _DIVISIBILITY_ABSENT),
    (_RUN_DOMAIN_ERROR, ["bound", "--d", "2", "--k", "4"],
     _DIVISIBILITY_ABSENT),
    (_RUN, ["chamber", "--n", "3", "--angles", "1/3,3/2"],
     _PARSER | _FRACTIONS | {f"swcohom.{m}" for m in (
         "lattices", "reduction", "degree", "divisibility", "series")}),
    (_RUN, ["reduce", "--problem", "{problem}"], _REDUCE_ABSENT),
    (_RUN, ["reduce", "--problem", "{zero_linear}"], _REDUCE_ABSENT),
    (_RUN, ["reduce", "--problem", "{piecewise}", "--epsilon", "1/8"],
     _REDUCE_ABSENT),
    (_RUN_PARSE_ERROR, ["reduce", "--problem", "{decimal_radius}"],
     _REDUCE_ABSENT),
    (_RUN_DOMAIN_ERROR, ["reduce", "--problem", "{index_one}"],
     _REDUCE_ABSENT),
], ids=["import-package", "import-cli", "lattice", "index", "dim",
        "hurewicz", "bound", "sharpscan", "bound-domain-error", "chamber",
        "reduce", "reduce-zero-linear", "reduce-piecewise-net",
        "reduce-parse-error", "reduce-domain-error"])


def _run_child(tmp_path, child, statement, argv):
    # the child's lines on standard error, less a domain or parse error's
    # document, which the statement writes before them
    docs = {"problem": TRANSLATION_PROBLEM,
            "zero_linear": _ZERO_LINEAR_PROBLEM,
            "piecewise": _PIECEWISE_PROBLEM,
            "decimal_radius": dict(TRANSLATION_PROBLEM, bound_radius="1.5"),
            "index_one": _INDEX_ONE_PROBLEM}
    paths = {"gram": tmp_path / "gram.json"}
    paths["gram"].write_text(json.dumps(e8_gram().to_json()))
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-c", child.format(statement),
         *(a.format(**paths) for a in argv)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [line for line in proc.stderr.splitlines()
            if not line.startswith('{"schema": "swcohom/error/1"')]


@_FOOTPRINTS
def test_import_footprint(tmp_path, statement, argv, absent):
    # each subcommand loads only its own layer and the standard library
    added = _run_child(tmp_path, _CHILD, statement, argv)
    # the child loaded what it ran, so the absences below mean something
    assert ("swcohom.cli" if "cli" in statement else "swcohom") in added
    assert sorted(absent.intersection(added)) == []
    foreign = [m for m in added
               if m.partition(".")[0] not in sys.stdlib_module_names
               and m.partition(".")[0] != "swcohom"]
    assert foreign == []
    # start-up cost: dataclasses pulls in inspect, and with it ast, dis
    # and tokenize, which no computed value needs
    assert {"dataclasses", "inspect"}.isdisjoint(added)


@_FOOTPRINTS
def test_no_source_is_compiled_at_run_time(tmp_path, statement, argv, absent):
    # every class and function is compiled with its module, never from
    # source built at run time, as collections.namedtuple builds each
    # class it makes and compiles it under "<string>"
    assert _run_child(tmp_path, _COMPILE_CHILD, statement, argv) == []
